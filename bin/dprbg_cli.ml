(* dprbg — command-line front end to the D-PRBG simulation stack.

   Subcommands:
     coins      draw shared coins from a bootstrapped pool
     soundness  measure cheating-dealer acceptance rates (Lemmas 1, 3, 5)
     costs      cost vectors for the paper's protocols at given parameters
     agreement  run common-coin randomized Byzantine agreements
     pool       persistent pool: state survives process restarts
     fuzz       adversarial property fuzzing with shrinking and replay
     trace      structured protocol traces (JSONL export, round timeline)
     transport  differential soak of a byte transport against the sim
     chaos      real peer failures on a supervised byte transport
     beacon     randomness-beacon service: chained epochs, batched vending
     recover    offline snapshot + journal recovery and verification
     loadgen    drive the beacon with synthetic arrivals, report latency
*)

module F = Gf2k.GF32
module B = Beacon.Make (F)
module Pool = B.P
module CG = Pool.CG
module CE = Pool.CE
module V = Vss.Make (F)
module BG = Bit_gen.Make (F)

open Cmdliner

(* -v / -vv (from Logs_cli) enables protocol tracing: Coin-Gen batch
   events at info, per-round network activity at debug. *)
let setup_logs =
  let init style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const init $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let seed_arg =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let t_arg =
  let doc = "Number of Byzantine players to tolerate." in
  Arg.(value & opt int 2 & info [ "t" ] ~docv:"T" ~doc)

let n_for t = (6 * t) + 1
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The deployed pool configuration: batch 32, refill threshold 3, six
   initial seed coins. Every subcommand that draws protocol coins, and
   the beacon's pool ([beacon_pool]), runs it. *)
let batch_size = 32
let refill_threshold = 3

let deployed_pool ?sentinel ~prng ~n ~t () =
  Pool.create ?sentinel ~prng ~n ~t ~batch_size ~refill_threshold
    ~initial_seed:6 ()

let load_deployed_pool ?sentinel ~prng bytes =
  Pool.load ?sentinel ~prng ~batch_size ~refill_threshold bytes

(* The transport and chaos campaigns' smaller pool: a refill every few
   draws keeps every campaign iteration crossing the network. *)
let campaign_pool ~prng ~n ~t =
  Pool.create ~prng ~n ~t ~batch_size:8 ~refill_threshold ~initial_seed:4 ()

let backend_conv =
  let parse s =
    match Transport.backend_of_string s with
    | Ok b -> Ok b
    | Error e -> Error (`Msg e)
  in
  let print ppf b = Format.pp_print_string ppf (Transport.backend_name b) in
  Arg.conv (parse, print)

let transport_arg =
  let doc =
    "Transport backend: $(b,sim) (in-memory simulator, the default), \
     $(b,domains) (one OCaml domain per player, shared-memory mailboxes), or \
     $(b,socket) (one local process per player over length-prefixed frames). \
     Results are byte-identical across backends."
  in
  Arg.(
    value
    & opt backend_conv Transport.Sim
    & info [ "transport" ] ~docv:"BACKEND" ~doc)

let transport_timeout_arg =
  let doc =
    "Per-read receive timeout for the byte backends, in seconds. Takes \
     precedence over the $(b,DPRBG_TRANSPORT_TIMEOUT) environment variable \
     (default 60). Must be positive."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "transport-timeout" ] ~docv:"SECONDS" ~doc)

let apply_transport_timeout t =
  (try Transport.set_timeout_override t
   with Invalid_argument _ ->
     Printf.eprintf "error: --transport-timeout must be a positive number\n";
     exit 2);
  (* Force the effective timeout now: a malformed DPRBG_TRANSPORT_TIMEOUT
     is a configuration error and should die as one, up front, not as an
     uncaught exception from the middle of a session. *)
  match Transport.timeout () with
  | _ -> ()
  | exception Transport.Backend_failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

(* ------------------------------------------------------------------ *)

let coins_cmd =
  let count =
    Arg.(value & opt int 20 & info [ "count"; "c" ] ~docv:"N" ~doc:"Coins to draw.")
  in
  let bits =
    Arg.(value & flag & info [ "bits" ] ~doc:"Draw binary coins instead of k-ary ones.")
  in
  let run () seed t count bits transport timeout =
    apply_transport_timeout timeout;
    Transport.with_backend transport @@ fun () ->
    let n = n_for t in
    let pool = deployed_pool ~prng:(Prng.of_int seed) ~n ~t () in
    if bits then begin
      for _ = 1 to count do
        print_char (if Pool.draw_bit pool then '1' else '0')
      done;
      print_newline ()
    end
    else
      for i = 1 to count do
        Printf.printf "%4d  %s\n" i (F.to_string (Pool.draw_kary pool))
      done;
    let s = Pool.stats pool in
    Printf.printf
      "# n=%d t=%d | refills=%d generated=%d seed-consumed=%d dealer=%d\n" n t
      s.Pool.refills s.Pool.generated_coins s.Pool.seed_coins_consumed
      s.Pool.dealer_coins
  in
  let info =
    Cmd.info "coins" ~doc:"Draw shared coins from a bootstrapped D-PRBG pool."
  in
  Cmd.v info
    Term.(const run $ setup_logs $ seed_arg $ t_arg $ count $ bits
          $ transport_arg $ transport_timeout_arg)

(* ------------------------------------------------------------------ *)

let soundness_cmd =
  let trials =
    Arg.(value & opt int 20000 & info [ "trials" ] ~docv:"N" ~doc:"Attack trials.")
  in
  let k =
    Arg.(
      value & opt int 8
      & info [ "k" ] ~docv:"K" ~doc:"Field bits (small, so the rate is visible).")
  in
  let m =
    Arg.(value & opt int 4 & info [ "m" ] ~docv:"M" ~doc:"Batch size for Lemma 3/5.")
  in
  let run () seed t trials k m =
    if k < 3 || k > 16 then failwith "k must be in [3, 16] for rate experiments";
    let n = n_for t in
    let module Fk = Gf2k.Make (struct let k = k end) in
    let module Vk = Vss.Make (Fk) in
    let module BGk = Bit_gen.Make (Fk) in
    let g = Prng.of_int seed in
    let p = float_of_int (1 lsl k) in
    (* Lemma 1: targeted single-VSS cheat. *)
    let accepts = ref 0 in
    for _ = 1 to trials do
      let guess = Fk.random_nonzero g in
      let alpha, beta = Vk.targeted_cheating_dealing g ~n ~t ~guess in
      if Vk.run ~n ~t ~alpha ~beta ~r:(Fk.random g) () = Vk.Accept then
        incr accepts
    done;
    Printf.printf "Lemma 1 | measured %.5f  bound 1/p = %.5f\n"
      (float_of_int !accepts /. float_of_int trials)
      (1.0 /. p);
    (* Lemma 3: targeted batch cheat. *)
    let accepts = ref 0 in
    for _ = 1 to trials do
      let roots =
        Array.of_list
          (List.map (fun i -> Fk.of_int (i + 1))
             (Prng.sample_distinct g m ((1 lsl k) - 1)))
      in
      let shares = Vk.batch_targeted_cheating_dealing g ~n ~t ~roots in
      if Vk.run_batch ~n ~t ~shares ~r:(Fk.random g) () = Vk.Accept then
        incr accepts
    done;
    Printf.printf "Lemma 3 | measured %.5f  bound M/p = %.5f\n"
      (float_of_int !accepts /. float_of_int trials)
      (float_of_int m /. p);
    (* Lemma 5: Bit-Gen with a bad-degree dealing. *)
    let accepts = ref 0 in
    let bitgen_trials = min trials 2000 in
    for s = 1 to bitgen_trials do
      let prng = Prng.of_int (seed + s) in
      let r = Fk.random g in
      let views, _ =
        BGk.run ~dealer_behavior:(BGk.Bad_degree [ 0 ]) ~prng ~n ~t ~m ~dealer:0
          ~r ()
      in
      if Array.exists (fun v -> v.BGk.check_poly <> None) views then
        incr accepts
    done;
    Printf.printf "Lemma 5 | measured %.5f  bound M/p = %.5f  (%d trials)\n"
      (float_of_int !accepts /. float_of_int bitgen_trials)
      (float_of_int m /. p)
      bitgen_trials
  in
  let info =
    Cmd.info "soundness"
      ~doc:"Measure optimal cheating-dealer acceptance rates (Lemmas 1, 3, 5)."
  in
  Cmd.v info Term.(const run $ setup_logs $ seed_arg $ t_arg $ trials $ k $ m)

(* ------------------------------------------------------------------ *)

let costs_cmd =
  let m =
    Arg.(value & opt int 64 & info [ "m" ] ~docv:"M" ~doc:"Secrets/coins per batch.")
  in
  let run () seed t m =
    let n = n_for t in
    let g = Prng.of_int seed in
    let show label snap =
      Printf.printf "%-28s %s\n" label (Fmt.str "%a" Metrics.pp snap)
    in
    Printf.printf "n=%d t=%d m=%d field=%s (totals across all players)\n\n" n t
      m F.name;
    let _, c =
      Metrics.with_counting (fun () ->
          let alpha = V.honest_dealing g ~n ~t ~secret:(F.random g) in
          let beta = V.honest_dealing g ~n ~t ~secret:(F.random g) in
          ignore (V.run ~n ~t ~alpha ~beta ~r:(F.random g) ()))
    in
    show "VSS (Fig. 2, one secret)" c;
    let _, c =
      Metrics.with_counting (fun () ->
          let secrets = Array.init m (fun _ -> F.random g) in
          let shares = V.batch_honest_dealing g ~n ~t ~secrets in
          ignore (V.run_batch ~n ~t ~shares ~r:(F.random g) ()))
    in
    show (Printf.sprintf "Batch-VSS (Fig. 3, M=%d)" m) c;
    let _, c =
      Metrics.with_counting (fun () ->
          let prng = Prng.of_int (seed + 1) in
          ignore (BG.run ~prng ~n ~t ~m ~dealer:0 ~r:(F.random g) ()))
    in
    show (Printf.sprintf "Bit-Gen (Fig. 4, M=%d)" m) c;
    let _, c =
      Metrics.with_counting (fun () ->
          let prng = Prng.of_int (seed + 2) in
          let sg = Prng.split prng in
          let oracle () = Metrics.without_counting (fun () -> F.random sg) in
          ignore (CG.run ~prng ~oracle ~n ~t ~m ()))
    in
    show (Printf.sprintf "Coin-Gen (Fig. 5, M=%d)" m) c
  in
  let info =
    Cmd.info "costs" ~doc:"Cost vectors of the paper's protocols (Lemmas 2/4/6, Thm 2)."
  in
  Cmd.v info Term.(const run $ setup_logs $ seed_arg $ t_arg $ m)

(* ------------------------------------------------------------------ *)

let agreement_cmd =
  let rounds =
    Arg.(value & opt int 20 & info [ "rounds" ] ~docv:"N" ~doc:"Agreements to run.")
  in
  let run () seed t rounds transport =
    Transport.with_backend transport @@ fun () ->
    let n = n_for t in
    let g = Prng.of_int seed in
    let pool = deployed_pool ~prng:(Prng.split g) ~n ~t () in
    let ok = ref 0 in
    for i = 1 to rounds do
      let inputs = Array.init n (fun _ -> Prng.bool g) in
      match
        Common_coin_ba.run
          ~coin:(fun () -> Pool.draw_bit pool)
          ~n ~t ~max_phases:64 ~inputs ()
      with
      | None -> Printf.printf "round %d: no termination\n" i
      | Some r ->
          incr ok;
          Printf.printf "round %2d: decided %b in %d phase(s)\n" i
            r.Common_coin_ba.decisions.(0) r.Common_coin_ba.phases
    done;
    Printf.printf "# %d/%d agreements completed; pool stats: %s\n" !ok rounds
      (let s = Pool.stats pool in
       Printf.sprintf "exposed=%d refills=%d" s.Pool.coins_exposed s.Pool.refills)
  in
  let info =
    Cmd.info "agreement"
      ~doc:"Run randomized Byzantine agreements on pool-supplied common coins."
  in
  Cmd.v info
    Term.(const run $ setup_logs $ seed_arg $ t_arg $ rounds $ transport_arg)

(* ------------------------------------------------------------------ *)

let pool_cmd =
  let state_file =
    Arg.(
      value
      & opt string "dprbg-pool.state"
      & info [ "file"; "f" ] ~docv:"PATH" ~doc:"Pool state file.")
  in
  let draws =
    Arg.(value & opt int 10 & info [ "draws" ] ~docv:"N" ~doc:"Coins to draw.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ] ~doc:"Ignore any existing state file and bootstrap anew.")
  in
  let suspects =
    Arg.(
      value & flag
      & info [ "suspects" ]
          ~doc:
            "Print the sentinel ledger's per-player suspicion/quarantine \
             table after drawing.")
  in
  let quarantine =
    Arg.(
      value
      & opt (some int) None
      & info [ "quarantine" ] ~docv:"SCORE"
          ~doc:
            "Run an active sentinel ledger: players whose suspicion score \
             reaches $(docv) are quarantined out of subset selection and \
             leader rotation. Without this flag the ledger is passive \
             (evidence is recorded but never acted on).")
  in
  let run () seed t state_file draws fresh suspects quarantine transport
      timeout =
    apply_transport_timeout timeout;
    Transport.with_backend transport @@ fun () ->
    let n = n_for t in
    let sentinel =
      match quarantine with
      | None -> Some Sentinel.passive
      | Some threshold -> Some (Sentinel.active ~threshold ())
    in
    let pool =
      if (not fresh) && Sys.file_exists state_file then begin
        match
          load_deployed_pool ~sentinel ~prng:(Prng.of_int seed)
            (Bytes.of_string (read_file state_file))
        with
        | pool ->
            Printf.printf "# restored pool from %s\n" state_file;
            pool
        | exception Pool.Corrupt_snapshot msg ->
            Printf.eprintf
              "error: %s is not an intact pool snapshot (%s)\n\
               Refusing to serve coins from damaged state; rerun with \
               --fresh to bootstrap anew (uses the trusted dealer once).\n"
              state_file msg;
            exit 1
      end
      else begin
        Printf.printf "# bootstrapping a fresh pool (trusted dealer used once)\n";
        deployed_pool ~sentinel ~prng:(Prng.of_int seed) ~n ~t ()
      end
    in
    let print_suspect_table () =
      match Pool.ledger pool with
      | Some ledger -> Fmt.pr "%a" Sentinel.Ledger.pp_table ledger
      | None -> Printf.printf "# no sentinel ledger configured\n"
    in
    let save_state () =
      (* Atomic (temp + rename): a crash mid-save never clobbers the
         previous good snapshot. *)
      Beacon_journal.write_file_atomic state_file (Pool.save pool)
    in
    (try
       for i = 1 to draws do
         Printf.printf "%4d  %s\n" i (F.to_string (Pool.draw_kary pool))
       done
     with
    | Pool.Safe_mode msg ->
        (* The evidence implies more than t corrupted players: the fault
           assumption under reconstruction is void. Persist the ledger so
           the operator can inspect it, then refuse with a dedicated
           exit code. *)
        save_state ();
        Printf.eprintf
          "error: safe mode — refusing to vend possibly-biased coins.\n%s\n"
          msg;
        exit 5
    | Pool.Starved msg ->
        (* The refill retry budget ran dry. The message carries the
           attribution an operator needs (refill_attempts, backoff_rounds,
           coins left); persist what survived so a later run resumes. *)
        save_state ();
        if suspects then print_suspect_table ();
        Printf.eprintf "error: pool starved — %s\n" msg;
        exit 1);
    save_state ();
    let s = Pool.stats pool in
    Printf.printf
      "# saved %d sealed coins to %s | lifetime: exposed=%d refills=%d \
       refill_attempts=%d backoff_rounds=%d dealer=%d\n"
      (Pool.available pool) state_file s.Pool.coins_exposed s.Pool.refills
      s.Pool.refill_attempts s.Pool.backoff_rounds s.Pool.dealer_coins;
    if suspects then print_suspect_table ()
  in
  let info =
    Cmd.info "pool"
      ~doc:
        "Draw coins from a persistent pool: state survives restarts, the \
         trusted dealer is only ever used at first bootstrap."
  in
  Cmd.v info
    Term.(
      const run $ setup_logs $ seed_arg $ t_arg $ state_file $ draws $ fresh
      $ suspects $ quarantine $ transport_arg $ transport_timeout_arg)

(* ------------------------------------------------------------------ *)

(* Counterexample artifacts: the replay line (plus provenance comments —
   replayers only read the first line) and a full JSONL trace of the
   shrunk scenario, re-run under a collector. CI uploads the directory
   from the nightly soak so a red run ships its own reproduction kit. *)
let dump_artifacts dir ~label ~replay_line ~comments ~scenario =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let base = Filename.concat dir label in
  let oc = open_out (base ^ ".replay") in
  Printf.fprintf oc "%s\n" replay_line;
  List.iter (fun c -> Printf.fprintf oc "# %s\n" c) comments;
  close_out oc;
  let _, trace = Trace.try_collect scenario in
  Trace.write_jsonl (base ^ ".trace.jsonl") trace;
  Printf.printf "# artifacts: %s.replay %s.trace.jsonl\n" base base

let dump_failure_artifacts dir (f : Fuzz.failure) =
  dump_artifacts dir
    ~label:(Printf.sprintf "counterexample-%d" f.Fuzz.trial)
    ~replay_line:(Fuzz_config.to_string f.Fuzz.shrunk)
    ~comments:
      [
        "message: " ^ f.Fuzz.message;
        "original: " ^ Fuzz_config.to_string f.Fuzz.original;
        "original message: " ^ f.Fuzz.original_message;
        Printf.sprintf "shrink steps: %d, failing trial: %d" f.Fuzz.shrink_steps
          f.Fuzz.trial;
      ]
    ~scenario:(fun () -> Fuzz.run_config f.Fuzz.shrunk)

let fuzz_cmd =
  let trials =
    Arg.(
      value & opt int 2000
      & info [ "trials" ] ~docv:"N" ~doc:"Random scenarios to run (soak knob).")
  in
  let property =
    let names = String.concat ", " (List.map (fun s -> s.Fuzz.name) Fuzz.registry) in
    Arg.(
      value
      & opt (some string) None
      & info [ "property"; "p" ] ~docv:"NAME"
          ~doc:(Printf.sprintf "Fuzz only one invariant. One of: %s." names))
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"LINE"
          ~doc:
            "Re-run one scenario from a counterexample line (as printed on \
             failure) instead of fuzzing.")
  in
  let self_check =
    Arg.(
      value & flag
      & info [ "self-check" ]
          ~doc:
            "Inject each known bug and verify the fuzzer finds, shrinks and \
             replays it — tests the harness itself.")
  in
  let faults_profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PROFILE"
          ~doc:
            "Degrade the network for every generated trial: comma-separated \
             axes $(b,drop)/$(b,delay)/$(b,dup)/$(b,corrupt)/$(b,reorder) \
             (percent, 0-100), $(b,crash) (players) and $(b,rt) (retransmit \
             budget, 0-8), e.g. $(b,drop=20,delay=10,crash=1,rt=2). Values \
             are floors, clamped per property to what its invariant \
             tolerates; properties that require a pristine network are \
             unaffected.")
  in
  let artifacts =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "On failure, write the counterexample replay line and a full \
             JSONL trace of the shrunk scenario into $(docv) (created if \
             missing) — what CI uploads from the nightly soak.")
  in
  let run () seed trials property replay self_check faults_profile artifacts =
    let degrade =
      match faults_profile with
      | None -> None
      | Some s -> (
          match Fuzz_config.degrade_of_string s with
          | Ok d -> Some d
          | Error e ->
              Printf.eprintf "cannot parse --faults profile: %s\n" e;
              exit 2)
    in
    match replay with
    | Some line -> (
        match Fuzz_config.of_string line with
        | Error e ->
            Printf.eprintf "cannot parse replay line: %s\n" e;
            exit 2
        | Ok cfg -> (
            match Fuzz.run_config cfg with
            | Ok () ->
                Printf.printf "PASS %s\n" (Fuzz_config.to_string cfg)
            | Error msg ->
                Printf.printf "FAIL %s\n     %s\n" (Fuzz_config.to_string cfg)
                  msg;
                Option.iter
                  (fun dir ->
                    dump_artifacts dir ~label:"replay-failure"
                      ~replay_line:(Fuzz_config.to_string cfg)
                      ~comments:[ "message: " ^ msg ]
                      ~scenario:(fun () -> Fuzz.run_config cfg))
                  artifacts;
                exit 1))
    | None ->
        if self_check then begin
          let failed = ref false in
          List.iter
            (fun bug ->
              let name = Fuzz_config.bug_name bug in
              match Fuzz.self_check ~seed bug with
              | Ok f ->
                  Format.printf
                    "self-check %s: found at trial %d, shrunk in %d step(s)@.  \
                     %s@."
                    name f.Fuzz.trial f.Fuzz.shrink_steps
                    (Fuzz_config.to_string f.Fuzz.shrunk)
              | Error e ->
                  failed := true;
                  Format.printf "self-check %s: FAILED — %s@." name e)
            [ Fuzz_config.Accept_high_degree; Fuzz_config.Drop_gamma;
              Fuzz_config.Lagrange_expose; Fuzz_config.No_retransmit ];
          if !failed then exit 1
        end
        else begin
          (match property with
          | Some name when Fuzz.find_spec name = None ->
              Printf.eprintf "unknown property %S; known: %s\n" name
                (String.concat ", "
                   (List.map (fun s -> s.Fuzz.name) Fuzz.registry));
              exit 2
          | _ -> ());
          let report = Fuzz.campaign ?degrade ?property ~trials ~seed () in
          Format.printf "%a@." Fuzz.pp_report report;
          match report.Fuzz.failure with
          | None -> ()
          | Some f ->
              Option.iter (fun dir -> dump_failure_artifacts dir f) artifacts;
              exit 1
        end
  in
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Fuzz the protocol stack against random Byzantine schedules; shrink \
         and print a replayable counterexample on any invariant violation."
  in
  Cmd.v info
    Term.(
      const run $ setup_logs $ seed_arg $ trials $ property $ replay
      $ self_check $ faults_profile $ artifacts)

(* ------------------------------------------------------------------ *)

let trace_cmd =
  let draws =
    Arg.(
      value & opt int 3
      & info [ "draws" ] ~docv:"N"
          ~doc:"Pool draws to trace in the default scenario.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"LINE"
          ~doc:
            "Trace one fuzz scenario from its counterexample line instead of \
             the pool scenario — the full trace of a failing trial.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the JSONL trace here ($(b,-) = stdout).")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Render the per-player round timeline (and span tree) instead of \
             JSONL on stdout; with --out FILE, both are produced.")
  in
  let run () seed t draws replay out timeline transport =
    Transport.with_backend transport @@ fun () ->
    let status, trace, failed =
      match replay with
      | Some line -> (
          match Fuzz_config.of_string line with
          | Error e ->
              Printf.eprintf "cannot parse replay line: %s\n" e;
              exit 2
          | Ok cfg -> (
              let result, trace =
                Trace.try_collect (fun () -> Fuzz.run_config cfg)
              in
              match result with
              | Ok (Ok ()) -> ("PASS " ^ Fuzz_config.to_string cfg, trace, false)
              | Ok (Error msg) ->
                  ( Printf.sprintf "FAIL %s: %s" (Fuzz_config.to_string cfg) msg,
                    trace, true )
              | Error e ->
                  ( Printf.sprintf "RAISED %s: %s" (Fuzz_config.to_string cfg)
                      (Printexc.to_string e),
                    trace, true )))
      | None ->
          let n = n_for t in
          let (), trace =
            Trace.collect (fun () ->
                let pool = deployed_pool ~prng:(Prng.of_int seed) ~n ~t () in
                for _ = 1 to draws do
                  ignore (Pool.draw_kary pool)
                done)
          in
          ( Printf.sprintf "traced %d pool draw(s) at n=%d t=%d" draws n t,
            trace, false )
    in
    (match out with
    | "-" ->
        if timeline then begin
          Format.printf "%a" Trace.pp trace;
          Format.printf "%a" Trace.pp_timeline trace
        end
        else Format.printf "%a" Trace.pp_jsonl trace
    | path ->
        Trace.write_jsonl path trace;
        Printf.printf "# wrote %s\n" path;
        if timeline then begin
          Format.printf "%a" Trace.pp trace;
          Format.printf "%a" Trace.pp_timeline trace
        end);
    Printf.printf "# %s\n" status;
    if failed then exit 1
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Record a structured protocol trace — nested protocol/phase/round \
         spans with per-span cost deltas and send/recv/verdict events — as \
         JSONL or a per-player round timeline."
  in
  Cmd.v info
    Term.(const run $ setup_logs $ seed_arg $ t_arg $ draws $ replay $ out
          $ timeline $ transport_arg)

(* ------------------------------------------------------------------ *)

(* Differential soak: run the same seeded pool campaign on the sim
   oracle and on one byte-level backend, compare the full transcripts
   (draws, pool stats, metrics, fault tally), repeat over consecutive
   seeds. This is the nightly flake guard for nondeterministic
   interleavings: one invocation per backend, 50 iterations each, with
   every mismatch printed as a ready-to-paste replay line. *)
let transport_cmd =
  let backend =
    let doc =
      "Backend under test: $(b,domains) or $(b,socket) (compared against the \
       in-process sim oracle)."
    in
    Arg.(
      required
      & opt (some backend_conv) None
      & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let iters =
    Arg.(
      value & opt int 1
      & info [ "iters" ] ~docv:"N"
          ~doc:"Iterations; iteration $(i,k) uses seed SEED+$(i,k).")
  in
  let draws =
    Arg.(value & opt int 5 & info [ "draws" ] ~docv:"N" ~doc:"Pool draws per iteration.")
  in
  let faulty =
    Arg.(
      value & flag
      & info [ "faulty" ]
          ~doc:"Run each campaign under a degraded Net.Plan schedule.")
  in
  let run () seed t iters draws faulty backend timeout =
    apply_transport_timeout timeout;
    if backend = Transport.Sim then begin
      Printf.eprintf "error: --backend must be domains or socket\n";
      exit 2
    end;
    let n = n_for t in
    let campaign ~seed () =
      let buf = Buffer.create 512 in
      let body () =
        let pool = campaign_pool ~prng:(Prng.of_int seed) ~n ~t in
        (match List.init draws (fun _ -> Pool.draw_kary pool) with
        | values ->
            List.iteri
              (fun k v ->
                Buffer.add_string buf
                  (Printf.sprintf "draw%d:%s\n" k (F.to_string v)))
              values
        | exception Pool.Starved why ->
            Buffer.add_string buf (Printf.sprintf "starved:%s\n" why));
        let s = Pool.stats pool in
        Buffer.add_string buf
          (Printf.sprintf "stats:refills=%d generated=%d exposed=%d ba=%d\n"
             s.Pool.refills s.Pool.generated_coins s.Pool.coins_exposed
             s.Pool.ba_iterations)
      in
      let run_body () =
        if not faulty then body ()
        else begin
          let plan =
            Transport.Plan.make ~drop:0.05 ~delay:0.05 ~max_delay:2
              ~reorder:0.1 ~retransmits:2 ~seed:((seed * 13) + 5) ()
          in
          Transport.with_plan plan body;
          Buffer.add_string buf
            (Fmt.str "plan:%a\n" Transport.Plan.pp_stats
               (Transport.Plan.stats plan))
        end
      in
      let (), metrics = Metrics.with_counting run_body in
      Buffer.add_string buf (Fmt.str "metrics:%a\n" Metrics.pp metrics);
      Buffer.contents buf
    in
    ignore (campaign ~seed ()) (* warm lazy field tables once *);
    let failures = ref 0 in
    for k = 0 to iters - 1 do
      let s = seed + k in
      let c = campaign ~seed:s in
      let oracle = c () in
      let got = Transport.with_backend backend c in
      if String.equal oracle got then
        Printf.printf "iter %3d seed=%d OK\n%!" k s
      else begin
        incr failures;
        Printf.printf "iter %3d seed=%d MISMATCH\n%!" k s;
        Printf.printf
          "replay: dprbg transport --backend %s --seed %d --t %d --draws %d%s \
           --iters 1\n\
           %!"
          (Transport.backend_name backend)
          s t draws
          (if faulty then " --faulty" else "")
      end
    done;
    Printf.printf "# %d/%d iterations matched the sim oracle on %s\n"
      (iters - !failures) iters
      (Transport.backend_name backend);
    if !failures > 0 then exit 1
  in
  let info =
    Cmd.info "transport"
      ~doc:
        "Differential transport soak: run seeded pool campaigns on a \
         domains/socket backend and compare full transcripts against the \
         in-process sim oracle, printing a replay line for every mismatch."
  in
  Cmd.v info
    Term.(
      const run $ setup_logs $ seed_arg $ t_arg $ iters $ draws $ faulty
      $ backend $ transport_timeout_arg)

(* ------------------------------------------------------------------ *)

(* Chaos soak: inflict seeded *real* failures — SIGKILLed player
   processes, stalled peers, garbled streams — on a supervised byte
   backend and check the run against the sim oracle with the equivalent
   simulated crash schedule. Within the fault bound the transcripts must
   match (exactly for kills/stalls; truncation additionally accrues
   Undecodable evidence the simulator cannot produce, so only the draws
   are compared); past the bound the run must refuse in Safe_mode (exit
   6) rather than hang or crash. *)
let chaos_cmd =
  let kills =
    Arg.(value & opt int 1 & info [ "kill" ] ~docv:"N" ~doc:"Peers to SIGKILL.")
  in
  let stalls =
    Arg.(
      value & opt int 0
      & info [ "stall" ] ~docv:"N"
          ~doc:
            "Peers to wedge for $(b,--stall-duration) seconds (under the \
             retry budget the read deadline machinery recovers them; over \
             it they are declared dead).")
  in
  let truncates =
    Arg.(
      value & opt int 0
      & info [ "truncate" ] ~docv:"N"
          ~doc:
            "Peers whose stream gets undecodable bytes injected mid-run \
             (attributed as Undecodable evidence).")
  in
  let stall_duration =
    Arg.(
      value & opt float 0.4
      & info [ "stall-duration" ] ~docv:"SECONDS"
          ~doc:"How long a stalled peer stays wedged.")
  in
  let deadline =
    Arg.(
      value & opt float 0.25
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-attempt supervised read deadline (2 retries, 2x backoff).")
  in
  let iters =
    Arg.(
      value & opt int 1
      & info [ "iters" ] ~docv:"N"
          ~doc:"Iterations; iteration $(i,k) uses seed SEED+$(i,k).")
  in
  let draws =
    Arg.(value & opt int 3 & info [ "draws" ] ~docv:"N" ~doc:"Pool draws per iteration.")
  in
  let run () seed t kills stalls truncates stall_duration deadline iters draws
      backend timeout =
    apply_transport_timeout timeout;
    if backend = Transport.Sim then begin
      Printf.eprintf "error: --transport must be domains or socket\n";
      exit 2
    end;
    if kills + stalls + truncates = 0 then begin
      Printf.eprintf "error: schedule at least one fault (--kill/--stall/--truncate)\n";
      exit 2
    end;
    let n = n_for t in
    if kills + stalls + truncates > n then begin
      Printf.eprintf "error: more victims than players (n=%d)\n" n;
      exit 2
    end;
    let retries = 2 and backoff = 2.0 in
    let cfg =
      Transport.Supervisor.make ~deadline ~retries ~backoff ~fault_bound:t ()
    in
    let budget = Transport.Supervisor.total_budget cfg in
    (* A run's transcript: the drawn coins, the sentinel evidence rows,
       the fault tally and the cost vector — everything the equivalence
       contract covers. [crashes] is the plan's static schedule (the sim
       oracle's stand-in for the real failures); [real] runs the chaos
       schedule under supervision instead. *)
    let transcript ~s ~events ~crashes ~real () =
      let buf = Buffer.create 512 in
      let plan = Transport.Plan.make ~crashes ~seed:((s * 17) + 3) () in
      let body () =
        let pool = campaign_pool ~prng:(Prng.of_int s) ~n ~t in
        (match List.init draws (fun _ -> Pool.draw_kary pool) with
        | values ->
            List.iteri
              (fun k v ->
                Buffer.add_string buf
                  (Printf.sprintf "draw%d:%s\n" k (F.to_string v)))
              values
        | exception Pool.Starved why ->
            Buffer.add_string buf (Printf.sprintf "starved:%s\n" why));
        match Pool.ledger pool with
        | None -> ()
        | Some ledger ->
            Array.iteri
              (fun p row ->
                if Array.exists (fun c -> c > 0) row then
                  Buffer.add_string buf
                    (Printf.sprintf "evidence:p%d:%s\n" p
                       (String.concat ","
                          (List.map string_of_int (Array.to_list row)))))
              (Sentinel.Ledger.dump ledger)
      in
      let safe = ref None in
      (let (), metrics =
         Metrics.with_counting (fun () ->
             try
               if real then
                 Transport.with_chaos events (fun () ->
                     Transport.with_supervision ~deadline ~retries ~backoff
                       ~fault_bound:t (fun () ->
                         Transport.with_plan plan body))
               else Transport.with_plan plan body
             with
             | Transport.Safe_mode msg -> safe := Some ("transport: " ^ msg)
             | Pool.Safe_mode msg -> safe := Some ("pool: " ^ msg))
       in
       Buffer.add_string buf
         (Fmt.str "plan:%a\n" Transport.Plan.pp_stats
            (Transport.Plan.stats plan));
       Buffer.add_string buf (Fmt.str "metrics:%a\n" Metrics.pp metrics));
      (Buffer.contents buf, !safe)
    in
    let is_evidence l = String.length l >= 9 && String.sub l 0 9 = "evidence:" in
    let non_evidence_lines transcript =
      List.filter
        (fun l -> not (is_evidence l))
        (String.split_on_char '\n' transcript)
    in
    (* An Undecodable count (last column, [Sentinel.all_kinds] order) on
       some player's evidence row — what a truncation must leave behind. *)
    let has_undecodable transcript =
      List.exists
        (fun l ->
          is_evidence l
          &&
          match String.rindex_opt l ',' with
          | Some i -> String.sub l (i + 1) (String.length l - i - 1) <> "0"
          | None -> false)
        (String.split_on_char '\n' transcript)
    in
    (* Warm lazy field tables so they don't skew the first comparison. *)
    ignore
      (transcript ~s:seed ~events:[] ~crashes:[] ~real:false ());
    let failures = ref 0 and safe_modes = ref 0 in
    for k = 0 to iters - 1 do
      let s = seed + k in
      let events =
        Transport.Chaos.schedule ~seed:s ~n ~kills ~stalls ~truncates
          ~stall_duration ~first_round:2 ~last_round:5 ()
      in
      let sim = Transport.Chaos.sim_crashes ~budget events in
      (* Every kill, permanent stall and truncation is one distinct real
         fault; recovered stalls cost nothing. *)
      let fatal = List.length sim in
      List.iter
        (fun e -> Format.printf "  %a@." Transport.Chaos.pp_event e)
        events;
      (* Warm the shared memo tables (subset weights etc.) on the exact
         crash configuration under test, so neither compared run pays
         cold-cache field ops the other inherits. *)
      if fatal <= t then
        ignore (transcript ~s ~events:[] ~crashes:sim ~real:false ());
      let real, real_safe =
        Transport.with_backend backend (fun () ->
            transcript ~s ~events ~crashes:[] ~real:true ())
      in
      if fatal > t then begin
        match real_safe with
        | Some why ->
            incr safe_modes;
            Printf.printf "iter %3d seed=%d SAFE-MODE as expected (%s)\n%!" k s
              why
        | None ->
            incr failures;
            Printf.printf
              "iter %3d seed=%d FAILED: %d real faults > t=%d but no safe \
               mode\n\
               %!"
              k s fatal t
      end
      else begin
        let oracle, oracle_safe =
          transcript ~s ~events:[] ~crashes:sim ~real:false ()
        in
        let ok =
          oracle_safe = None && real_safe = None
          &&
          if truncates = 0 then String.equal oracle real
          else
            (* Truncation: the coin stream and tallies must match the
               crash-equivalent oracle, and the mangled stream must have
               been attributed as Undecodable — evidence the simulator
               cannot produce, hence excluded from the equality. *)
            non_evidence_lines oracle = non_evidence_lines real
            && has_undecodable real
        in
        if ok then Printf.printf "iter %3d seed=%d OK\n%!" k s
        else begin
          incr failures;
          Printf.printf "iter %3d seed=%d MISMATCH\n" k s;
          Printf.printf "--- sim oracle (crashes at the same rounds)\n%s" oracle;
          Printf.printf "--- %s under chaos\n%s%!"
            (Transport.backend_name backend)
            real;
          Printf.printf
            "replay: dprbg chaos --transport %s --seed %d --t %d --kill %d \
             --stall %d --truncate %d --iters 1\n\
             %!"
            (Transport.backend_name backend)
            s t kills stalls truncates
        end
      end
    done;
    Printf.printf "# %d/%d chaos iterations behaved per contract on %s\n"
      (iters - !failures) iters
      (Transport.backend_name backend);
    if !failures > 0 then exit 1;
    if !safe_modes > 0 then exit 6
  in
  let info =
    Cmd.info "chaos"
      ~doc:
        "Inflict real peer failures (SIGKILL, stalls, truncated frames) on a \
         supervised byte backend and verify crash-tolerant coin runs against \
         the sim oracle; exits 6 when the fault bound is exceeded and safe \
         mode engages."
  in
  Cmd.v info
    Term.(
      const run $ setup_logs $ seed_arg $ t_arg $ kills $ stalls $ truncates
      $ stall_duration $ deadline $ iters $ draws $ transport_arg
      $ transport_timeout_arg)

(* ------------------------------------------------------------------ *)

(* Beacon plumbing shared by `beacon`, `recover` and `loadgen`. Exit
   code 7 is chain-verification failure: the transcript (or the beacon's
   own emitted chain) does not recompute — a red flag CI must not
   swallow. *)

let beacon_sentinel = Some Sentinel.passive

let beacon_pool ~seed ~t =
  deployed_pool ~sentinel:beacon_sentinel ~prng:(Prng.of_int seed)
    ~n:(n_for t) ~t ()

(* Up-front flag check: a bad --nbits exits 2 before any state file is
   read, replaced or removed. *)
let check_nbits = function
  | Some k when k < 1 ->
      Printf.eprintf "error: --nbits must be >= 1\n";
      exit 2
  | _ -> ()

let verify_or_exit ~key ~failure epochs =
  match B.verify_chain ~key epochs with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" failure msg;
      exit 7

(* A failed epoch close exits 5 when the beacon has halted (it refuses
   to vend possibly-biased randomness; [halted] prefixes the reason),
   1 otherwise. *)
let close_failed ~halted b msg =
  match B.state b with
  | B.Halted _ ->
      Printf.eprintf "error: %s%s\n" halted msg;
      exit 5
  | _ ->
      Printf.eprintf "error: epoch close failed — %s\n" msg;
      exit 1

(* Restore the beacon snapshot at [path], or start a new chain from the
   genesis head when there is none (or [fresh]). The caller reports:
   [restored] on success, [corrupt] before exit 1 on a damaged snapshot,
   [genesis] before starting anew. *)
let load_or_genesis ~fresh ~expect_head ~key ~seed ~t ~restored ~corrupt
    ~genesis path =
  if (not fresh) && Sys.file_exists path then (
    match
      B.load ~key ?expect_head ~sentinel:beacon_sentinel
        ~prng:(Prng.of_int seed) ~batch_size ~refill_threshold
        (Bytes.of_string (read_file path))
    with
    | b ->
        restored b;
        b
    | exception B.Corrupt_snapshot msg ->
        corrupt msg;
        exit 1)
  else begin
    genesis ();
    B.create ~key ~pool:(beacon_pool ~seed ~t) ()
  end

let attach_or_exit ~hint ~journal ~snapshot b =
  match B.Durable.attach ~journal ~snapshot b with
  | r -> r
  | exception Beacon_journal.Corrupt_journal msg ->
      Printf.eprintf "error: journal is damaged beyond the torn tail: %s\n%s\n"
        msg hint;
      exit 1

let verify_transcript ~key path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let epochs =
    List.mapi
      (fun i line ->
        match B.epoch_of_json line with
        | Ok e -> e
        | Error msg ->
            Printf.eprintf "error: %s:%d: %s\n" path (i + 1) msg;
            exit 7)
      lines
  in
  verify_or_exit ~key ~failure:"chain verification failed" epochs;
  Printf.printf "# verified %d epoch(s)%s\n" (List.length epochs)
    (match List.rev epochs with
    | last :: _ -> " | head " ^ Beacon_hash.to_hex last.B.digest
    | [] -> "")

let beacon_key_arg =
  let doc = "MAC key for epoch records (verification needs the same key)." in
  Arg.(value & opt string "dprbg-beacon" & info [ "key" ] ~docv:"KEY" ~doc)

let beacon_cmd =
  let state_file =
    Arg.(
      value
      & opt string "dprbg-beacon.state"
      & info [ "file"; "f" ] ~docv:"PATH" ~doc:"Beacon state file.")
  in
  let epochs =
    Arg.(value & opt int 10 & info [ "epochs" ] ~docv:"N" ~doc:"Epochs to serve.")
  in
  let requests =
    Arg.(
      value & opt int 8
      & info [ "requests" ] ~docv:"N"
          ~doc:"Synthetic consumer requests admitted per epoch.")
  in
  let nbits =
    Arg.(
      value
      & opt (some int) None
      & info [ "nbits" ] ~docv:"BITS"
          ~doc:"Derived bits per request (default: the field width).")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ] ~doc:"Ignore any existing state file and start anew.")
  in
  let status =
    Arg.(
      value & flag
      & info [ "status" ]
          ~doc:
            "Print the restored beacon's state (chain position, lifetime \
             counters, pool level) and exit without serving.")
  in
  let transcript =
    Arg.(
      value
      & opt (some string) None
      & info [ "transcript" ] ~docv:"PATH"
          ~doc:"Append one JSONL epoch record per close to $(docv).")
  in
  let verify =
    Arg.(
      value
      & opt (some string) None
      & info [ "verify" ] ~docv:"PATH"
          ~doc:
            "Verify a transcript's hash chain and MACs instead of serving; \
             exits 7 on any verification failure.")
  in
  let expect_head =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-head" ] ~docv:"HEX"
          ~doc:
            "Refuse to restore a snapshot whose chain head differs from \
             $(docv) (32 hex chars, e.g. the digest of the last transcript \
             line).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Durable mode: write-ahead journal every epoch to $(docv) \
             (fsynced before any vend is acknowledged) and recover \
             snapshot + journal on start, truncating a torn tail.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "In durable mode, rotate an atomic snapshot (and truncate the \
             journal) every $(docv) epoch closes; 0 (default) snapshots \
             only at exit.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the durable serve loop in a supervised child process: a \
             crashed child is restarted (recovering from snapshot + \
             journal) with exponential backoff under the --restarts \
             budget. $(b,--epochs) becomes the absolute target chain \
             length. Implies --journal.")
  in
  let restarts =
    Arg.(
      value & opt int 16
      & info [ "restarts" ] ~docv:"N"
          ~doc:"Supervised restart budget (crashes beyond it are fatal).")
  in
  let chaos_kills =
    Arg.(
      value & opt int 0
      & info [ "chaos-kills" ] ~docv:"N"
          ~doc:
            "Chaos schedule for the supervised soak: the serving child \
             SIGKILLs itself right after closing $(docv) seeded epochs \
             (each fires once; recovery resumes past it).")
  in
  let run () seed t state_file epochs requests nbits fresh status transcript
      verify expect_head key journal snapshot_every supervise restarts
      chaos_kills timeout =
    apply_transport_timeout timeout;
    match verify with
    | Some path -> verify_transcript ~key path
    | None -> (
        let expect_head =
          Option.map
            (fun h ->
              match Beacon_hash.of_hex h with
              | Ok d -> d
              | Error msg ->
                  Printf.eprintf "error: --expect-head: %s\n" msg;
                  exit 2)
            expect_head
        in
        if supervise && journal = None then begin
          Printf.eprintf "error: --supervise requires --journal PATH\n";
          exit 2
        end;
        if chaos_kills > 0 && not supervise then begin
          Printf.eprintf "error: --chaos-kills requires --supervise\n";
          exit 2
        end;
        if restarts < 0 || snapshot_every < 0 || chaos_kills > epochs then begin
          Printf.eprintf
            "error: --restarts/--snapshot-every must be >= 0 and \
             --chaos-kills <= --epochs\n";
          exit 2
        end;
        check_nbits nbits;
        let restore_or_create ~fresh () =
          load_or_genesis ~fresh ~expect_head ~key ~seed ~t state_file
            ~restored:(fun b ->
              Printf.printf "# restored beacon from %s (next epoch %d)\n"
                state_file (B.next_seq b))
            ~corrupt:(fun msg ->
              Printf.eprintf
                "error: %s is not a restorable beacon snapshot (%s)\n\
                 Refusing to emit epochs from damaged or mismatched state; \
                 rerun with --fresh to start a new chain.\n"
                state_file msg)
            ~genesis:(fun () ->
              (* --fresh must not inherit a stale journal: replaying
                 another chain's records onto a new chain is exactly the
                 mismatch recovery exists to reject. Without --fresh a
                 journal with no snapshot is NOT stale — it is the
                 journal-only recovery case (crash before the first
                 snapshot) and Durable.attach replays it from epoch 0. *)
              if fresh then
                List.iter
                  (fun p ->
                    match p with
                    | Some p when Sys.file_exists p -> Sys.remove p
                    | _ -> ())
                  [
                    journal;
                    Option.map (fun j -> j ^ ".tmp") journal;
                    Some state_file;
                    Some (state_file ^ ".tmp");
                  ];
              Printf.printf "# starting from the genesis head\n")
        in
        let print_status b =
          let s = B.stats b in
          Printf.printf
            "# state=%s | next epoch %d | head %s\n\
             # lifetime: epochs=%d vended=%d shed: queue_full=%d \
             pool_pressure=%d halted=%d | pool: %d sealed coin(s)\n"
            (B.state_label (B.state b))
            (B.next_seq b)
            (Beacon_hash.to_hex (B.head b))
            s.B.epochs s.B.vended s.B.shed_queue_full s.B.shed_pool_pressure
            s.B.shed_halted
            (Pool.available (B.pool b))
        in
        let kill_epochs =
          if chaos_kills > 0 then
            Transport.Chaos.serve_kill_epochs ~seed ~kills:chaos_kills ~epochs
          else []
        in
        (* One serving incarnation: restore, recover the journal (if
           any), serve to the target, snapshot, exit. Runs in-process,
           or as the forked child under --supervise. *)
        let serve_once ~fresh () =
          let b = restore_or_create ~fresh () in
          let durable =
            Option.map
              (fun jpath ->
                let d, rs =
                  attach_or_exit ~journal:jpath ~snapshot:state_file b
                    ~hint:
                      (Printf.sprintf
                         "Run `dprbg recover --journal %s` to inspect, or \
                          restore from a trusted snapshot and transcript."
                         jpath)
                in
                if rs.B.Durable.torn_bytes > 0 then
                  Printf.printf "# dropped a torn journal tail (%d byte(s))\n"
                    rs.B.Durable.torn_bytes;
                if rs.B.Durable.replayed <> [] then
                  Printf.printf
                    "# replayed %d journaled epoch(s): recovered to epoch %d\n"
                    (List.length rs.B.Durable.replayed)
                    (B.next_seq b);
                d)
              journal
          in
          (* Snapshot-only mode writes the snapshot atomically itself;
             durable mode journals every close and rotates snapshots. *)
          let request, close_epoch, save, release =
            match durable with
            | None ->
                ( (fun () -> B.request b ?nbits ~callback:ignore ()),
                  (fun () -> B.close_epoch b),
                  (fun () ->
                    Beacon_journal.write_file_atomic state_file (B.save b)),
                  ignore )
            | Some d ->
                ( (fun () -> B.Durable.request d ?nbits ~callback:ignore ()),
                  (fun () -> B.Durable.close_epoch d),
                  (fun () -> B.Durable.snapshot d),
                  fun () -> B.Durable.close d )
          in
          if status then begin
            release ();
            print_status b
          end
          else begin
            let tr_oc =
              Option.map
                (fun p -> open_out_gen [ Open_append; Open_creat ] 0o644 p)
                transcript
            in
            let target =
              if supervise then max epochs (B.next_seq b)
              else B.next_seq b + epochs
            in
            while B.next_seq b < target do
              for _ = 1 to requests do
                match request () with
                | Ok _ -> ()
                | Error r ->
                    Printf.printf "# shed request: %s\n" (B.reject_name r)
              done;
              (match close_epoch () with
              | Ok e ->
                  Printf.printf "epoch %4d  vended=%d shed=%d flags=%s  %s\n"
                    e.B.seq e.B.vended e.B.shed e.B.flags
                    (Beacon_hash.to_hex e.B.digest);
                  Option.iter
                    (fun oc ->
                      output_string oc (B.epoch_to_json e ^ "\n");
                      flush oc)
                    tr_oc;
                  if List.mem e.B.seq kill_epochs then begin
                    (* The chaos kill fires only after the epoch is
                       durable, so the restarted incarnation resumes past
                       it and the schedule converges. *)
                    flush stdout;
                    Unix.kill (Unix.getpid ()) Sys.sigkill
                  end
              | Error msg ->
                  Option.iter close_out tr_oc;
                  (* The journal already holds every closed epoch;
                     snapshot-only mode persists what it has. *)
                  if journal = None then save ();
                  release ();
                  close_failed b msg
                    ~halted:
                      "beacon halted — refusing to vend possibly-biased \
                       randomness.\n");
              if
                journal <> None && snapshot_every > 0
                && B.next_seq b mod snapshot_every = 0
                && B.next_seq b < target
              then save ()
            done;
            Option.iter close_out tr_oc;
            save ();
            release ();
            verify_or_exit ~key ~failure:"emitted chain fails self-verification"
              (B.chain b);
            print_status b
          end
        in
        if not supervise then serve_once ~fresh ()
        else begin
          (* The transport supervisor's escalation discipline, applied
             to the serve loop: SIGTERM to the supervisor forwards to
             the child with a grace window, then SIGKILL; a killed child
             is restarted under the budget with exponential backoff
             that resets whenever the incarnation made durable
             progress. *)
          let child = ref None in
          let term _ =
            (match !child with
            | None -> ()
            | Some pid ->
                (try Unix.kill pid Sys.sigterm
                 with Unix.Unix_error _ -> ());
                let deadline = Unix.gettimeofday () +. 2.0 in
                let rec drain () =
                  match Unix.waitpid [ Unix.WNOHANG ] pid with
                  | 0, _ ->
                      if Unix.gettimeofday () < deadline then begin
                        Unix.sleepf 0.02;
                        drain ()
                      end
                      else begin
                        (try Unix.kill pid Sys.sigkill
                         with Unix.Unix_error _ -> ());
                        ignore (Unix.waitpid [] pid)
                      end
                  | _ -> ()
                  | exception Unix.Unix_error _ -> ()
                in
                drain ());
            exit 143
          in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle term);
          let progress () =
            let size p =
              try (Unix.stat p).Unix.st_size
              with Unix.Unix_error _ -> -1
            in
            (Option.map size journal, size state_file)
          in
          let rec loop ~fresh ~used ~streak =
            let before = progress () in
            match Unix.fork () with
            | 0 ->
                Sys.set_signal Sys.sigterm Sys.Signal_default;
                serve_once ~fresh ();
                exit 0
            | pid -> (
                child := Some pid;
                let _, st = Unix.waitpid [] pid in
                child := None;
                match st with
                | Unix.WEXITED 0 -> ()
                | Unix.WEXITED c ->
                    (* Deterministic refusals (corrupt state, safe
                       mode, bad args) do not heal by restarting. *)
                    Printf.eprintf
                      "error: supervised beacon exited %d; not \
                       restartable\n"
                      c;
                    exit c
                | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
                    if used >= restarts then begin
                      Printf.eprintf
                        "error: restart budget (%d) exhausted\n" restarts;
                      exit 1
                    end;
                    let streak =
                      if progress () <> before then 0 else streak + 1
                    in
                    let delay =
                      min 2.0 (0.05 *. (2. ** float_of_int streak))
                    in
                    Printf.printf
                      "# supervised beacon died; restart %d/%d after \
                       %.2fs\n%!"
                      (used + 1) restarts delay;
                    Unix.sleepf delay;
                    loop ~fresh:false ~used:(used + 1) ~streak)
          in
          loop ~fresh ~used:0 ~streak:0
        end)
  in
  let info =
    Cmd.info "beacon"
      ~doc:
        "Run the randomness-beacon service: batched request vending over a \
         persistent pool, one hash-chained MAC'd epoch record per close. \
         --journal adds write-ahead durability (journal before ack, \
         crash recovery with torn-tail truncation); --supervise restarts a \
         crashed server under a budget. --verify checks a transcript (exit \
         7 on chain failure); --status inspects saved state."
  in
  Cmd.v info
    Term.(
      const run $ setup_logs $ seed_arg $ t_arg $ state_file $ epochs
      $ requests $ nbits $ fresh $ status $ transcript $ verify $ expect_head
      $ beacon_key_arg $ journal $ snapshot_every $ supervise $ restarts
      $ chaos_kills $ transport_timeout_arg)

(* ------------------------------------------------------------------ *)

let recover_cmd =
  let state_file =
    Arg.(
      value
      & opt string "dprbg-beacon.state"
      & info [ "file"; "f" ] ~docv:"PATH" ~doc:"Beacon snapshot file.")
  in
  let journal =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH" ~doc:"Write-ahead journal to recover.")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"PATH"
          ~doc:
            "Write the replayed journal window (epochs past the snapshot) \
             as JSONL to $(docv), after verifying it as a chain slice \
             (exit 7 on failure).")
  in
  let run () seed t state_file journal export key =
    let b =
      load_or_genesis ~fresh:false ~expect_head:None ~key ~seed ~t state_file
        ~restored:(fun b ->
          Printf.printf "# snapshot %s: next epoch %d, head %s\n" state_file
            (B.next_seq b)
            (Beacon_hash.to_hex (B.head b)))
        ~corrupt:(fun msg ->
          Printf.eprintf "error: snapshot %s is corrupt: %s\n" state_file msg)
        ~genesis:(fun () ->
          Printf.printf
            "# no snapshot at %s; recovering from the journal alone\n"
            state_file)
    in
    let d, rs =
      attach_or_exit ~journal ~snapshot:state_file b
        ~hint:
          "The journal cannot be trusted past this point; restore from a \
           trusted snapshot and transcript."
    in
    B.Durable.close d;
    let replayed = rs.B.Durable.replayed in
    Printf.printf
      "# recovered: next epoch %d | head %s\n\
       # journal: %d epoch(s) replayed, %d duplicate request id(s) \
       registered, %d torn byte(s) dropped\n"
      (B.next_seq b)
      (Beacon_hash.to_hex (B.head b))
      (List.length replayed) rs.B.Durable.deduped rs.B.Durable.torn_bytes;
    verify_or_exit ~key ~failure:"replayed journal window fails verification"
      replayed;
    Option.iter
      (fun path ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun e ->
            Buffer.add_string buf (B.epoch_to_json e);
            Buffer.add_char buf '\n')
          replayed;
        Beacon_journal.write_file_atomic path (Buffer.to_bytes buf);
        Printf.printf "# exported %d epoch(s) to %s\n" (List.length replayed)
          path)
      export
  in
  let info =
    Cmd.info "recover"
      ~doc:
        "Inspect and repair beacon durability state offline: load the \
         snapshot, replay the write-ahead journal (truncating a torn \
         tail), verify the replayed window against the hash chain and \
         MACs, and report what a restarted server would recover. --export \
         writes the replayed epochs as JSONL."
  in
  Cmd.v info
    Term.(
      const run $ setup_logs $ seed_arg $ t_arg $ state_file $ journal
      $ export $ beacon_key_arg)

let loadgen_cmd =
  let draws =
    Arg.(
      value & opt int 1_000_000
      & info [ "draws" ] ~docv:"N" ~doc:"Fulfilled draws to drive.")
  in
  let rate =
    Arg.(
      value & opt float 1000.
      & info [ "rate" ] ~docv:"R" ~doc:"Mean request arrivals per epoch.")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
      & info [ "arrival" ] ~docv:"PROCESS"
          ~doc:
            "Open-loop arrival process: $(b,poisson) (i.i.d.) or $(b,bursty) \
             (two-state Markov-modulated Poisson).")
  in
  let burst =
    Arg.(
      value & opt float 1.8
      & info [ "burst" ] ~docv:"FACTOR"
          ~doc:"Bursty high-state rate multiplier, in [1, 2].")
  in
  let nbits =
    Arg.(
      value
      & opt (some int) None
      & info [ "nbits" ] ~docv:"BITS"
          ~doc:"Derived bits per request (default: the field width).")
  in
  let max_pending =
    Arg.(
      value & opt int 4096
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Hard admission bound (soft cap under pressure is half).")
  in
  let latency_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "latency-out" ] ~docv:"PATH"
          ~doc:"Write the latency/throughput summary as JSON to $(docv).")
  in
  let transcript =
    Arg.(
      value
      & opt (some string) None
      & info [ "transcript" ] ~docv:"PATH"
          ~doc:"Write the full JSONL epoch-chain transcript to $(docv).")
  in
  let bench_file =
    Arg.(
      value & opt string "BENCH_history.jsonl"
      & info [ "bench-file" ] ~docv:"PATH"
          ~doc:"Append the loadgen history row here ($(b,-) = skip).")
  in
  let run () seed t draws rate arrival burst nbits max_pending latency_out
      transcript bench_file key timeout =
    apply_transport_timeout timeout;
    if draws < 1 then begin
      Printf.eprintf "error: --draws must be >= 1\n";
      exit 2
    end;
    if rate <= 0. then begin
      Printf.eprintf "error: --rate must be positive\n";
      exit 2
    end;
    check_nbits nbits;
    if max_pending < 2 then begin
      Printf.eprintf "error: --max-pending must be >= 2\n";
      exit 2
    end;
    if arrival = `Bursty && not (burst >= 1. && burst <= 2.) then begin
      Printf.eprintf "error: --burst must be in [1, 2]\n";
      exit 2
    end;
    let b = B.create ~key ~max_pending ~pool:(beacon_pool ~seed ~t) () in
    let arr =
      match arrival with
      | `Poisson -> B.Arrival.poisson ~rate ~seed:(seed + 1)
      | `Bursty -> B.Arrival.bursty ~burst ~rate ~seed:(seed + 1) ()
    in
    (* Vend latency is wall time from admission to callback — queue wait
       plus the amortized share of the epoch's single Coin-Expose. *)
    let lat = ref (Array.make (draws + 4096) 0.) in
    let lat_n = ref 0 in
    let record ns =
      if !lat_n >= Array.length !lat then begin
        let bigger = Array.make (2 * Array.length !lat) 0. in
        Array.blit !lat 0 bigger 0 !lat_n;
        lat := bigger
      end;
      !lat.(!lat_n) <- ns;
      incr lat_n
    in
    let submit_times = Queue.create () in
    let vended = ref 0 in
    let callback _ =
      record ((Unix.gettimeofday () -. Queue.pop submit_times) *. 1e9);
      incr vended
    in
    let t_start = Unix.gettimeofday () in
    while !vended < draws do
      let k = B.Arrival.next arr in
      for _ = 1 to k do
        let t0 = Unix.gettimeofday () in
        match B.request b ?nbits ~callback () with
        | Ok _ -> Queue.push t0 submit_times
        | Error _ -> () (* shed; attributed in the beacon's counters *)
      done;
      match B.close_epoch b with
      | Ok _ -> ()
      | Error msg -> close_failed ~halted:"beacon halted mid-run — " b msg
    done;
    let elapsed = Unix.gettimeofday () -. t_start in
    let s = B.stats b in
    let shed = s.B.shed_queue_full + s.B.shed_pool_pressure + s.B.shed_halted in
    let shed_rate =
      if s.B.vended + shed = 0 then 0.
      else float_of_int shed /. float_of_int (s.B.vended + shed)
    in
    let draws_per_coin =
      if s.B.epochs = 0 then 0.
      else float_of_int s.B.vended /. float_of_int s.B.epochs
    in
    let lats = Array.sub !lat 0 !lat_n in
    Array.sort compare lats;
    let pct p =
      if !lat_n = 0 then 0.
      else lats.(min (!lat_n - 1) (p * !lat_n / 100))
    in
    let p50 = pct 50 and p99 = pct 99 in
    let chain = B.chain b in
    Option.iter
      (fun path ->
        let oc = open_out path in
        List.iter (fun e -> output_string oc (B.epoch_to_json e ^ "\n")) chain;
        close_out oc;
        Printf.printf "# transcript: %s (%d epochs)\n" path (List.length chain))
      transcript;
    let arrival_name = B.Arrival.name arr in
    let row =
      Printf.sprintf
        "{\"schema\":\"dprbg-loadgen/1\",\"arrival\":%S,\"rate\":%g,\"draws\":%d,\"epochs\":%d,\"draws_per_coin\":%.2f,\"shed\":%d,\"shed_rate\":%.6f,\"p50_vend_ns\":%.0f,\"p99_vend_ns\":%.0f,\"elapsed_s\":%.3f}"
        arrival_name rate s.B.vended s.B.epochs draws_per_coin shed shed_rate
        p50 p99 elapsed
    in
    if bench_file <> "-" then begin
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_file in
      output_string oc (row ^ "\n");
      close_out oc;
      Printf.printf "# appended loadgen row to %s\n" bench_file
    end;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (row ^ "\n");
        close_out oc;
        Printf.printf "# latency summary: %s\n" path)
      latency_out;
    Printf.printf
      "# loadgen: arrival=%s rate=%g | vended=%d over %d epoch(s) = %.1f \
       draws/coin | shed=%d (rate %.6f)\n\
       # vend latency: p50=%.0fns p99=%.0fns | wall %.3fs\n"
      arrival_name rate s.B.vended s.B.epochs draws_per_coin shed shed_rate p50
      p99 elapsed;
    let ps = Pool.stats (B.pool b) in
    Printf.printf "# pool: refills=%d refill_attempts=%d backoff_rounds=%d\n"
      ps.Pool.refills ps.Pool.refill_attempts ps.Pool.backoff_rounds;
    verify_or_exit ~key ~failure:"chain verification failed" chain;
    Printf.printf "# chain: verified %d epoch(s) | head %s\n"
      (List.length chain)
      (Beacon_hash.to_hex (B.head b))
  in
  let info =
    Cmd.info "loadgen"
      ~doc:
        "Drive the beacon with seeded open-loop synthetic arrivals (Poisson \
         or bursty), then report p50/p99 vend latency, draws-per-coin and \
         shed rate, append a history row to BENCH_history.jsonl, and verify \
         the emitted epoch chain (exit 7 on failure)."
  in
  Cmd.v info
    Term.(
      const run $ setup_logs $ seed_arg $ t_arg $ draws $ rate $ arrival
      $ burst $ nbits $ max_pending $ latency_out $ transcript $ bench_file
      $ beacon_key_arg $ transport_timeout_arg)

let main =
  let doc = "Distributed pseudo-random bit generators (PODC 1996) simulator" in
  let info = Cmd.info "dprbg" ~version:Dprbg_version.version ~doc in
  Cmd.group info
    [
      coins_cmd; soundness_cmd; costs_cmd; agreement_cmd; pool_cmd; fuzz_cmd;
      trace_cmd; transport_cmd; chaos_cmd; beacon_cmd; recover_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval main)
