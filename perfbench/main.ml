(* Open-loop beacon benchmark on the deployed configuration; README.md
   explains the workloads, the metrics and what each layer metric should
   move.

   One process, one thread. [--trace 0] runs the open loop untraced and
   prints the end-to-end metrics. [--trace 1] runs the same open loop,
   records its call sequence, replays that sequence with refills split
   out of the closes and bounded windows under [Trace.collect], times the
   sub-layer entry points on deployed-shape inputs, and prints the
   per-layer metrics. Either way the last stdout line is one JSON
   object. *)

module F = Gf2k.GF32
module B = Beacon.Make (F)
module P = B.P
module CG = P.CG
module CE = P.CE
module BG = CG.BG
module Codec = Wire.Codec (F)

(* The deployed configuration: [beacon_pool] in bin/dprbg_cli.ml. *)
let n = 13
let t = 2
let batch_size = 32
let refill_threshold = 3
let initial_seed = 6
let sentinel = Some Sentinel.passive
let snapshot_every = 50

(* A crash fires 20-29 closes after a snapshot, so each recovery replays
   20-29 journaled epochs. That debt is below one refill's worth of
   coins (30), so a recovery pays one refill (about 4 in 5 do) and never
   two: the recovery median and the vend tail then rest on many alike
   stalls instead of on how many two-refill recoveries a seed draws. *)
let crash_offsets = (19, 28)

(* Set-up is well under a millisecond, so it is timed this many times,
   spread over the run, and the median reported. *)
let setup_reps = 51

(* Snapshot-only restart probes on the workloads that never crash. *)
let restart_probes = 21

type workload = {
  name : string;
  rate : float;  (** Poisson arrivals per virtual second *)
  period : float;  (** epoch period P, virtual seconds *)
  max_pending : int;
  durable : bool;
  virtual_per_s : float;
      (** virtual horizon per second of [--seconds]: fixed, so every
          commit serves the same arrival stream for a given seed *)
  window : int;  (** closes traced in the replay's [Trace.collect] window *)
  slice_s : float;
      (** End-to-end timings are taken per slice of the horizon (this
          many seconds of [--seconds] each) and averaged over the slices.
          The host's speed drifts by up to a third in phases of several
          seconds: a median or tail over a whole run flips with the mix
          of phases, a mean of per-slice values moves smoothly with it.
          A slice holds enough closes that its epoch-lag tail lies among
          the closes that follow a refill (1 in 30 closes). *)
}

let workloads =
  [
    {
      name = "trickle";
      rate = 300.;
      period = 0.010;
      max_pending = 4096;
      durable = false;
      virtual_per_s = 3.6;
      window = 200;
      slice_s = 4.;
    };
    {
      name = "flood";
      rate = 200_000.;
      period = 0.200;
      max_pending = 131_072;
      durable = false;
      virtual_per_s = 2.8;
      window = 3;
      slice_s = 5.;
    };
    {
      name = "durable-restart";
      rate = 800.;
      period = 0.010;
      max_pending = 4096;
      durable = true;
      virtual_per_s = 2.4;
      window = 200;
      slice_s = 4.;
    };
  ]

let fi = float_of_int
let ratio a b = if b > 0. then a /. b else 0.
let clock_ns () = Int64.to_float (Monotonic_clock.now ())
let since_s t0 = (clock_ns () -. t0) *. 1e-9

(* ---------------------------------------------------------------- *)
(* Output checks: every violation is one failed operation.           *)

let failed = ref 0
let failure_notes = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      if List.length !failure_notes < 20 then
        failure_notes := m :: !failure_notes)
    fmt

(* Admitted-but-unvended requests in admission order: the callback of
   each vend must match the head, so a lost, duplicated or reordered
   callback shows as a mismatch, and a non-empty ring at the end is an
   admitted request that was never fulfilled. *)
module Ring = struct
  type t = {
    mutable ids : int array;
    mutable due : Float.Array.t;
    mutable head : int;
    mutable len : int;
  }

  let create () =
    {
      ids = Array.make 1024 0;
      due = Float.Array.make 1024 0.;
      head = 0;
      len = 0;
    }

  let length r = r.len

  let push r id due =
    let cap = Array.length r.ids in
    if r.len = cap then begin
      let ids = Array.make (2 * cap) 0 and d = Float.Array.make (2 * cap) 0. in
      for i = 0 to r.len - 1 do
        let j = (r.head + i) mod cap in
        ids.(i) <- r.ids.(j);
        Float.Array.set d i (Float.Array.get r.due j)
      done;
      r.ids <- ids;
      r.due <- d;
      r.head <- 0
    end;
    let j = (r.head + r.len) mod Array.length r.ids in
    r.ids.(j) <- id;
    Float.Array.set r.due j due;
    r.len <- r.len + 1

  (* Pops the head; returns its id and writes its due time to [due]. *)
  let pop r due =
    let id = r.ids.(r.head) in
    due := Float.Array.get r.due r.head;
    r.head <- (r.head + 1) mod Array.length r.ids;
    r.len <- r.len - 1;
    id
end

(* Growable array: the recorded call sequence, one entry per close. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create () = { a = [||]; len = 0 }
  let length v = v.len
  let get v i = v.a.(i)

  let push v x =
    if v.len = Array.length v.a then begin
      let a = Array.make (max 256 (2 * v.len)) x in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1
end

(* ---------------------------------------------------------------- *)
(* The server under test.                                            *)

type paths = { journal : string; snapshot : string }

let paths_in dir =
  {
    journal = Filename.concat dir "beacon.journal";
    snapshot = Filename.concat dir "beacon.snap";
  }

let clean p =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ p.journal; p.snapshot; p.snapshot ^ ".tmp" ]

let read_file path =
  In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string

let file_size path = (Unix.stat path).Unix.st_size

type server = { mutable b : B.t; mutable d : B.Durable.d option }

let request s callback =
  match s.d with
  | Some d -> B.Durable.request d ~callback ()
  | None -> B.request s.b ~callback ()

let close s =
  match s.d with Some d -> B.Durable.close_epoch d | None -> B.close_epoch s.b

let release s = Option.iter B.Durable.close s.d

let setup wl ~pool_prng ~paths ~prefetch =
  let pool =
    P.create ~sentinel ~prng:(Prng.copy pool_prng) ~n ~t ~batch_size
      ~refill_threshold ~initial_seed ()
  in
  let b = B.create ~max_pending:wl.max_pending ~prefetch ~pool () in
  if wl.durable then begin
    let journal = paths.journal and snapshot = paths.snapshot in
    let d, _ = B.Durable.attach ~journal ~snapshot b in
    B.Durable.snapshot d;
    { b; d = Some d }
  end
  else { b; d = None }

let load wl ~seed ~prefetch bytes =
  B.load ~max_pending:wl.max_pending ~prefetch ~sentinel
    ~prng:(Prng.of_int seed) ~batch_size ~refill_threshold bytes

(* One seed generates everything, in this split order. *)
type seeds = {
  arrivals : Prng.t;
  pool : Prng.t;
  crashes : Prng.t;
  micro : Prng.t;
}

let seeds_of seed =
  let m = Prng.of_int seed in
  let arrivals = Prng.split m in
  let pool = Prng.split m in
  let crashes = Prng.split m in
  let micro = Prng.split m in
  { arrivals; pool; crashes; micro }

(* ---------------------------------------------------------------- *)
(* The recorded call sequence: per close, the requests submitted      *)
(* before it and what followed it.                                    *)

type after = Nothing | Snapshot | Crash of int  (** restart PRNG seed *)

type script = {
  reqs : int Vec.t;
  after : after Vec.t;
  seg_s : float Vec.t;  (** busy time of the requests and the close *)
  seg_refill : bool Vec.t;  (** whether the close ran a refill *)
}

(* ---------------------------------------------------------------- *)
(* The untraced open loop.                                            *)

type loop = {
  setup_s : Stats.samples;
  vend_ms : Stats.samples array;  (** per slice, by due time *)
  lag_ms : Stats.samples array;  (** per slice, by first merged tick *)
  recovery_ms : Stats.samples array;
      (** per slice, by restart time; snapshot-only restart probes on
          the workloads that never crash *)
  admit_wait_ms : Stats.samples;
  close_plain_us : Stats.samples;  (** closes that ran no refill *)
  close_small_us : Stats.samples;  (** ... and vended at most 4 draws *)
  durable_close_us : Stats.samples;
  snapshot_ms : Stats.samples;
  attach_ms : Stats.samples;
  mutable plain_draws : int;
  mutable busy : float;
  mutable request_s : float;
  mutable attempted : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable vended : int;
  mutable epochs : int;
  mutable restarts : int;
  mutable replayed : int;
  mutable replay_refills : int;
  mutable journal_bytes : int;
  mutable journal_closes : int;
  mutable heap_peak_mb : float;
  mutable head : Beacon_hash.t;
  mutable pool_stats : P.stats option;
  script : script;
}

let new_loop ~slices =
  {
    setup_s = Stats.create ();
    vend_ms = Array.init slices (fun _ -> Stats.create ());
    lag_ms = Array.init slices (fun _ -> Stats.create ());
    recovery_ms = Array.init slices (fun _ -> Stats.create ());
    admit_wait_ms = Stats.create ();
    close_plain_us = Stats.create ();
    close_small_us = Stats.create ();
    durable_close_us = Stats.create ();
    snapshot_ms = Stats.create ();
    attach_ms = Stats.create ();
    plain_draws = 0;
    busy = 0.;
    request_s = 0.;
    attempted = 0;
    admitted = 0;
    rejected = 0;
    vended = 0;
    epochs = 0;
    restarts = 0;
    replayed = 0;
    replay_refills = 0;
    journal_bytes = 0;
    journal_closes = 0;
    heap_peak_mb = 0.;
    head = Beacon_hash.zero;
    pool_stats = None;
    script =
      {
        reqs = Vec.create ();
        after = Vec.create ();
        seg_s = Vec.create ();
        seg_refill = Vec.create ();
      };
  }

let refills s = (P.stats (B.pool s.b)).P.refills

(* Restart-to-first-vend of a snapshot-only beacon (no journal): load,
   one request, one close. *)
let restart_probe wl ~seed bytes =
  let vend_at = ref 0. in
  let t0 = clock_ns () in
  let b = load wl ~seed ~prefetch:0 bytes in
  (match B.request b ~callback:(fun _ -> vend_at := clock_ns ()) () with
  | Ok _ -> ()
  | Error r -> fail "restart probe shed its request: %s" (B.reject_name r));
  (match B.close_epoch b with
  | Ok _ -> ()
  | Error msg -> fail "restart probe close failed: %s" msg);
  if !vend_at > 0. then Some ((!vend_at -. t0) *. 1e-6) else None

let open_loop wl ~seed ~horizon ~dir ~per_layer =
  let slices =
    let busy_s = horizon /. wl.virtual_per_s in
    max 1 (int_of_float (Float.round (busy_s /. wl.slice_s)))
  in
  let o = new_loop ~slices in
  let sd = seeds_of seed in
  let arrivals = Sched.Arrivals.create ~rate:wl.rate sd.arrivals in
  let paths = paths_in dir in
  let probe_paths = paths_in (Filename.concat dir "probe") in
  Sys.mkdir (Filename.concat dir "probe") 0o755;
  let setup_probe () =
    let t0 = clock_ns () in
    let s = setup wl ~pool_prng:sd.pool ~paths:probe_paths ~prefetch:1 in
    Stats.add o.setup_s (since_s t0);
    release s;
    clean probe_paths
  in
  clean paths;
  let t0 = clock_ns () in
  let srv = setup wl ~pool_prng:sd.pool ~paths ~prefetch:1 in
  Stats.add o.setup_s (since_s t0);
  (* The extra set-ups and restart probes run between closes, outside
     the virtual clock, spread evenly over the expected closes. *)
  let expected_closes = max 1 (int_of_float (horizon /. wl.period *. 0.6)) in
  let setup_every = max 1 (expected_closes / setup_reps) in
  let probe_every = max 1 (expected_closes / restart_probes) in
  let win v =
    max 0 (min (slices - 1) (int_of_float (v /. horizon *. fi slices)))
  in
  let chain = ref [] in
  let digests = Hashtbl.create 1024 in
  let ring = Ring.create () in
  let now = ref 0. and tick = ref 1 in
  let expect_seq = ref 0 and fired = ref 0 in
  let cb_v0 = ref 0. and cb_w0 = ref 0. in
  let first_cb = ref 0. and last_cb = ref 0. in
  let due_cell = ref 0. in
  (* Up to two (id, bits) per close since the last journal rotation:
     the acked ids a recovery must replay bit-identically. *)
  let acks = ref [] in
  let callback (f : B.fulfillment) =
    let v = !cb_v0 +. ((clock_ns () -. !cb_w0) *. 1e-9) in
    if Ring.length ring = 0 then
      fail "callback for request %d with nothing pending" f.B.request_id
    else begin
      let id = Ring.pop ring due_cell in
      if f.B.request_id <> id then
        fail "callback for request %d, expected %d" f.B.request_id id;
      if f.B.epoch <> !expect_seq then
        fail "request %d vended in epoch %d during close of %d" id f.B.epoch
          !expect_seq;
      if Array.length f.B.bits <> F.k_bits then
        fail "request %d got %d bits" id (Array.length f.B.bits);
      Stats.add o.vend_ms.(win !due_cell) ((v -. !due_cell) *. 1e3);
      if !fired = 0 then first_cb := v;
      last_cb := v;
      incr fired;
      if wl.durable && !fired <= 2 then
        acks := (f.B.request_id, Array.copy f.B.bits) :: !acks
    end
  in
  let seg_busy = ref 0. and seg_reqs = ref 0 in
  let recovering = ref None in
  let next_crash =
    Sched.crashes ~snapshot_every ~offsets:crash_offsets sd.crashes
  in
  let crash_at = ref (next_crash ()) in
  let advance dt =
    now := !now +. dt;
    o.busy <- o.busy +. dt
  in
  let restart () =
    let s = srv in
    let prev_head = B.head s.b and prev_seq = B.next_seq s.b in
    release s;
    let rseed = Prng.bits sd.crashes 30 in
    let r0 = !now in
    let t0 = clock_ns () in
    let b = load wl ~seed:rseed ~prefetch:1 (read_file paths.snapshot) in
    let refills0 = (P.stats (B.pool b)).P.refills in
    let t1 = clock_ns () in
    let d, rs =
      B.Durable.attach ~journal:paths.journal ~snapshot:paths.snapshot b
    in
    let t2 = clock_ns () in
    advance ((t2 -. t0) *. 1e-9);
    Stats.add o.attach_ms ((t2 -. t1) *. 1e-6);
    s.b <- b;
    s.d <- Some d;
    o.restarts <- o.restarts + 1;
    o.replayed <- o.replayed + List.length rs.B.Durable.replayed;
    o.replay_refills <-
      o.replay_refills + ((P.stats (B.pool b)).P.refills - refills0);
    if not (Beacon_hash.equal (B.head b) prev_head && B.next_seq b = prev_seq)
    then
      fail "recovery %d: head/seq %s/%d, before the crash %s/%d" o.restarts
        (Beacon_hash.to_hex (B.head b)) (B.next_seq b)
        (Beacon_hash.to_hex prev_head) prev_seq;
    List.iter
      (fun (e : B.epoch) ->
        match Hashtbl.find_opt digests e.B.seq with
        | Some dg when Beacon_hash.equal dg e.B.digest -> ()
        | _ ->
            fail "recovery %d replayed a different epoch %d" o.restarts e.B.seq)
      rs.B.Durable.replayed;
    List.iter
      (fun (id, bits) ->
        match B.Durable.replay d ~id with
        | Some f when f.B.bits = bits -> ()
        | _ ->
            fail "recovery %d: acked request %d does not replay" o.restarts id)
      !acks;
    recovering := Some r0;
    crash_at := next_crash ();
    Vec.push o.script.after (Crash rseed)
  in
  let do_close first last =
    let first_t = Sched.tick_time ~period:wl.period first in
    tick := last + 1;
    expect_seq := B.next_seq srv.b;
    fired := 0;
    let refills0 = refills srv in
    let jsize0 = if wl.durable then file_size paths.journal else 0 in
    cb_v0 := !now;
    let t0 = clock_ns () in
    cb_w0 := t0;
    let r = close srv in
    let dt = since_s t0 in
    advance dt;
    let refilled = refills srv > refills0 in
    Vec.push o.script.reqs !seg_reqs;
    Vec.push o.script.seg_s (!seg_busy +. dt);
    Vec.push o.script.seg_refill refilled;
    seg_busy := 0.;
    seg_reqs := 0;
    let dt_us = dt *. 1e6 in
    match r with
    | Error msg ->
        fail "close of epoch %d failed: %s" !expect_seq msg;
        Vec.push o.script.after Nothing
    | Ok e ->
        chain := e :: !chain;
        o.epochs <- o.epochs + 1;
        o.vended <- o.vended + !fired;
        if e.B.vended <> !fired then
          fail "epoch %d records %d vends, %d callbacks fired" e.B.seq
            e.B.vended !fired;
        if !fired > 0 then begin
          Stats.add o.lag_ms.(win first_t) ((!last_cb -. first_t) *. 1e3);
          match !recovering with
          | Some r0 ->
              Stats.add o.recovery_ms.(win r0) ((!first_cb -. r0) *. 1e3);
              recovering := None
          | None -> ()
        end;
        if not refilled then begin
          Stats.add o.close_plain_us dt_us;
          o.plain_draws <- o.plain_draws + e.B.vended;
          if e.B.vended <= 4 then Stats.add o.close_small_us dt_us
        end;
        if o.epochs mod setup_every = 0 && Stats.length o.setup_s < setup_reps
        then setup_probe ();
        if not wl.durable then begin
          if o.epochs mod probe_every = 0 then
            Option.iter
              (Stats.add o.recovery_ms.(win !now))
              (restart_probe wl ~seed:(seed + o.epochs) (B.save srv.b));
          Vec.push o.script.after Nothing
        end
        else begin
          Hashtbl.replace digests e.B.seq e.B.digest;
          Stats.add o.durable_close_us dt_us;
          o.journal_bytes <- o.journal_bytes + file_size paths.journal - jsize0;
          o.journal_closes <- o.journal_closes + 1;
          if e.B.seq = !crash_at then restart ()
          else if (e.B.seq + 1) mod snapshot_every = 0 then begin
            let t0 = clock_ns () in
            B.Durable.snapshot (Option.get srv.d);
            let dt = since_s t0 in
            advance dt;
            Stats.add o.snapshot_ms (dt *. 1e3);
            acks := [];
            Vec.push o.script.after Snapshot
          end
          else begin
            Vec.push o.script.after Nothing
          end
        end
  in
  (* Ticks up to the horizon always run; past it only to drain what was
     admitted. A beacon that stops vending is cut off after a grace. *)
  let grace = horizon +. 10. in
  let running = ref true in
  while !running do
    let due =
      let d = Sched.Arrivals.peek arrivals in
      if d < horizon then d else infinity
    in
    let next_tick = Sched.tick_time ~period:wl.period !tick in
    if
      (due = infinity && Ring.length ring = 0 && next_tick > horizon)
      || next_tick > grace
    then running := false
    else
      match Sched.step ~period:wl.period ~now:!now ~due ~tick:!tick with
      | Sched.Admit ->
          ignore (Sched.Arrivals.pop arrivals);
          o.attempted <- o.attempted + 1;
          if per_layer then Stats.add o.admit_wait_ms ((!now -. due) *. 1e3);
          let t0 = clock_ns () in
          let r = request srv callback in
          let dt = since_s t0 in
          advance dt;
          o.request_s <- o.request_s +. dt;
          seg_busy := !seg_busy +. dt;
          incr seg_reqs;
          (match r with
          | Ok id ->
              Ring.push ring id due;
              o.admitted <- o.admitted + 1
          | Error _ -> o.rejected <- o.rejected + 1)
      | Sched.Close { first; last } -> do_close first last
      | Sched.Idle_until x -> now := x
  done;
  o.heap_peak_mb <-
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6;
  (* A run that closed fewer epochs than expected tops its probes up
     from the final state. *)
  while Stats.length o.setup_s < setup_reps do
    setup_probe ()
  done;
  if not wl.durable then begin
    let bytes = B.save srv.b in
    let probed =
      Array.fold_left (fun k s -> k + Stats.length s) 0 o.recovery_ms
    in
    for i = probed + 1 to restart_probes do
      Option.iter
        (Stats.add o.recovery_ms.(slices - 1))
        (restart_probe wl ~seed:(seed + i) bytes)
    done
  end;
  Sys.rmdir (Filename.concat dir "probe");
  if Ring.length ring > 0 then
    fail "%d admitted request(s) never vended" (Ring.length ring);
  if o.vended <> o.admitted - Ring.length ring then
    fail "vended %d <> admitted %d - unfulfilled %d" o.vended o.admitted
      (Ring.length ring);
  let chain = List.rev !chain in
  (match B.verify_chain chain with
  | Ok () -> ()
  | Error msg -> fail "emitted chain fails verification: %s" msg);
  (match chain with
  | e :: _ when e.B.seq <> 0 -> fail "emitted chain starts at epoch %d" e.B.seq
  | _ -> ());
  o.head <- B.head srv.b;
  o.pool_stats <- Some (P.stats (B.pool srv.b));
  release srv;
  clean paths;
  o

(* ---------------------------------------------------------------- *)
(* The traced replay.                                                 *)

let phases = [ "deal"; "gamma"; "decode"; "gradecast"; "ba" ]

type replay = {
  refill_ms : Stats.samples;  (** untraced refills only *)
  recover_ms : Stats.samples;
  mutable refill_s : float;
  mutable untraced_busy : float;
  mutable request_s : float;
  mutable plain_close_s : float;
  mutable plain_closes : int;
  window_ratio : Stats.samples;
      (** traced over untraced busy time of the same window segment *)
  mutable expose : Metrics.snapshot;
  mutable exposes : int;
  mutable phase : (string * Metrics.snapshot) list;
  mutable traced_refills : int;
  mutable head : Beacon_hash.t;
}

let sum_spans tr name =
  List.fold_left
    (fun (acc, k) (s : Trace.span) ->
      if s.Trace.name = name then (Metrics.add acc s.Trace.metrics, k + 1)
      else (acc, k))
    (Metrics.zero, 0) (Trace.spans tr)

let replay wl ~seed ~dir ~(loop : loop) =
  let r =
    {
      refill_ms = Stats.create ();
      recover_ms = Stats.create ();
      refill_s = 0.;
      untraced_busy = 0.;
      request_s = 0.;
      plain_close_s = 0.;
      plain_closes = 0;
      window_ratio = Stats.create ();
      expose = Metrics.zero;
      exposes = 0;
      phase = List.map (fun p -> (p, Metrics.zero)) phases;
      traced_refills = 0;
      head = Beacon_hash.zero;
    }
  in
  let sd = seeds_of seed in
  let paths = paths_in dir in
  clean paths;
  (* Refills run as their own timed call: the beacon does not prefetch,
     the loop makes the same [Pool.prefetch ~upcoming:1] call itself
     right after each close. *)
  let srv = setup wl ~pool_prng:sd.pool ~paths ~prefetch:0 in
  let callback (_ : B.fulfillment) = () in
  let timed f =
    let t0 = clock_ns () in
    let x = f () in
    let dt = since_s t0 in
    r.untraced_busy <- r.untraced_busy +. dt;
    (x, dt)
  in
  let sc = loop.script in
  let chain = ref [] in
  let keep = function Ok e -> chain := e :: !chain | Error _ -> () in
  (* The traced window sits mid-run, where both passes run warm. *)
  let nseg = Vec.length sc.reqs in
  let w0 = max 0 ((nseg - wl.window) / 2) in
  for i = 0 to nseg - 1 do
    let reqs = Vec.get sc.reqs i in
    if i >= w0 && i < w0 + wl.window then begin
      let t0 = clock_ns () in
      let res, tr =
        Trace.collect (fun () ->
            for _ = 1 to reqs do
              ignore (request srv callback)
            done;
            close srv)
      in
      let dt = since_s t0 in
      keep res;
      let m, k = sum_spans tr "coin-expose" in
      r.expose <- Metrics.add r.expose m;
      r.exposes <- r.exposes + k;
      if not (Vec.get sc.seg_refill i) then
        Stats.add r.window_ratio (dt /. Vec.get sc.seg_s i)
    end
    else begin
      for _ = 1 to reqs do
        let _, dt = timed (fun () -> request srv callback) in
        r.request_s <- r.request_s +. dt
      done;
      let refills0 = refills srv in
      let res, dt = timed (fun () -> close srv) in
      keep res;
      if refills srv = refills0 then begin
        r.plain_close_s <- r.plain_close_s +. dt;
        r.plain_closes <- r.plain_closes + 1
      end
    end;
    let pool = B.pool srv.b in
    let prefetch () =
      try P.prefetch pool ~upcoming:1
      with P.Safe_mode msg | P.Starved msg -> fail "refill failed: %s" msg
    in
    (match B.state srv.b with
    | B.Halted _ -> ()
    | _ ->
        if P.headroom pool >= 1 then ignore (timed prefetch)
        else if r.traced_refills < 1 then begin
          let (), tr = Trace.collect prefetch in
          r.traced_refills <-
            r.traced_refills + snd (sum_spans tr "pool.refill");
          r.phase <-
            List.map
              (fun (p, acc) ->
                (p, Metrics.add acc (fst (sum_spans tr ("coin-gen." ^ p)))))
              r.phase
        end
        else begin
          let (), dt = timed prefetch in
          Stats.add r.refill_ms (dt *. 1e3);
          r.refill_s <- r.refill_s +. dt
        end);
    match Vec.get sc.after i with
    | Nothing -> ()
    | Snapshot ->
        ignore (timed (fun () -> B.Durable.snapshot (Option.get srv.d)))
    | Crash seed ->
        release srv;
        let _, dt = timed (fun () -> Beacon_journal.recover paths.journal) in
        Stats.add r.recover_ms (dt *. 1e3);
        let (b, d), _ =
          timed (fun () ->
              let b = load wl ~seed ~prefetch:0 (read_file paths.snapshot) in
              let journal = paths.journal and snapshot = paths.snapshot in
              (b, fst (B.Durable.attach ~journal ~snapshot b)))
        in
        srv.b <- b;
        srv.d <- Some d
  done;
  r.head <- B.head srv.b;
  (match B.verify_chain (List.rev !chain) with
  | Ok () -> ()
  | Error msg -> fail "replayed chain fails verification: %s" msg);
  release srv;
  clean paths;
  r

(* ---------------------------------------------------------------- *)
(* Sub-layer entry points on deployed-shape inputs.                   *)

let median_of k f =
  let s = Stats.create () in
  for _ = 1 to k do
    Stats.add s (f ())
  done;
  Stats.percentile s 50.

type micro = {
  mul_ns : float;
  decode_check_us : float;
  run_all_ms : float;
  expose_us : float;
  append_fsync_us : float;
}

let micro ~g ~dir ~record_size =
  let mul_ns =
    let a = F.random g and b = F.random_nonzero g in
    median_of 5 (fun () ->
        let x = ref a in
        let t0 = clock_ns () in
        for _ = 1 to 200_000 do
          x := F.mul !x b
        done;
        let dt = clock_ns () -. t0 in
        ignore (Sys.opaque_identity !x);
        dt /. 200_000.)
  in
  (* One Bit-Gen dealing per dealer at (13, 2, 32): its gammas feed the
     decode check and its check polynomials the grade-cast payload. *)
  let r = F.random_nonzero g in
  let runs =
    Array.init n (fun dealer ->
        fst (BG.run ~prng:g ~n ~t ~m:batch_size ~dealer ~r ()))
  in
  let decode_check_us =
    median_of 7 (fun () ->
        let t0 = clock_ns () in
        Array.iter
          (fun views ->
            Array.iter
              (fun (v : BG.player_view) ->
                ignore
                  (Sys.opaque_identity (BG.decode_check ~n ~t v.BG.gammas)))
              views)
          runs;
        (clock_ns () -. t0) /. float_of_int (n * n) /. 1e3)
  in
  let payload =
    {
      CG.clique = List.init n Fun.id;
      polys =
        List.init n (fun j ->
            match runs.(j).(0).BG.check_poly with
            | Some f -> (j, BG.P.coeffs f)
            | None -> (j, [||]));
    }
  in
  let byte_size (p : CG.payload) =
    Codec.payload_size ~clique:p.CG.clique
      ~poly_sizes:(List.map (fun (_, c) -> Array.length c) p.CG.polys)
  in
  let run_all_ms =
    median_of 7 (fun () ->
        let t0 = clock_ns () in
        ignore
          (Sys.opaque_identity
             (Gradecast.run_all ~equal:CG.payload_equal ~byte_size ~n ~t
                ~values:(fun _ -> payload)
                ()));
        (clock_ns () -. t0) *. 1e-6)
  in
  let expose_us =
    let oracle () = F.random g in
    match CG.run ~prng:g ~oracle ~n ~t ~m:batch_size () with
    | None ->
        fail "Coin-Gen produced no batch for the expose probe";
        0.
    | Some batch ->
        let coin = CG.coin batch 0 in
        median_of 201 (fun () ->
            let t0 = clock_ns () in
            ignore (Sys.opaque_identity (CE.run coin));
            (clock_ns () -. t0) /. 1e3)
  in
  let append_fsync_us =
    if record_size <= 0 then 0.
    else begin
      let path = Filename.concat dir "probe.journal" in
      let w = Beacon_journal.create ~sync:Beacon_journal.Fsync path in
      let body = Bytes.make record_size '\x5a' in
      let us =
        median_of 41 (fun () ->
            let t0 = clock_ns () in
            Beacon_journal.append w body;
            (clock_ns () -. t0) /. 1e3)
      in
      Beacon_journal.close w;
      Sys.remove path;
      us
    end
  in
  { mul_ns; decode_check_us; run_all_ms; expose_us; append_fsync_us }

(* ---------------------------------------------------------------- *)
(* Reporting.                                                         *)

let metrics = ref []
let put name unit value = metrics := (name, unit, value) :: !metrics
let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n")

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else begin
    fail "non-finite metric value";
    "0"
  end

let print_result ~attempted =
  let body =
    List.rev !metrics
    |> List.map (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
    |> String.concat ", "
  in
  List.iter (note "FAILED: %s") (List.rev !failure_notes);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) (max 1 attempted) !failed body

let shed_frac (o : loop) =
  ratio (fi (o.attempted - o.vended)) (fi o.attempted)

(* The mean over slices of the per-slice p50 and tail. The tail rank
   is the one the thinnest slice supports, so every slice contributes
   the same percentile. *)
let sliced name (per_slice : Stats.samples array) =
  let live =
    List.filter (fun s -> Stats.length s > 0) (Array.to_list per_slice)
  in
  match live with
  | [] ->
      note "%-13s no samples" name;
      (0., 0.)
  | _ ->
      let counts = List.map Stats.length live in
      let thinnest = List.fold_left min max_int counts in
      let mean f =
        List.fold_left (fun a s -> a +. f s) 0. live /. fi (List.length live)
      in
      let p50 = mean (fun s -> Stats.percentile s 50.) in
      let rank = Stats.tail_rank thinnest in
      let tail =
        match rank with
        | Some p -> mean (fun s -> Stats.percentile s p)
        | None -> p50
      in
      note "%-13s p50 %.4g, %s %.4g: means over %d slices (%d samples, >= %d \
            per slice)"
        name p50
        (match rank with Some p -> Printf.sprintf "p%g" p | None -> "p50")
        tail (List.length live) (List.fold_left ( + ) 0 counts) thinnest;
      (p50, tail)

let report_end_to_end wl (o : loop) =
  note "%s: %d attempted, %d vended, %d epochs, %d restart(s), busy %.3f s"
    wl.name o.attempted o.vended o.epochs o.restarts o.busy;
  let vend_p50, vend_tail = sliced "vend_ms" o.vend_ms in
  (* The lag p50 is printed but not gated: a small close is a sub-0.1 ms
     memory-bound call whose time moved by a quarter to a third between
     two sets of runs 15 minutes apart, with the host's contention. *)
  let _, lag_tail = sliced "epoch_lag_ms" o.lag_ms in
  put "vend_p50_ms" "ms" vend_p50;
  put "vend_p99_ms" "ms" vend_tail;
  put "epoch_lag_p99_ms" "ms" lag_tail;
  put "draws_per_busy_s" "1/s" (ratio (fi o.vended) o.busy);
  put "fulfilled_frac" "fraction" (1. -. shed_frac o);
  put "recovery_p50_ms" "ms"
    (fst
       (sliced
          (if wl.durable then "recovery_ms" else "restart_probe_ms")
          o.recovery_ms));
  let setup = Stats.summarize o.setup_s in
  note "%-13s %s" "setup_s" (Stats.label setup);
  put "setup_s" "s" setup.Stats.p50;
  put "heap_peak_mb" "MB" o.heap_peak_mb

let p50_or_0 s = if Stats.length s > 0 then Stats.percentile s 50. else 0.

let report_per_layer wl (o : loop) (r : replay) (m : micro) =
  let pool = Option.get o.pool_stats in
  let refills = fi (max 1 pool.P.refills) in
  put "beacon.request_us" "us" (ratio (o.request_s *. 1e6) (fi o.attempted));
  put "beacon.close_us_per_draw" "us"
    (ratio (Stats.sum o.close_plain_us) (fi o.plain_draws));
  put "beacon.close_small_p50_us" "us" (p50_or_0 o.close_small_us);
  put "beacon.epoch_lag_p50_ms" "ms" (fst (sliced "epoch_lag_ms" o.lag_ms));
  put "beacon.admit_wait_p99_ms" "ms"
    (Stats.tail_value (Stats.summarize o.admit_wait_ms));
  put "beacon.draws_per_coin" "count" (ratio (fi o.vended) (fi o.epochs));
  put "beacon.shed_frac" "fraction" (shed_frac o);
  let refill = Stats.summarize r.refill_ms in
  let refill_p50 = p50_or_0 r.refill_ms in
  put "pool.refill_ms_p50" "ms" refill_p50;
  put "pool.refill_ms_p99" "ms" (Stats.tail_value refill);
  let refill_share = ratio r.refill_s r.untraced_busy in
  put "pool.refill_share" "fraction" refill_share;
  put "pool.expose_us" "us" m.expose_us;
  let seed_coins = fi pool.P.seed_coins_consumed /. refills in
  put "pool.seed_coins_per_refill" "count" seed_coins;
  put "pool.attempts_per_refill" "count" (fi pool.P.refill_attempts /. refills);
  let per_expose f = ratio (fi (f r.expose)) (fi r.exposes) in
  put "coin_expose.mults" "count"
    (per_expose (fun s -> s.Metrics.field_mults));
  put "coin_expose.interpolations" "count"
    (per_expose (fun s -> s.Metrics.interpolations));
  put "coin_expose.messages" "count" (per_expose (fun s -> s.Metrics.messages));
  let per_refill x = ratio (fi x) (fi r.traced_refills) in
  List.iter
    (fun (p, (s : Metrics.snapshot)) ->
      let k = "coin_gen." ^ p in
      put (k ^ ".mults") "count" (per_refill s.Metrics.field_mults);
      put (k ^ ".interpolations") "count"
        (per_refill s.Metrics.interpolations);
      put (k ^ ".messages") "count" (per_refill s.Metrics.messages);
      put (k ^ ".bytes") "bytes" (per_refill s.Metrics.bytes);
      put (k ^ ".rounds") "count" (per_refill s.Metrics.rounds))
    r.phase;
  put "coin_gen.ba_iterations" "count" (fi pool.P.ba_iterations /. refills);
  put "bit_gen.decode_check_us" "us" m.decode_check_us;
  let decode_ms_est = m.decode_check_us *. fi (n * n) /. 1e3 in
  put "coin_gen.decode_ms_est" "ms" decode_ms_est;
  put "gradecast.run_all_ms" "ms" m.run_all_ms;
  put "gf32.mul_ns" "ns" m.mul_ns;
  let seed_expose_ms = seed_coins *. m.expose_us /. 1e3 in
  let attributed =
    ratio (decode_ms_est +. m.run_all_ms +. seed_expose_ms) refill_p50
  in
  put "coin_gen.attributed_share" "fraction" attributed;
  put "durable.close_us_p50" "us" (p50_or_0 o.durable_close_us);
  put "durable.close_us_p99" "us"
    (Stats.tail_value (Stats.summarize o.durable_close_us));
  put "journal.append_fsync_us" "us" m.append_fsync_us;
  put "journal.bytes_per_epoch" "bytes"
    (ratio (fi o.journal_bytes) (fi o.journal_closes));
  put "durable.snapshot_ms" "ms" (p50_or_0 o.snapshot_ms);
  put "durable.attach_ms" "ms" (p50_or_0 o.attach_ms);
  put "journal.recover_ms" "ms" (p50_or_0 r.recover_ms);
  put "durable.replayed_epochs" "count"
    (ratio (fi o.replayed) (fi o.restarts));
  put "durable.replay_refills" "count"
    (ratio (fi o.replay_refills) (fi o.restarts));
  let overhead =
    if Stats.length r.window_ratio > 0 then
      Stats.percentile r.window_ratio 50. -. 1.
    else 0.
  in
  put "trace.overhead_frac" "fraction" overhead;
  (* Admission plus per-request derivation: request calls plus what the
     refill-free closes spent beyond their one exposure. *)
  let derive_s =
    r.plain_close_s -. (fi r.plain_closes *. m.expose_us *. 1e-6)
  in
  let derive_share =
    ratio (r.request_s +. Float.max 0. derive_s) r.untraced_busy
  in
  put "beacon.derive_share" "fraction" derive_share;
  note "%s per-layer: %d refills (%d traced), %d restarts, replay busy %.3f s"
    wl.name pool.P.refills r.traced_refills o.restarts r.untraced_busy;
  note "refill_ms    %s" (Stats.label refill);
  note "attributed   decode %.2f ms + gradecast %.2f ms + seed exposes %.2f ms \
        = %.0f%% of refill p50"
    decode_ms_est m.run_all_ms seed_expose_ms (100. *. attributed);
  note "trace        overhead %+.1f%% (median over %d window close(s))"
    (100. *. overhead) (Stats.length r.window_ratio);
  let chain_ok = Beacon_hash.equal o.head r.head in
  if not chain_ok then
    fail "traced replay head %s differs from the untraced run's %s"
      (Beacon_hash.to_hex r.head) (Beacon_hash.to_hex o.head);
  note "chain head   untraced %s, traced %s: %s" (Beacon_hash.to_hex o.head)
    (Beacon_hash.to_hex r.head) (if chain_ok then "equal" else "DIFFERENT");
  (* Design claims describe the workload as designed; a change to the
     program may legitimately move them, so they are printed, not
     failed. *)
  let claim what share ok =
    note "design claim %s: %s (found %.3f)" what
      (if ok then "holds" else "DOES NOT HOLD")
      share
  in
  (match wl.name with
  | "trickle" ->
      claim "refill_share >= 0.8 on trickle" refill_share (refill_share >= 0.8)
  | "flood" ->
      claim "refill_share <= 0.15 on flood" refill_share (refill_share <= 0.15);
      claim "admission + derivation >= 0.7 of busy on flood" derive_share
        (derive_share >= 0.7)
  | _ -> ())

(* ---------------------------------------------------------------- *)

let usage =
  "main.exe --workload (trickle|flood|durable-restart) --seed N --seconds S \
   --trace (0|1) [--workdir DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 in
  let workdir = ref "perfbench/_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N seed for every generated input");
      ("--seconds", Arg.Set_int seconds, "S run length (sets the horizon)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--workdir", Arg.Set_string workdir, "DIR scratch for journals");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload; " ^ usage);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let dir =
    Filename.concat !workdir (Printf.sprintf "%s-%d" wl.name (Unix.getpid ()))
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  mkdir_p dir;
  (* A per-layer run replays its open loop once more, so each pass gets
     half the horizon and the run keeps to [--seconds]. *)
  let horizon =
    fi !seconds *. wl.virtual_per_s *. if !trace = 1 then 0.5 else 1.
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let o = open_loop wl ~seed:!seed ~horizon ~dir ~per_layer:(!trace = 1) in
      if !trace = 0 then report_end_to_end wl o
      else begin
        let r = replay wl ~seed:!seed ~dir ~loop:o in
        (* A journal record is its body plus a 12-byte frame: u32
           length, u32 CRC-32 and u32 record seq. *)
        let record_size =
          if o.journal_closes > 0 then (o.journal_bytes / o.journal_closes) - 12
          else 0
        in
        let m = micro ~g:(seeds_of !seed).micro ~dir ~record_size in
        report_per_layer wl o r m
      end;
      print_result ~attempted:o.attempted)
