(* BENCH_history.jsonl trajectory validator (--check-trajectory).

   Every bench run appends one row to the trajectory log; nothing ever
   rewrites it. This check re-reads the whole file each time, so merge
   damage, hand edits, encoder drift and duplicate keys are caught the
   run after they land instead of months later when someone finally
   plots the history. Unknown row schemas are fatal by design: the PR
   that starts emitting a new shape must teach this validator about it
   in the same change. *)

let fail fmt =
  Printf.ksprintf (fun s -> raise (Bench_gate.Malformed s)) fmt

(* The hand-rolled parser keeps every key-value pair, so repeated keys —
   which a lenient consumer would silently last-wins over — are still
   visible here. Checked recursively: a duplicate inside an ops entry is
   as damaging as one at top level. *)
let rec check_dup_keys = function
  | Bench_gate.Obj pairs ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (k, v) ->
          if Hashtbl.mem seen k then fail "duplicate key %S" k;
          Hashtbl.add seen k ();
          check_dup_keys v)
        pairs
  | Bench_gate.Arr l -> List.iter check_dup_keys l
  | Bench_gate.Null | Bench_gate.Bool _ | Bench_gate.Num _
  | Bench_gate.Str _ ->
      ()

let str j k = Bench_gate.to_str (Bench_gate.member k j)
let num j k = Bench_gate.to_num (Bench_gate.member k j)

let finite j k =
  let v = num j k in
  if not (Float.is_finite v) then fail "%S is not finite" k;
  v

let nonneg j k =
  let v = finite j k in
  if v < 0. then fail "%S is negative (%g)" k v;
  v

let nonneg_int j k =
  let v = nonneg j k in
  if Float.of_int (Float.to_int v) <> v then fail "%S is not an integer (%g)" k v;
  Float.to_int v

let str_in j k allowed =
  let v = str j k in
  if not (List.mem v allowed) then
    fail "%S is %S; expected one of %s" k v (String.concat "/" allowed);
  v

let arr_of_objs j k =
  List.map
    (function
      | Bench_gate.Obj _ as o -> o
      | _ -> fail "%S entries must be objects" k)
    (Bench_gate.to_arr (Bench_gate.member k j))

let opt_arr_of_objs j k =
  match Bench_gate.member_opt k j with
  | None -> []
  | Some _ -> arr_of_objs j k

(* "dprbg-bench-history/1": one row per bench --json run — kernel
   trajectory ops plus transport and chaos-recovery wall clocks.
   plan_alloc_w and the transport/chaos arrays postdate the earliest
   rows, so they stay optional; everything present must be sound. *)
let check_bench_history row =
  ignore (str_in row "mode" [ "smoke"; "full" ]);
  let ops = arr_of_objs row "ops" in
  if ops = [] then fail "\"ops\" must be non-empty";
  List.iter
    (fun op ->
      ignore (str op "op");
      ignore (nonneg_int op "plan_mults");
      ignore (nonneg_int op "naive_mults");
      ignore (nonneg op "plan_ns");
      ignore (nonneg op "naive_ns");
      match Bench_gate.member_opt "plan_alloc_w" op with
      | Some _ -> ignore (nonneg op "plan_alloc_w")
      | None -> ())
    ops;
  List.iter
    (fun r ->
      ignore (str r "backend");
      ignore (nonneg_int r "campaigns");
      ignore (nonneg r "wall_ns"))
    (opt_arr_of_objs row "transports");
  List.iter
    (fun r ->
      ignore (str r "backend");
      ignore (nonneg_int r "killed");
      ignore (nonneg r "wall_ns"))
    (opt_arr_of_objs row "chaos_recovery");
  List.iter
    (fun r ->
      let epochs = nonneg_int r "epochs" in
      let replays = nonneg_int r "replays" in
      if epochs = 0 || replays = 0 then
        fail "\"beacon_recovery\" must replay at least one epoch";
      ignore (nonneg r "wall_ns");
      ignore (nonneg r "epochs_per_s"))
    (opt_arr_of_objs row "beacon_recovery")

(* "dprbg-loadgen/1": one row per beacon loadgen run. *)
let check_loadgen row =
  ignore (str_in row "arrival" [ "poisson"; "bursty" ]);
  let rate = nonneg row "rate" in
  if rate = 0. then fail "\"rate\" must be positive";
  let draws = nonneg_int row "draws" in
  let epochs = nonneg_int row "epochs" in
  if draws > 0 && epochs = 0 then fail "%d draws vended across 0 epochs" draws;
  ignore (nonneg_int row "shed");
  ignore (nonneg row "draws_per_coin");
  ignore (nonneg row "p50_vend_ns");
  ignore (nonneg row "p99_vend_ns");
  ignore (nonneg row "elapsed_s");
  let sr = nonneg row "shed_rate" in
  if sr > 1. then fail "\"shed_rate\" is %g; must be in [0, 1]" sr

let known =
  [ ("dprbg-bench-history/1", check_bench_history);
    ("dprbg-loadgen/1", check_loadgen) ]

let check_row json =
  check_dup_keys json;
  let schema = str json "schema" in
  match List.assoc_opt schema known with
  | Some check -> check json
  | None ->
      fail
        "unknown row schema %S — the change that emits a new schema must \
         extend the trajectory validator to cover it"
        schema

let run ~path () =
  if not (Sys.file_exists path) then begin
    Printf.printf "trajectory: %s does not exist, nothing to validate\n" path;
    true
  end
  else begin
    let lines = In_channel.with_open_text path In_channel.input_lines in
    let counts = Hashtbl.create 4 in
    let errors = ref 0 in
    List.iteri
      (fun i line ->
        if String.trim line <> "" then
          match
            let json = Bench_gate.parse line in
            check_row json;
            json
          with
          | json ->
              let schema = str json "schema" in
              Hashtbl.replace counts schema
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts schema))
          | exception Bench_gate.Malformed msg ->
              incr errors;
              Printf.printf "trajectory: %s:%d: %s\n" path (i + 1) msg)
      lines;
    Hashtbl.fold (fun s c acc -> (s, c) :: acc) counts []
    |> List.sort compare
    |> List.iter (fun (s, c) ->
           Printf.printf "trajectory: %4d row(s) of %s\n" c s);
    if !errors = 0 then begin
      Printf.printf "trajectory: OK (%d line(s) in %s)\n" (List.length lines)
        path;
      true
    end
    else begin
      Printf.printf "trajectory: FAILED — %d bad row(s) in %s\n" !errors path;
      false
    end
  end
