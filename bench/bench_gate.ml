(* CI regression gate over the bench trajectory.

   Reads two BENCH_*.json files (the committed baseline and a freshly
   measured run), matches entries by (op, field, n, t, m), and fails
   when any deterministic op count regresses beyond the tolerance band,
   a plan path's allocated-words-per-op leaves its own (tighter) band,
   or an entry disappears. Wall-clock ns are reported for context but
   never gated — they move with the runner; op counts and steady-state
   allocation do not.

   The image has no JSON library, so this carries a small
   recursive-descent parser for the subset the bench schema uses
   (objects, arrays, strings, numbers, booleans, null). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* --- parser ------------------------------------------------------- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> malformed "expected %c at byte %d, found %c" ch c.pos x
  | None -> malformed "expected %c at byte %d, found end of input" ch c.pos

let parse_literal c word value =
  String.iter (fun ch -> expect c ch) word;
  value

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> malformed "unterminated string at byte %d" c.pos
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some (('"' | '\\' | '/') as ch) -> advance c; Buffer.add_char buf ch; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then
              malformed "truncated \\u escape at byte %d" c.pos;
            let hex = String.sub c.src c.pos 4 in
            c.pos <- c.pos + 4;
            let code = int_of_string ("0x" ^ hex) in
            (* The bench files are ASCII; anything beyond is replaced. *)
            Buffer.add_char buf
              (if code < 0x80 then Char.chr code else '?');
            go ()
        | _ -> malformed "bad escape at byte %d" c.pos)
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> malformed "bad number %S at byte %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' -> parse_obj c
  | Some '[' -> parse_arr c
  | Some '"' -> Str (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some ch -> malformed "unexpected %c at byte %d" ch c.pos
  | None -> malformed "unexpected end of input"

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then (advance c; Obj [])
  else begin
    let rec members acc =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let value = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; members ((key, value) :: acc)
      | Some '}' -> advance c; Obj (List.rev ((key, value) :: acc))
      | _ -> malformed "expected , or } at byte %d" c.pos
    in
    members []
  end

and parse_arr c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then (advance c; Arr [])
  else begin
    let rec elements acc =
      let value = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; elements (value :: acc)
      | Some ']' -> advance c; Arr (List.rev (value :: acc))
      | _ -> malformed "expected , or ] at byte %d" c.pos
    in
    elements []
  end

let parse src =
  let c = { src; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length src then
    malformed "trailing garbage at byte %d" c.pos;
  v

(* --- accessors ---------------------------------------------------- *)

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> malformed "missing field %S" key)
  | _ -> malformed "field %S looked up on a non-object" key

let to_str = function Str s -> s | _ -> malformed "expected a string"
let to_num = function Num f -> f | _ -> malformed "expected a number"
let to_int j = int_of_float (to_num j)
let to_arr = function Arr l -> l | _ -> malformed "expected an array"

(* --- bench schema -------------------------------------------------- *)

type entry = {
  op : string;
  field : string;
  n : int;
  t : int;
  m : int;
  naive_ns : float;
  naive_mults : int;
  plan_ns : float;
  plan_mults : int;
  plan_alloc_w : float option;
      (* allocated words per op; None in schema-1 files, which predate
         allocation tracking *)
}

type file = { mode : string; entries : entry list }

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let entry_of_json j =
  {
    op = to_str (member "op" j);
    field = to_str (member "field" j);
    n = to_int (member "n" j);
    t = to_int (member "t" j);
    m = to_int (member "m" j);
    naive_ns = to_num (member "naive_ns_per_op" j);
    naive_mults = to_int (member "naive_mults_per_op" j);
    plan_ns = to_num (member "plan_ns_per_op" j);
    plan_mults = to_int (member "plan_mults_per_op" j);
    plan_alloc_w = Option.map to_num (member_opt "plan_alloc_w_per_op" j);
  }

(* Both the original PR-3 schema and the PR-8 one (which adds the
   alloc_w columns) parse; alloc gating simply disengages against a
   schema-1 baseline. *)
let read_file path =
  let j = parse (In_channel.with_open_bin path In_channel.input_all) in
  let schema = to_str (member "schema" j) in
  if schema <> "dprbg-bench-pr3/1" && schema <> "dprbg-bench/2" then
    malformed "%s: unknown schema %S" path schema;
  {
    mode = to_str (member "mode" j);
    entries = List.map entry_of_json (to_arr (member "entries" j));
  }

let key e = (e.op, e.field, e.n, e.t, e.m)

let key_str (op, field, n, t, m) =
  Printf.sprintf "%s %s n=%d t=%d M=%d" op field n t m

(* --- gate ---------------------------------------------------------- *)

(* An op count regresses when fresh > base * (1 + tolerance). Exact
   counters, so improvements and sub-tolerance noise (there is none:
   the counts are deterministic) both pass. *)
let regressed ~tolerance ~base ~fresh =
  float_of_int fresh > float_of_int base *. (1. +. tolerance)

let delta_pct ~base ~fresh =
  if base = 0 then if fresh = 0 then 0. else infinity
  else 100. *. (float_of_int fresh -. float_of_int base) /. float_of_int base

(* Allocation band: allocated words per op are deterministic up to
   cache-warm effects, but near-zero entries (the arena paths) would
   turn a few stray words into an infinite relative delta, so the band
   is relative tolerance plus a small absolute slack. *)
let alloc_slack_w = 16.

let alloc_regressed ~alloc_tolerance ~base ~fresh =
  fresh > (base *. (1. +. alloc_tolerance)) +. alloc_slack_w

(* Prints a markdown delta table (for $GITHUB_STEP_SUMMARY) and returns
   true iff the fresh run passes the gate against the baseline. *)
let run ~tolerance ?(alloc_tolerance = 0.10) ~baseline_path ~fresh_path () =
  let baseline = read_file baseline_path in
  let fresh = read_file fresh_path in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if baseline.mode <> fresh.mode then
    fail "mode mismatch: baseline is %S, fresh is %S (compare like with like)"
      baseline.mode fresh.mode;
  Printf.printf
    "## Bench gate: %s vs %s (mode %s, tolerance +%.0f%%, alloc +%.0f%%)\n\n"
    fresh_path baseline_path baseline.mode (100. *. tolerance)
    (100. *. alloc_tolerance);
  Printf.printf
    "| op | params | plan mults | Δ | naive mults | Δ | plan alloc w/op | \
     plan ns/op | status |\n";
  Printf.printf "|---|---|---|---|---|---|---|---|---|\n";
  let pp_alloc = function Some w -> Printf.sprintf "%.0f" w | None -> "—" in
  List.iter
    (fun b ->
      match List.find_opt (fun f -> key f = key b) fresh.entries with
      | None ->
          fail "entry disappeared: %s" (key_str (key b));
          Printf.printf
            "| %s | n=%d t=%d M=%d | %d | — | %d | — | — | — | MISSING |\n"
            b.op b.n b.t b.m b.plan_mults b.naive_mults
      | Some f ->
          let plan_bad =
            regressed ~tolerance ~base:b.plan_mults ~fresh:f.plan_mults
          in
          let naive_bad =
            regressed ~tolerance ~base:b.naive_mults ~fresh:f.naive_mults
          in
          let alloc_bad =
            match (b.plan_alloc_w, f.plan_alloc_w) with
            | Some base, Some fresh ->
                alloc_regressed ~alloc_tolerance ~base ~fresh
            | _ -> false
          in
          if plan_bad then
            fail "%s: plan mults regressed %d -> %d (+%.1f%%)"
              (key_str (key b)) b.plan_mults f.plan_mults
              (delta_pct ~base:b.plan_mults ~fresh:f.plan_mults);
          if naive_bad then
            fail "%s: naive mults regressed %d -> %d (+%.1f%%)"
              (key_str (key b)) b.naive_mults f.naive_mults
              (delta_pct ~base:b.naive_mults ~fresh:f.naive_mults);
          if alloc_bad then
            fail "%s: plan allocations regressed %s -> %s words/op"
              (key_str (key b))
              (pp_alloc b.plan_alloc_w) (pp_alloc f.plan_alloc_w);
          Printf.printf
            "| %s | n=%d t=%d M=%d | %d → %d | %+.1f%% | %d → %d | %+.1f%% | \
             %s → %s | %.0f → %.0f | %s |\n"
            b.op b.n b.t b.m b.plan_mults f.plan_mults
            (delta_pct ~base:b.plan_mults ~fresh:f.plan_mults)
            b.naive_mults f.naive_mults
            (delta_pct ~base:b.naive_mults ~fresh:f.naive_mults)
            (pp_alloc b.plan_alloc_w) (pp_alloc f.plan_alloc_w)
            b.plan_ns f.plan_ns
            (if plan_bad || naive_bad || alloc_bad then "**FAIL**" else "ok"))
    baseline.entries;
  List.iter
    (fun f ->
      if not (List.exists (fun b -> key b = key f) baseline.entries) then
        Printf.printf
          "| %s | n=%d t=%d M=%d | %d (new) | — | %d (new) | — | %s | \
           %.0f | new |\n"
          f.op f.n f.t f.m f.plan_mults f.naive_mults (pp_alloc f.plan_alloc_w)
          f.plan_ns)
    fresh.entries;
  Printf.printf "\n";
  match List.rev !failures with
  | [] ->
      Printf.printf "Gate passed: no op-count regression beyond +%.0f%%.\n"
        (100. *. tolerance);
      true
  | fs ->
      List.iter (fun s -> Printf.printf "- **GATE FAILURE**: %s\n" s) fs;
      false
