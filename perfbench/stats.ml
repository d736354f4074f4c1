open Bigarray

type samples = {
  mutable data : (float, float32_elt, c_layout) Array1.t;
  mutable len : int;
  mutable total : float;
}

let create () =
  { data = Array1.create float32 c_layout 1024; len = 0; total = 0. }

let add s x =
  if s.len = Array1.dim s.data then begin
    let bigger = Array1.create float32 c_layout (2 * s.len) in
    Array1.blit s.data (Array1.sub bigger 0 s.len);
    s.data <- bigger
  end;
  Array1.unsafe_set s.data s.len x;
  s.len <- s.len + 1;
  s.total <- s.total +. x

let length s = s.len
let sum s = s.total

(* Hoare-partition quickselect: puts the [k]-th smallest (0-based) at
   index [k] and returns it. Median-of-three pivots keep sorted and
   constant inputs linear. *)
let select a len k =
  let swap i j =
    let x = Array1.get a i in
    Array1.set a i (Array1.get a j);
    Array1.set a j x
  in
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if Array1.get a mid < Array1.get a !lo then swap mid !lo;
    if Array1.get a !hi < Array1.get a !lo then swap !hi !lo;
    if Array1.get a !hi < Array1.get a mid then swap !hi mid;
    let pivot = Array1.get a mid in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while Array1.get a !i < pivot do incr i done;
      while Array1.get a !j > pivot do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  Array1.get a k

let percentile s p =
  if s.len = 0 then invalid_arg "Stats.percentile: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Stats.percentile: p";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int s.len)) in
  select s.data s.len (max 1 (min s.len rank) - 1)

let tail_rank n =
  if n < 20 then None
  else
    let p = Float.floor (100. *. (1. -. (10. /. float_of_int n))) in
    Some (Float.min 99. p)

type summary = { count : int; p50 : float; tail : (float * float) option }

let summarize s =
  if s.len = 0 then { count = 0; p50 = nan; tail = None }
  else
    let p50 = percentile s 50. in
    let tail = Option.map (fun p -> (p, percentile s p)) (tail_rank s.len) in
    { count = s.len; p50; tail }

let tail_value sm =
  match sm.tail with
  | Some (_, v) -> v
  | None -> if sm.count > 0 then sm.p50 else 0.

let label sm =
  if sm.count = 0 then "no samples"
  else
    match sm.tail with
    | Some (p, v) ->
        Printf.sprintf "p50 %.4g, p%g %.4g (n=%d)" sm.p50 p v sm.count
    | None -> Printf.sprintf "p50 %.4g, no tail (n=%d)" sm.p50 sm.count
