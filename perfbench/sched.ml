module Arrivals = struct
  type t = { g : Prng.t; rate : float; mutable next : float }

  (* U uniform on (0, 1] from 53 bits, so log U is always finite. *)
  let gap g rate =
    let u = (float_of_int (Prng.bits g 53) +. 1.) /. 9007199254740992. in
    -.log u /. rate

  let create ~rate g =
    if not (rate > 0.) then invalid_arg "Sched.Arrivals.create: rate";
    { g; rate; next = gap g rate }

  let peek a = a.next

  let pop a =
    let due = a.next in
    a.next <- due +. gap a.g a.rate;
    due
end

let tick_time ~period k = float_of_int k *. period

type action = Admit | Close of { first : int; last : int } | Idle_until of float

let step ~period ~now ~due ~tick =
  let first = tick_time ~period tick in
  if due <= now && due <= first then Admit
  else if first <= now then begin
    let last = ref (max tick (int_of_float (now /. period))) in
    while tick_time ~period (!last + 1) <= now do incr last done;
    while !last > tick && tick_time ~period !last > now do decr last done;
    Close { first = tick; last = !last }
  end
  else Idle_until (Float.min due first)

let crashes ~snapshot_every ~offsets:(lo, hi) g =
  if not (0 <= lo && lo <= hi && hi <= snapshot_every - 2) then
    invalid_arg "Sched.crashes: offsets";
  let deck = Array.init (hi - lo + 1) (fun i -> lo + i) in
  let next = ref max_int in
  let prev = ref (-1) in
  fun () ->
    if !next >= Array.length deck then begin
      Prng.shuffle g deck;
      next := 0
    end;
    let o = deck.(!next) in
    incr next;
    let target =
      if !prev < 0 then snapshot_every + o
      else
        let m = !prev / snapshot_every and po = !prev mod snapshot_every in
        (snapshot_every * (m + if o > po then 1 else 2)) + o
    in
    prev := target;
    target
