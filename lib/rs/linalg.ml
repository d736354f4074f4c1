module Make (F : Field_intf.S) = struct
  (* Row-reduce the augmented matrix [a | b] to row-echelon form, then
     back-substitute. Partial pivoting is unnecessary over a finite
     field; any non-zero pivot does. *)

  let reduce rows cols a =
    let pivot_col = Array.make rows (-1) in
    let r = ref 0 in
    for c = 0 to cols - 1 do
      if !r < rows then begin
        (* Find a row at or below !r with a non-zero entry in column c. *)
        let rec find i =
          if i >= rows then None
          else if not (F.equal a.(i).(c) F.zero) then Some i
          else find (i + 1)
        in
        match find !r with
        | None -> ()
        | Some i ->
            let tmp = a.(i) in
            a.(i) <- a.(!r);
            a.(!r) <- tmp;
            let inv = F.inv a.(!r).(c) in
            let width = Array.length a.(!r) in
            for j = c to width - 1 do
              a.(!r).(j) <- F.mul inv a.(!r).(j)
            done;
            for i = 0 to rows - 1 do
              if i <> !r && not (F.equal a.(i).(c) F.zero) then begin
                let f = a.(i).(c) in
                for j = c to width - 1 do
                  a.(i).(j) <- F.sub a.(i).(j) (F.mul f a.(!r).(j))
                done
              end
            done;
            pivot_col.(!r) <- c;
            incr r
      end
    done;
    pivot_col

  let solve a b =
    let rows = Array.length a in
    if rows = 0 then Some [||]
    else begin
      let cols = Array.length a.(0) in
      let aug =
        Array.init rows (fun i ->
            Array.init (cols + 1) (fun j -> if j < cols then a.(i).(j) else b.(i)))
      in
      let pivot_col = reduce rows cols aug in
      (* Inconsistent iff a fully-zero coefficient row has non-zero rhs. *)
      let consistent = ref true in
      for i = 0 to rows - 1 do
        if pivot_col.(i) = -1 then begin
          let all_zero = ref true in
          for j = 0 to cols - 1 do
            if not (F.equal aug.(i).(j) F.zero) then all_zero := false
          done;
          if !all_zero && not (F.equal aug.(i).(cols) F.zero) then
            consistent := false
        end
      done;
      if not !consistent then None
      else begin
        let x = Array.make cols F.zero in
        for i = 0 to rows - 1 do
          if pivot_col.(i) >= 0 then begin
            (* Reduced form: x_(pivot) = rhs - sum of free columns; free
               variables are zero, and full reduction already cleared
               other pivot columns, so the row reads off directly except
               for free columns, which we subtract. *)
            let c = pivot_col.(i) in
            let v = ref aug.(i).(cols) in
            for j = c + 1 to cols - 1 do
              if not (F.equal x.(j) F.zero) then
                v := F.sub !v (F.mul aug.(i).(j) x.(j))
            done;
            x.(c) <- !v
          end
        done;
        Some x
      end
    end
end
