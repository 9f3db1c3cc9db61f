(* A line-by-line port of Stdlib.Array.sort.  Where the stdlib raises
   [Bottom i] from [maxson], this returns -1 and the caller does what the
   stdlib's handler did. *)
let sort_floats (a : float array) =
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i (e : float) =
    let j = maxson l i in
    if j >= 0 && Float.compare a.(j) e > 0 then begin
      a.(i) <- a.(j);
      trickle l j e
    end
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i (e : float) =
    let father = (i - 1) / 3 in
    assert (i <> father);
    if Float.compare a.(father) e < 0 then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end
