(* Byte-for-byte golden files.  [check name got] compares [got] with
   goldens/<name>.txt (read relative to the build directory, which the
   test stanza's deps populate).  On a mismatch it writes the fresh dump
   next to the test binary as <name>.gen.txt, so copying that file over
   the golden re-records it, and fails at the first differing line. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check name got =
  let golden = Printf.sprintf "goldens/%s.txt" name in
  let gen = Printf.sprintf "%s.gen.txt" name in
  let want = read_file golden in
  if got <> want then begin
    Out_channel.with_open_bin gen (fun oc -> Out_channel.output_string oc got);
    let gl = String.split_on_char '\n' got
    and wl = String.split_on_char '\n' want in
    let rec first_diff i = function
      | g :: gs, w :: ws -> if g = w then first_diff (i + 1) (gs, ws) else (i, g, w)
      | g :: _, [] -> (i, g, "<end of golden>")
      | [], w :: _ -> (i, "<end of dump>", w)
      | [], [] -> (i, "", "")
    in
    let line, g, w = first_diff 1 (gl, wl) in
    Alcotest.failf
      "%s differs from %s at line %d\n  want: %s\n  got:  %s\n(full dump in %s)"
      name golden line w g gen
  end
