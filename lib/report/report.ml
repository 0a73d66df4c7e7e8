let table ~headers rows =
  let all = headers :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let pad r = r @ List.init (ncols - List.length r) (fun _ -> "") in
  let all = List.map pad all in
  let widths =
    List.init ncols (fun c ->
        List.fold_left (fun m r -> max m (String.length (List.nth r c))) 0 all)
  in
  let render_row r =
    List.mapi
      (fun c cell -> cell ^ String.make (List.nth widths c - String.length cell) ' ')
      r
    |> String.concat "  " |> String.trim
  in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row (pad headers));
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (render_row r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let bar_chart ?(width = 50) rows =
  let maxv = List.fold_left (fun m (_, v) -> max m v) 1 rows in
  let label_w = List.fold_left (fun m (l, _) -> max m (String.length l)) 0 rows in
  let buf = Buffer.create 256 in
  List.iter
    (fun (label, v) ->
      let bar = String.make (max 0 (v * width / maxv)) '#' in
      Buffer.add_string buf
        (Printf.sprintf "%-*s %5d  %s\n" label_w label v bar))
    rows;
  Buffer.contents buf

let section title =
  let line = String.make (String.length title + 8) '=' in
  Printf.sprintf "%s\n=== %s ===\n%s\n" line title line

let kv pairs =
  let w = List.fold_left (fun m (k, _) -> max m (String.length k)) 0 pairs in
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%-*s : %s\n" w k v) pairs)

(* One counter per line, name left-padded to a fixed column so the
   output is awk-friendly (`$1 == "name" { print $2 }`): the format
   every counter dump in the toolchain shares — single-run
   `--metrics`, the generative campaign summaries. *)
let counters ?(width = 28) rows =
  String.concat ""
    (List.map (fun (name, v) -> Printf.sprintf "%-*s %d\n" width name v) rows)

let commas n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + 4) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
