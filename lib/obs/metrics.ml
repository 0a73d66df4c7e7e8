type labels = (string * string) list

type counter = { c_name : string; c_labels : labels; mutable count : int }

type gauge = { g_name : string; g_labels : labels; mutable value : float }

(* Histograms bucket by floor(log2 v) — 63 buckets cover any
   non-negative int-sized observation, and the fixed array keeps
   [observe] allocation-free. *)
type histogram = {
  h_name : string;
  h_labels : labels;
  buckets : int array;
  mutable h_count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* Identity of a metric child is (name, labels): the same name with
   different label sets forms a family of independent children.  The
   registration-order list renders rows and the exposition; lookups go
   through [index], which maps a name to its family's children, so a
   get-or-create costs one string hash plus a label compare per child
   of that one family, whatever the registry's size. *)
module Names = Hashtbl.Make (String)

type t = {
  mutable metrics : metric list;  (* newest first *)
  index : (labels * metric) list Names.t;
}

let create () = { metrics = []; index = Names.create 16 }

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let find t name labels =
  match Names.find_opt t.index name with
  | Some family -> List.assoc_opt labels family
  | None -> None

let register t name labels m =
  let family = Option.value ~default:[] (Names.find_opt t.index name) in
  Names.replace t.index name ((labels, m) :: family);
  t.metrics <- m :: t.metrics

let counter t ?(labels = []) name =
  match find t name labels with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
    let c = { c_name = name; c_labels = labels; count = 0 } in
    register t name labels (Counter c);
    c

let gauge t ?(labels = []) name =
  match find t name labels with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
    let g = { g_name = name; g_labels = labels; value = 0. } in
    register t name labels (Gauge g);
    g

let histogram t ?(labels = []) name =
  match find t name labels with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
    let h =
      { h_name = name; h_labels = labels; buckets = Array.make 63 0;
        h_count = 0; sum = 0.; minv = infinity; maxv = neg_infinity }
    in
    register t name labels (Histogram h);
    h

let inc ?(by = 1) c = c.count <- c.count + by

let set g v = g.value <- v

let bucket_of v =
  let v = int_of_float (Float.max v 0.) in
  let rec log2 v acc = if v <= 0 then acc else log2 (v lsr 1) (acc + 1) in
  min 62 (log2 v 0)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.sum <- h.sum +. v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let mean h = if h.h_count = 0 then 0. else h.sum /. float_of_int h.h_count

type row = {
  name : string;
  labels : labels;
  kind : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
}

let row_of = function
  | Counter c ->
    { name = c.c_name; labels = c.c_labels; kind = "counter"; count = c.count;
      sum = float_of_int c.count; min = 0.; max = 0.; mean = 0. }
  | Gauge g ->
    { name = g.g_name; labels = g.g_labels; kind = "gauge"; count = 0;
      sum = g.value; min = g.value; max = g.value; mean = g.value }
  | Histogram h ->
    { name = h.h_name; labels = h.h_labels; kind = "histogram"; count = h.h_count;
      sum = h.sum;
      min = (if h.h_count = 0 then 0. else h.minv);
      max = (if h.h_count = 0 then 0. else h.maxv);
      mean = mean h }

(* Registration order (metrics is newest-first). *)
let rows t = List.rev_map row_of t.metrics

(* {2 Prometheus text exposition, format 0.0.4}

   Families are grouped under one [# TYPE] header in registration
   order.  Histogram buckets are rendered cumulatively with [le]
   boundaries matching the internal log2 buckets: bucket 0 covers
   v <= 0 (le="0"), bucket i >= 1 covers values up to 2^i - 1, and
   [+Inf]/[_sum]/[_count] close the family.  Only buckets up to the
   highest populated one are emitted so an idle 63-bucket histogram
   does not dominate the exposition. *)

let sanitize_name name =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_' || c = ':'
  in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" then "_"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

let escape_label_value b v =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v

let add_labels b labels extra =
  let all = labels @ extra in
  if all <> [] then begin
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (sanitize_name k);
        Buffer.add_string b "=\"";
        escape_label_value b v;
        Buffer.add_char b '"')
      all;
    Buffer.add_char b '}'
  end

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let prometheus t =
  let b = Buffer.create 1024 in
  let ordered = List.rev t.metrics in
  (* family names, first-seen order *)
  let names =
    List.fold_left
      (fun acc m ->
        let n = metric_name m in
        if List.mem n acc then acc else n :: acc)
      [] ordered
    |> List.rev
  in
  List.iter
    (fun name ->
      let children = List.filter (fun m -> metric_name m = name) ordered in
      let pname = sanitize_name name in
      let kind =
        match children with
        | Counter _ :: _ -> "counter"
        | Gauge _ :: _ -> "gauge"
        | Histogram _ :: _ -> "histogram"
        | [] -> "untyped"
      in
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" pname kind);
      List.iter
        (fun m ->
          match m with
          | Counter c ->
            Buffer.add_string b pname;
            add_labels b c.c_labels [];
            Buffer.add_string b (Printf.sprintf " %d\n" c.count)
          | Gauge g ->
            Buffer.add_string b pname;
            add_labels b g.g_labels [];
            Buffer.add_char b ' ';
            Buffer.add_string b (prom_float g.value);
            Buffer.add_char b '\n'
          | Histogram h ->
            let top = ref 0 in
            Array.iteri (fun i n -> if n > 0 then top := i) h.buckets;
            let running = ref 0 in
            for i = 0 to !top do
              running := !running + h.buckets.(i);
              let le = if i = 0 then "0" else string_of_int ((1 lsl i) - 1) in
              Buffer.add_string b (pname ^ "_bucket");
              add_labels b h.h_labels [ ("le", le) ];
              Buffer.add_string b (Printf.sprintf " %d\n" !running)
            done;
            Buffer.add_string b (pname ^ "_bucket");
            add_labels b h.h_labels [ ("le", "+Inf") ];
            Buffer.add_string b (Printf.sprintf " %d\n" h.h_count);
            Buffer.add_string b (pname ^ "_sum");
            add_labels b h.h_labels [];
            Buffer.add_char b ' ';
            Buffer.add_string b (prom_float h.sum);
            Buffer.add_char b '\n';
            Buffer.add_string b (pname ^ "_count");
            add_labels b h.h_labels [];
            Buffer.add_string b (Printf.sprintf " %d\n" h.h_count))
        children)
    names;
  Buffer.contents b
