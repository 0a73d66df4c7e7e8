type t = { buf : Buffer.t; mutable count : int }

let create () = { buf = Buffer.create 4096; count = 0 }
let event_count t = t.count

let add_args buf args =
  Buffer.add_string buf ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
    args;
  Buffer.add_char buf '}'

let raw_event t ~ph ~name ~cat ~pid ~tid ~ts ?dur ~args () =
  if t.count > 0 then Buffer.add_string t.buf ",\n";
  t.count <- t.count + 1;
  Buffer.add_string t.buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f" (Json.escape name)
       (Json.escape cat) ph ts);
  (match dur with Some d -> Buffer.add_string t.buf (Printf.sprintf ",\"dur\":%.3f" d) | None -> ());
  Buffer.add_string t.buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid tid);
  (* Perfetto scopes instants to the thread track *)
  if ph = "i" then Buffer.add_string t.buf ",\"s\":\"t\"";
  if args <> [] then add_args t.buf args;
  Buffer.add_char t.buf '}'

let complete t ~name ?(cat = "ptaint") ?(pid = 1) ~tid ~ts_us ~dur_us ?(args = []) () =
  raw_event t ~ph:"X" ~name ~cat ~pid ~tid ~ts:ts_us ~dur:dur_us ~args ()

let instant t ~name ?(cat = "ptaint") ?(pid = 1) ~tid ~ts_us ?(args = []) () =
  raw_event t ~ph:"i" ~name ~cat ~pid ~tid ~ts:ts_us ~args ()

(* One guest cycle renders as one microsecond: the timeline stays
   proportional and deterministic, whatever the host clock did.
   [pid] partitions the timeline per process, so client- and
   daemon-side traces of the same jobs merge without colliding. *)
let add_event t ?pid ?(tid = 0) ev =
  let us cycle = float_of_int cycle in
  let instant = instant ?pid in
  match (ev : Event.t) with
  | Event.Taint_in { cycle; source; addr; len; offset } ->
    instant t ~name:("taint-in " ^ source) ~cat:"taint" ~tid ~ts_us:(us cycle)
      ~args:
        [ ("addr", Printf.sprintf "0x%08x" addr); ("len", string_of_int len);
          ("input-offset", string_of_int offset) ]
      ()
  | Event.Reg_taint { cycle; pc; reg } ->
    instant t ~name:("first taint $" ^ reg) ~cat:"taint" ~tid ~ts_us:(us cycle)
      ~args:[ ("pc", Printf.sprintf "0x%08x" pc) ] ()
  | Event.Tainted_store { cycle; pc; addr; len; region } ->
    instant t ~name:("tainted store to " ^ region) ~cat:"taint" ~tid ~ts_us:(us cycle)
      ~args:
        [ ("pc", Printf.sprintf "0x%08x" pc); ("addr", Printf.sprintf "0x%08x" addr);
          ("len", string_of_int len) ]
      ()
  | Event.Alert { cycle; pc; kind; reg; value } ->
    instant t ~name:("ALERT: " ^ kind) ~cat:"alert" ~tid ~ts_us:(us cycle)
      ~args:
        [ ("pc", Printf.sprintf "0x%08x" pc); ("reg", "$" ^ reg);
          ("value", Printf.sprintf "0x%08x" value) ]
      ()
  | Event.Fault { cycle; pc; desc } ->
    instant t ~name:"fault" ~cat:"alert" ~tid ~ts_us:(us cycle)
      ~args:[ ("pc", Printf.sprintf "0x%08x" pc); ("desc", desc) ] ()
  | Event.Syscall { cycle; pc; name } ->
    instant t ~name:("sys " ^ name) ~cat:"syscall" ~tid ~ts_us:(us cycle)
      ~args:[ ("pc", Printf.sprintf "0x%08x" pc) ] ()
  | Event.Restore { cycle } -> instant t ~name:"snapshot restore" ~cat:"sim" ~tid ~ts_us:(us cycle) ()
  | Event.Fault_injected { cycle; model; target } ->
    instant t ~name:("fault injected: " ^ model) ~cat:"fault" ~tid ~ts_us:(us cycle)
      ~args:[ ("target", target) ] ()

let add_events t ?pid ?tid evs = List.iter (add_event t ?pid ?tid) evs

(* Host wall clock, unlike the guest-timed events above: epoch
   microseconds, so every process's spans of the same jobs merge
   without realignment. *)
let job_span t ~name ~cat ?pid ~tid ~started ~finished ~outcome ?(args = []) ?trace () =
  let correlation =
    match trace with
    | None -> []
    | Some (id, span) -> [ ("trace", Log.hex_id id); ("span", string_of_int span) ]
  in
  complete t ~name ~cat ?pid ~tid ~ts_us:(started *. 1e6)
    ~dur_us:((finished -. started) *. 1e6)
    ~args:((("outcome", outcome) :: args) @ correlation)
    ()

let contents t =
  Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n" (Buffer.contents t.buf)

let write_file t path =
  let oc = open_out path in
  output_string oc (contents t);
  close_out oc
