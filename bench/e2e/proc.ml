(* ptaintd processes started by the benchmark, and what /proc and the
   daemon's own scrape say about them.  Every daemon started here is
   stopped and reaped here, on success and on failure alike. *)

module Client = Ptaint_daemon.Client

type backend = In_process | Isolated

type daemon = { pid : int; sock : string; client : Client.t }

let now = Unix.gettimeofday

let rec waitpid_nointr flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nointr flags pid

(* SIGTERM asks for a graceful drain; a daemon that has not exited
   after [grace] seconds is killed.  Either way it is reaped. *)
let reap ?(grace = 20.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match waitpid_nointr [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_nointr [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let spawn ~ptaintd ~sock ~workers ?trace backend =
  unlink_quiet sock;
  let args =
    [ ptaintd; "--socket"; sock; "--quiet" ]
    @ (match backend with
       | In_process -> [ "-j"; string_of_int workers ]
       | Isolated -> [ "--isolate"; "--workers"; string_of_int workers ])
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process ptaintd (Array.of_list args) devnull devnull Unix.stderr)
  in
  let give_up msg = reap ~grace:1. pid; unlink_quiet sock; failwith msg in
  let deadline = now () +. 20. in
  let rec wait_bound () =
    match waitpid_nointr [ Unix.WNOHANG ] pid with
    | 0, _ when Sys.file_exists sock -> ()
    | 0, _ when now () < deadline -> Unix.sleepf 0.001; wait_bound ()
    | 0, _ -> give_up "ptaintd did not bind its socket within 20 s"
    | _ -> unlink_quiet sock; failwith "ptaintd exited during start-up"
  in
  wait_bound ();
  match Client.connect ~client:"e2e" ~retries:20 ~backoff:0.002 sock with
  | client -> { pid; sock; client }
  | exception e -> give_up ("cannot connect to ptaintd: " ^ Printexc.to_string e)

let stop d =
  (try Client.close d.client with _ -> ());
  reap d.pid;
  unlink_quiet d.sock

let with_daemon ~ptaintd ~sock ~workers ?trace backend f =
  let d = spawn ~ptaintd ~sock ~workers ?trace backend in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

(* --- /proc --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report length 0; read them line by line instead. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* Peak resident set (VmHWM) of one process, in KiB; 0 once it is gone. *)
let hwm_kb who =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | n :: _ -> int_of_string n
        | [] -> acc)
      | _ -> acc)
    0
    (read_lines (Printf.sprintf "/proc/%s/status" who))

let children pid =
  let parent_of p =
    match read_lines (Printf.sprintf "/proc/%s/stat" p) with
    | line :: _ -> (
      (* the command name may hold spaces and parentheses: the state
         and parent fields follow the last ')' *)
      let after = String.rindex line ')' + 2 in
      match String.split_on_char ' ' (String.sub line after (String.length line - after)) with
      | _state :: ppid :: _ -> int_of_string_opt ppid
      | _ -> None)
    | [] -> None
  in
  Array.to_list (Sys.readdir "/proc")
  |> List.filter (fun p -> p <> "" && p.[0] >= '0' && p.[0] <= '9' && parent_of p = Some pid)

let self_peak_rss_mb () = float_of_int (hwm_kb "self") /. 1024.

(* Start a new peak: the kernel sets this process's VmHWM back to its
   current resident set. *)
let reset_self_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* A daemon's footprint: ptaintd itself plus its worker processes. *)
let daemon_peak_rss_mb pid =
  let kb = List.fold_left (fun acc c -> acc + hwm_kb c) (hwm_kb (string_of_int pid)) (children pid) in
  float_of_int kb /. 1024.

(* --- Prometheus scrape --- *)

(* Sum of every sample of family member [name], across label sets. *)
let scrape_value text name =
  List.fold_left
    (fun acc line ->
      if line = "" || line.[0] = '#' then acc
      else
        let stop =
          match String.index_opt line '{' with
          | Some i -> i
          | None -> ( match String.index_opt line ' ' with Some i -> i | None -> String.length line)
        in
        if String.sub line 0 stop <> name then acc
        else
          let v = String.sub line (String.rindex line ' ' + 1) (String.length line - String.rindex line ' ' - 1) in
          match float_of_string_opt v with Some v -> acc +. v | None -> acc)
    0.
    (String.split_on_char '\n' text)
