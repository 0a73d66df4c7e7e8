(* Regenerate the paper's tables and figures.  `experiments all`
   reproduces the full evaluation; `-j N` runs the batch sections
   (coverage, tab3, tab4) as campaigns on N domains; `--trace FILE`
   writes a Chrome trace_event timeline of the campaign jobs. *)

open Cmdliner

let sections =
  [ ("fig1", "Figure 1: CERT advisory breakdown",
     fun _ _ -> Ptaint_experiments.Experiments.fig1 ());
    ("tab1", "Table 1: taint propagation rules",
     fun _ _ -> Ptaint_experiments.Experiments.tab1 ());
    ("fig2", "Figure 2: attack anatomies",
     fun _ _ -> Ptaint_experiments.Experiments.fig2 ());
    ("fig3", "Figure 3: architecture / pipeline",
     fun _ _ -> Ptaint_experiments.Experiments.fig3 ());
    ("syn", "Section 5.1.1: synthetic detections",
     fun _ _ -> Ptaint_experiments.Experiments.synthetic ());
    ("tab2", "Table 2: WU-FTPD transcript",
     fun _ _ -> Ptaint_experiments.Experiments.tab2 ());
    ("real", "Section 5.1.2: real-world attacks",
     fun _ _ -> Ptaint_experiments.Experiments.real_world ());
    ("coverage", "Section 5.1: coverage matrix",
     fun domains trace -> Ptaint_experiments.Experiments.coverage ?domains ?trace ());
    ("tab3", "Table 3: false positives",
     fun domains trace -> Ptaint_experiments.Experiments.tab3 ?domains ?trace ());
    ("tab4", "Table 4: false negatives",
     fun domains trace -> Ptaint_experiments.Experiments.tab4 ?domains ?trace ());
    ("overhead", "Section 5.4: overhead",
     fun _ _ -> Ptaint_experiments.Experiments.overhead ());
    ("ablation", "design-choice ablation",
     fun _ _ -> Ptaint_experiments.Experiments.ablation ());
    ("ext", "section 5.3 annotation extension",
     fun _ _ -> Ptaint_experiments.Experiments.extension ());
    ("resilience", "fault injection into the detector + hardened runtime",
     fun domains trace -> Ptaint_experiments.Experiments.resilience ?domains ?trace ());
    ("gen", "generative campaign: seeded program/attack synthesis",
     fun domains _ -> Ptaint_experiments.Experiments.generative ?domains ());
    ("all", "everything",
     fun domains trace -> Ptaint_experiments.Experiments.all ?domains ?trace ()) ]

let run domains trace_file names =
  let names = if names = [] then [ "all" ] else names in
  let trace = Option.map (fun _ -> Ptaint_obs.Chrome.create ()) trace_file in
  let ok =
    List.for_all
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) sections with
        | Some (_, _, f) ->
          print_string (f domains trace);
          print_newline ();
          true
        | None ->
          Printf.eprintf "unknown section %S; known: %s\n" name
            (String.concat ", " (List.map (fun (n, _, _) -> n) sections));
          false)
      names
  in
  (match (trace_file, trace) with
   | Some file, Some ch ->
     Ptaint_obs.Chrome.write_file ch file;
     Printf.eprintf "wrote %d trace events to %s\n" (Ptaint_obs.Chrome.event_count ch) file
   | _ -> ());
  if ok then 0 else 1

let domains_arg =
  let doc =
    "Execute the batch sections (coverage, tab3, tab4) on $(docv) domains. \
     Defaults to the machine's recommended domain count; -j 1 forces the \
     sequential reference run."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON timeline of the campaign jobs run by the \
     batch sections to $(docv) (one span per job, one track per worker domain). \
     Load it in chrome://tracing or ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let names_arg =
  let doc =
    "Sections to regenerate: " ^ String.concat ", " (List.map (fun (n, d, _) -> n ^ " (" ^ d ^ ")") sections)
  in
  Arg.(value & pos_all string [] & info [] ~docv:"SECTION" ~doc)

let cmd =
  let doc = "regenerate the tables and figures of the pointer-taintedness paper" in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ domains_arg $ trace_arg $ names_arg)

let () = exit (Cmd.eval' cmd)
