type mode = No_protection | Control_data_only | Pointer_taintedness

type t = {
  mode : mode;
  track : bool;
  compare_untaints : bool;
}

let default =
  { mode = Pointer_taintedness;
    track = true;
    compare_untaints = true }

let control_only = { default with mode = Control_data_only }
let unprotected = { default with mode = No_protection }
let baseline_no_tracking = { unprotected with track = false }
let detects_data_pointers t = t.mode = Pointer_taintedness
let detects_control t = t.mode = Control_data_only || t.mode = Pointer_taintedness
