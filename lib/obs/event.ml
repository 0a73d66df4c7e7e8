type t =
  | Taint_in of { cycle : int; source : string; addr : int; len : int; offset : int }
  | Reg_taint of { cycle : int; pc : int; reg : string }
  | Tainted_store of { cycle : int; pc : int; addr : int; len : int; region : string }
  | Alert of { cycle : int; pc : int; kind : string; reg : string; value : int }
  | Fault of { cycle : int; pc : int; desc : string }
  | Syscall of { cycle : int; pc : int; name : string }
  | Restore of { cycle : int }
  | Fault_injected of { cycle : int; model : string; target : string }

let cycle = function
  | Taint_in { cycle; _ } | Reg_taint { cycle; _ } | Tainted_store { cycle; _ }
  | Alert { cycle; _ } | Fault { cycle; _ } | Syscall { cycle; _ } | Restore { cycle }
  | Fault_injected { cycle; _ } ->
    cycle

let to_string = function
  | Taint_in { cycle; source; addr; len; offset } ->
    Printf.sprintf
      "cycle %d: %s delivered %d tainted byte%s to 0x%08x..0x%08x (input bytes %d..%d)"
      cycle source len
      (if len = 1 then "" else "s")
      addr
      (addr + len - 1)
      offset
      (offset + len - 1)
  | Reg_taint { cycle; pc; reg } ->
    Printf.sprintf "cycle %d: first taint of $%s (pc 0x%08x)" cycle reg pc
  | Tainted_store { cycle; pc; addr; len; region } ->
    Printf.sprintf "cycle %d: first tainted store to %s: %d byte%s at 0x%08x (pc 0x%08x)"
      cycle region len
      (if len = 1 then "" else "s")
      addr pc
  | Alert { cycle; pc; kind; reg; value } ->
    Printf.sprintf "cycle %d: ALERT %s at pc 0x%08x ($%s = 0x%08x)" cycle kind pc reg value
  | Fault { cycle; pc; desc } -> Printf.sprintf "cycle %d: fault at pc 0x%08x: %s" cycle pc desc
  | Syscall { cycle; pc; name } ->
    Printf.sprintf "cycle %d: syscall %s (pc 0x%08x)" cycle name pc
  | Restore { cycle } -> Printf.sprintf "cycle %d: booted from snapshot restore" cycle
  | Fault_injected { cycle; model; target } ->
    Printf.sprintf "cycle %d: injected %s fault into %s" cycle model target
