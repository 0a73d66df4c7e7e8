type t = (string, string) Hashtbl.t

let create () : t = Hashtbl.create 16
let add t ~path content = Hashtbl.replace t path content
let read t ~path = Hashtbl.find_opt t path
let exists t ~path = Hashtbl.mem t path

let append t ~path s =
  let existing = Option.value ~default:"" (Hashtbl.find_opt t path) in
  Hashtbl.replace t path (existing ^ s)

let truncate t ~path = Hashtbl.replace t path ""
