type category =
  | Buffer_overflow
  | Format_string
  | Integer_overflow
  | Heap_corruption
  | Globbing
  | Other

type advisory = { id : string; year : int; subject : string; category : category }

let category_name = function
  | Buffer_overflow -> "buffer overflow"
  | Format_string -> "format string"
  | Integer_overflow -> "integer overflow"
  | Heap_corruption -> "heap corruption"
  | Globbing -> "globbing"
  | Other -> "other"

(* True for the five categories the paper's technique addresses. *)
let memory_corruption = function
  | Buffer_overflow | Format_string | Integer_overflow | Heap_corruption | Globbing -> true
  | Other -> false

(* Anchor advisories with their real identifiers; the rest of each
   year's quota is filled with representative synthesised entries so
   that the totals are 107 advisories, 72 (67%) in the five
   memory-corruption categories: 47 buffer overflow, 8 format string,
   6 integer overflow, 8 heap corruption, 3 globbing. *)
let anchors =
  [ { id = "CA-2000-06"; year = 2000; subject = "buffer overflows in Kerberos"; category = Buffer_overflow };
    { id = "CA-2000-13"; year = 2000; subject = "two input validation problems in FTPD (SITE EXEC format string)"; category = Format_string };
    { id = "CA-2000-17"; year = 2000; subject = "input validation problem in rpc.statd (format string)"; category = Format_string };
    { id = "CA-2001-19"; year = 2001; subject = "'Code Red' worm exploiting buffer overflow in IIS indexing service"; category = Buffer_overflow };
    { id = "CA-2001-26"; year = 2001; subject = "Nimda worm"; category = Buffer_overflow };
    { id = "CA-2001-33"; year = 2001; subject = "multiple vulnerabilities in WU-FTPD (heap corruption via ~{ globbing)"; category = Globbing };
    { id = "CA-2002-07"; year = 2002; subject = "double free bug in zlib compression library"; category = Heap_corruption };
    { id = "CA-2002-11"; year = 2002; subject = "heap overflow in Cachefs daemon (cachefsd)"; category = Heap_corruption };
    { id = "CA-2002-17"; year = 2002; subject = "Apache web server chunk handling (integer signedness)"; category = Integer_overflow };
    { id = "CA-2002-25"; year = 2002; subject = "integer overflow in XDR library"; category = Integer_overflow };
    { id = "CA-2002-33"; year = 2002; subject = "heap overflow vulnerability in Solaris X Window font service"; category = Heap_corruption };
    { id = "CA-2003-04"; year = 2003; subject = "MS-SQL server worm ('Slammer') exploiting stack overflow"; category = Buffer_overflow };
    { id = "CA-2003-12"; year = 2003; subject = "buffer overflow in Sendmail address parsing"; category = Buffer_overflow };
    { id = "CA-2003-16"; year = 2003; subject = "buffer overflow in Microsoft RPC (Blaster)"; category = Buffer_overflow };
    { id = "CA-2003-10"; year = 2003; subject = "integer overflow in Sun RPC XDR library"; category = Integer_overflow } ]

(* Category quotas beyond the anchors, spread across years. *)
let quota =
  [ (Buffer_overflow, 41); (Format_string, 6); (Integer_overflow, 3); (Heap_corruption, 5);
    (Globbing, 2); (Other, 35) ]

let subject_for category i =
  match category with
  | Buffer_overflow -> Printf.sprintf "buffer overflow in network service #%d" (i + 1)
  | Format_string -> Printf.sprintf "format string vulnerability in daemon #%d" (i + 1)
  | Integer_overflow -> Printf.sprintf "integer overflow in length handling #%d" (i + 1)
  | Heap_corruption -> Printf.sprintf "heap corruption / double free #%d" (i + 1)
  | Globbing -> Printf.sprintf "LibC glob() expansion vulnerability #%d" (i + 1)
  | Other ->
    let kinds =
      [| "weak default configuration"; "trust or authentication flaw"; "malicious scripting";
         "denial of service"; "race condition"; "directory traversal"; "protocol design flaw";
         "cryptographic weakness" |]
    in
    Printf.sprintf "%s #%d" kinds.(i mod Array.length kinds) (i + 1)

let advisories =
  let filled =
    List.concat_map
      (fun (category, n) ->
        List.init n (fun i ->
            let year = 2000 + ((i * 7) mod 4) in
            { id = Printf.sprintf "CA-%d-R%02d" year (i + 40);
              year;
              subject = subject_for category i;
              category }))
      quota
  in
  anchors @ filled

let breakdown () =
  let count category =
    List.length (List.filter (fun a -> a.category = category) advisories)
  in
  let cats =
    [ Buffer_overflow; Format_string; Integer_overflow; Heap_corruption; Globbing; Other ]
  in
  List.map (fun c -> (c, count c)) cats
  |> List.sort (fun (a, na) (b, nb) ->
         match (memory_corruption a, memory_corruption b) with
         | true, false -> -1
         | false, true -> 1
         | _ -> compare nb na)

let memory_corruption_share () =
  let total = List.length advisories in
  let mem = List.length (List.filter (fun a -> memory_corruption a.category) advisories) in
  (mem, total, 100.0 *. float_of_int mem /. float_of_int total)
