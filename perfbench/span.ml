(* In-memory span recorder for the traced benchmark runs.

   Spans are opened only from the benchmark's own files, around calls
   into public functions of the libraries, so the program under test is
   unchanged. Each span records its name, start, duration and nesting
   depth; the self time of a name is its spans' durations minus the
   parts covered by child spans. Events stay in memory and are written
   as Chrome trace-event JSON once the run is over. When tracing is off
   [with_] is a single branch around the call. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type frame = { name : string; start : float; mutable child : float }

type totals = {
  mutable self_ns : float;
  mutable total_ns : float;
  mutable calls : int;
}

type event = { ev_name : string; ev_start : float; ev_dur : float; depth : int }

let enabled = ref false
let stack : frame list ref = ref []
let events : event list ref = ref []
let table : (string, totals) Hashtbl.t = Hashtbl.create 16

let reset () =
  stack := [];
  events := [];
  Hashtbl.reset table

let totals name =
  match Hashtbl.find_opt table name with
  | Some t -> t
  | None ->
      let t = { self_ns = 0.; total_ns = 0.; calls = 0 } in
      Hashtbl.replace table name t;
      t

let close fr =
  let dur = now_ns () -. fr.start in
  let depth = List.length !stack - 1 in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  (match !stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
  let t = totals fr.name in
  t.self_ns <- t.self_ns +. (dur -. fr.child);
  t.total_ns <- t.total_ns +. dur;
  t.calls <- t.calls + 1;
  events := { ev_name = fr.name; ev_start = fr.start; ev_dur = dur; depth }
            :: !events

let with_ name f =
  if not !enabled then f ()
  else begin
    let fr = { name; start = now_ns (); child = 0. } in
    stack := fr :: !stack;
    match f () with
    | r ->
        close fr;
        r
    | exception e ->
        close fr;
        raise e
  end

(* Self and total time of a span name, in ns; 0 when it never ran. *)
let self_ns name =
  match Hashtbl.find_opt table name with Some t -> t.self_ns | None -> 0.

let total_ns name =
  match Hashtbl.find_opt table name with Some t -> t.total_ns | None -> 0.

let calls name =
  match Hashtbl.find_opt table name with Some t -> t.calls | None -> 0

(* Sum of self times over every span whose name is not [root]: the time
   the layers account for inside the root spans. *)
let layer_self_ns ~root =
  Hashtbl.fold
    (fun name t acc -> if String.equal name root then acc else acc +. t.self_ns)
    table 0.

(* Chrome trace-event JSON ("X" complete events, µs), loadable in
   Perfetto or chrome://tracing. *)
let write_chrome path =
  let evs = List.rev !events in
  let t0 =
    List.fold_left (fun m e -> Float.min m e.ev_start) infinity evs
  in
  let buf = Buffer.create (64 * (List.length evs + 1)) in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      Printf.bprintf buf
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
         %.3f, \"dur\": %.3f, \"args\": {\"depth\": %d}}"
        (if i = 0 then "" else ",\n")
        e.ev_name
        ((e.ev_start -. t0) /. 1e3)
        (e.ev_dur /. 1e3) e.depth)
    evs;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Canopy_util.Atomic_file.mkdir_p (Filename.dirname path);
  Canopy_util.Atomic_file.write path (Buffer.contents buf)
