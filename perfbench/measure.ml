(* What one workload run reports, and the helpers every workload uses to
   time operations, sample the GC and summarise latencies. *)

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

type report = {
  setups_s : float array;  (** the run's set-up times, one per repetition *)
  heap_peak_mb : float;
      (** peak major heap after set-up and the first repetition, so the
          reading does not depend on how many repetitions the run makes *)
  attempted : int;  (** operations attempted *)
  failed : int;  (** raised, non-finite, or failed a correctness check *)
  work : float;  (** units of work done by the timed operations *)
  op_ms : float array list;
      (** latencies of the timed parts, one array per repetition of the
          same operation sequence *)
  parts : int;  (** consecutive timed parts per operation *)
  named : metric list;  (** the workload's own end-to-end readings *)
  layers : metric list;  (** per-layer readings (traced runs only) *)
  failures : string list;  (** one line per failed check *)
}

let now_s () = Span.now_ns () /. 1e9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* How many repetitions a run makes: [seconds] over the workload's
   nominal repetition time, a constant. The count depends on --seconds
   only, not on how fast the code runs, so a faster and a slower version
   take their fastest repetition out of equally many. *)
let repetitions ~seconds ~nominal_s =
  max 3 (int_of_float (Float.ceil (seconds /. nominal_s)))

(* The process start, so that the first set-up also carries runtime and
   module initialisation. *)
let process_t0 = now_s ()

(* One timed set-up, from a fully collected heap; repetition 0 is
   counted from process start. *)
let timed_setup ~rep f =
  Gc.full_major ();
  let t0 = if rep = 0 then process_t0 else now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* The fastest of a run's set-ups, for [setup_s]. Set-ups are spread
   over the run, one before each repetition, and K is fixed, so this is
   the set-up's cost outside the host's slow stretches, as the operation
   timings are. Their median followed those stretches: 0.055 s against
   0.10 s for the same fleet set-up within one run. *)
let fastest xs = Array.fold_left Float.min infinity xs

let median xs =
  if Array.length xs = 0 then nan else Canopy_util.Stats.median xs

let percentile xs p =
  if Array.length xs = 0 then nan else Canopy_util.Stats.percentile xs p

type gc_mark = { minor_words : float; major_words : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.minor_words;
    major_words = s.major_words;
    promoted = s.promoted_words;
    majors = s.major_collections;
  }

(* Words allocated between two marks (minor + directly-major, without
   double-counting promotions). *)
let alloc_words a b =
  (b.minor_words -. a.minor_words)
  +. (b.major_words -. a.major_words)
  -. (b.promoted -. a.promoted)

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* Every run repeats one operation sequence a fixed number of times on
   identical inputs, each repetition after a fresh set-up and a fully
   collected heap. Per timed part, the fastest repetition: other tenants
   of a shared host slow the program by up to 1.7x for stretches of
   seconds to minutes, which leave brief quiet moments. The fastest of
   20 or more repetitions spread over a run is what the part costs the
   program when they do not; per-part medians followed the load instead,
   and spread three times as much across runs. The shorter the part, the
   likelier one of its repetitions falls in a quiet moment. *)
let best_of_reps = function
  | [] -> [||]
  | first :: _ as reps ->
      Array.init (Array.length first) (fun k ->
          List.fold_left (fun m a -> Float.min m a.(k)) infinity reps)

(* Operation latencies: the fastest repetitions of each operation's
   [parts] consecutive timed parts, summed. *)
let best_ops ~parts reps =
  let best = best_of_reps reps in
  Array.init (Array.length best / parts) (fun i ->
      Array.fold_left ( +. ) 0. (Array.sub best (i * parts) parts))

(* One repetition's time, in s, built from each operation's fastest
   repetition: the untraced time the end-to-end metrics stand for, which
   a traced pass is compared with. *)
let best_total_s reps = Array.fold_left ( +. ) 0. (best_of_reps reps) /. 1e3

(* Bit-for-bit float comparisons. *)
let bits a = Array.map Int64.bits_of_float a
let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
