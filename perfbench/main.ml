(* The Canopy benchmark: one workload per run, closed loop, load from
   one process at a time (see [processes]). Prints the workload's own readings by name, then as the last
   line one JSON object: with --trace 0 the end-to-end metrics, with
   --trace 1 the per-layer metrics of a separate traced pass.

     sh perfbench/run.sh \
       --workload train|fleet_steady \
       --seed N --seconds S --trace 0|1

   --derive retrains the committed serving actor from its fixed
   configuration and exits 0 only if the result matches
   perfbench/actor.ckpt byte for byte. *)

(* The domain pool is sized here, not from CANOPY_DOMAINS or the core
   count: one domain keeps runs comparable across hosts and makes the
   per-layer self times add up to the wall time. *)
let domains = 1

(* A run is split over [processes] processes, one after another: this
   one and [processes - 1] children, each measuring its share of
   --seconds. On the host the benchmark was tuned on, about one process
   in five ran 1.5–1.7x slower from its first repetition to its last,
   whatever its inputs, while the runs before and after it did not; the
   fastest repetition of a part, taken over several processes, does not
   depend on one slow process. *)
let processes = 4

let workloads =
  [
    ("train", Train_wl.run);
    ("fleet_steady", Fleet_wl.run);
  ]

(* What one operation is, and the input size, per workload. *)
let describe = function
  | "train" ->
      Printf.sprintf
        "op = %d env steps of Trainer.train, one TD3 policy delay (steps \
         %d-%d of %d per call timed, 8-link pool, N=5)"
        Train_wl.policy_delay Train_wl.first_timed Train_wl.steps
        Train_wl.steps
  | _ ->
      Printf.sprintf
        "op = one decision tick of Fleet_eval.serve over %d links x %d ms; \
         ops_per_s counts simulated flow·ms"
        Fleet_wl.flows Fleet_wl.duration_ms

(* Runs the children, each with [--child FILE], and reads back the
   report each writes to its FILE. *)
let run_children ~workload ~seed ~seconds =
  List.init (processes - 1) (fun i ->
      let file =
        Printf.sprintf "_artifacts/perfbench/part-%s-s%d-%d.bin" workload seed
          (i + 1)
      in
      let cmd =
        Filename.quote_command ~stdout:Filename.null Sys.executable_name
          [ "--workload"; workload; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; "0";
            "--child"; file ]
      in
      if Sys.command cmd <> 0 then failwith ("child run failed: " ^ cmd);
      let ic = open_in_bin file in
      let (r : Measure.report) =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
      in
      Sys.remove file;
      r)

(* A child's repetitions, set-ups and counts, added to this process's
   report. *)
let merge (r : Measure.report) (c : Measure.report) =
  {
    r with
    setups_s = Array.append r.setups_s c.setups_s;
    attempted = r.attempted + c.attempted;
    failed = r.failed + c.failed;
    work = r.work +. c.work;
    op_ms = r.op_ms @ c.op_ms;
    failures = r.failures @ List.map (fun f -> "child: " ^ f) c.failures;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The per-layer metrics BENCHMARK.json declares, as (name, unit), in
   its order. A traced run reports all of them; a layer its workload does
   not call reads 0. *)
let per_layer () =
  let module J = Canopy_analysis.Bench_report in
  let field k o =
    match J.member k o with
    | Some (J.Str s) -> s
    | _ -> failwith ("BENCHMARK.json: per_layer entry without " ^ k)
  in
  match J.member "per_layer" (J.json_of_string (read_file "BENCHMARK.json")) with
  | Some (J.Arr entries) -> List.map (fun e -> (field "name" e, field "unit" e)) entries
  | _ -> failwith "BENCHMARK.json: no per_layer list"

let json_metric (m : Measure.metric) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_

let derive () =
  let committed = read_file Actor_file.path in
  if String.equal (Actor_file.derive ()) committed then begin
    print_endline ("derive: reproduces " ^ Actor_file.path ^ " byte for byte");
    exit 0
  end
  else begin
    prerr_endline ("derive: training no longer reproduces " ^ Actor_file.path);
    exit 1
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and rederive = ref false and child = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--derive", Arg.Set rederive, " retrain and compare the committed actor");
      ("--child", Arg.Set_string child, "FILE measure one share of a run, write its report to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let pool = Canopy_util.Pool.create ~domains () in
  Canopy_util.Pool.set_default pool;
  if !rederive then derive ();
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if not (!seconds > 0.) then (prerr_endline "--seconds must be positive"; exit 2);
  let traced = !trace = 1 in
  let share = !seconds /. float_of_int processes in
  let r = run ~seed:!seed ~seconds:share ~trace:traced in
  if !child <> "" then begin
    Canopy_util.Atomic_file.mkdir_p (Filename.dirname !child);
    let oc = open_out_bin !child in
    Marshal.to_channel oc r [];
    close_out oc;
    exit 0
  end;
  let r =
    List.fold_left merge r
      (run_children ~workload:!workload ~seed:!seed ~seconds:!seconds)
  in
  Printf.printf
    "workload %s seed %d seconds %g trace %d domains %d processes %d nproc %d\n"
    !workload !seed !seconds !trace domains processes
    (Domain.recommended_domain_count ());
  Printf.printf "%s\n" (describe !workload);
  let error_rate =
    float_of_int r.failed /. float_of_int (max 1 r.attempted)
  in
  let show (m : Measure.metric) =
    Printf.printf "  %-36s %14.6g %s\n" m.name m.value m.unit_
  in
  let all_ms = Array.concat r.op_ms in
  let best = Measure.best_ops ~parts:r.parts r.op_ms in
  let reps = float_of_int (max 1 (List.length r.op_ms)) in
  let e2e =
    Measure.
      [
        metric "setup_s" (Measure.fastest r.setups_s) "s";
        metric "heap_peak_mb" r.heap_peak_mb "MB";
        metric "ops_per_s"
          (r.work /. reps /. Measure.best_total_s r.op_ms)
          "ops/s";
        metric "op_ms_p50" (percentile best 50.) "ms";
        metric "op_ms_p90" (percentile best 90.) "ms";
      ]
  in
  List.iter show
    (e2e @ r.named
    @ [ Measure.metric "setup_s_median" (Measure.median r.setups_s) "s";
        Measure.metric "setup_s_max" (Array.fold_left Float.max neg_infinity r.setups_s) "s";
        Measure.metric "error_rate" error_rate "ratio";
        Measure.metric "ops_timed" (float_of_int (Array.length all_ms / r.parts)) "count";
        Measure.metric "repetitions" reps "count" ]);
  List.iter show r.layers;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) r.failures;
  if traced then begin
    let path =
      Printf.sprintf "_artifacts/perfbench/trace-%s-s%d.json" !workload !seed
    in
    Span.write_chrome path;
    Printf.printf "trace events written to %s\n" path
  end;
  let metrics =
    if not traced then e2e
    else
      List.map
        (fun (name, unit_) ->
          match
            List.find_opt
              (fun (m : Measure.metric) -> String.equal m.name name)
              (r.layers @ r.named)
          with
          | Some m when String.equal m.unit_ unit_ -> m
          | Some m ->
              failwith (Printf.sprintf "%s: unit %s, expected %s" name m.unit_ unit_)
          | None -> Measure.metric name 0. unit_)
        (per_layer ())
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0 && r.failures = [])
    r.attempted r.failed
    (String.concat ", " (List.map json_metric metrics))
