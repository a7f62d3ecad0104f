(* Workload [train]: certificate-in-the-loop training (Trainer.train) with
   the default configuration — λ = 0.25, performance property, N = 5
   in-loop slices, hidden 64 — for [steps] environment steps on the
   default 8-link pool. Every step selects an action, builds an in-loop
   certificate, steps one scalar Agent_env and makes one TD3 update. One
   operation is two consecutive steps after TD3's warm-up, one TD3 policy
   delay: two critic updates and one actor update. Single steps, with
   and without the actor update, would fall into two latency modes. The
   two steps are timed apart, as the operation's parts (see [Measure]).
   The steps before TD3's first update are part of the set-up. *)

module Trainer = Canopy.Trainer
module Certify = Canopy.Certify
module Agent_env = Canopy_orca.Agent_env
module Td3 = Canopy_rl.Td3
module Prng = Canopy_util.Prng
module Checkpoint = Canopy_nn.Checkpoint

(* TD3 updates once its replay buffer holds [warmup] transitions, so
   step [first_timed] is the first with an update. Steps before it only
   fill the buffer; they are the call's set-up, not timed operations. *)
let first_timed = (Td3.default_config ~state_dim:1 ~action_dim:1).warmup

(* Steps with a TD3 update timed per call: steps 256–455. Each call
   trains from scratch, so every call repeats the same steps on the same
   inputs, and a run makes many short calls spread over its measuring
   time; see [Measure.best_of_reps]. *)
let timed_steps = 200

let policy_delay = (Td3.default_config ~state_dim:1 ~action_dim:1).policy_delay
let ops = timed_steps / policy_delay
let steps = first_timed - 1 + timed_steps

(* Nominal wall time of one repetition (set-up included) on the
   reference host; it sets the repetition count, see [Measure]. *)
let nominal_rep_s = 1.0

(* The training inputs are fixed: the committed actor's configuration
   (default config, seed 12, its 8-link pool), and the workload seed does
   not enter them. What a training run learns sets the window sizes its
   simulator steps reach, and overflow drops are simulated per packet,
   so step cost differs up to twofold between training seeds: far more
   than the regressions the benchmark has to resolve. *)
let config () =
  Trainer.default_config ~seed:Actor_file.seed ~total_steps:steps
    ~envs:(Trainer.env_pool ~seed:Actor_file.seed ()) ()

let fcc_final (epochs : Trainer.epoch list) =
  match List.rev epochs with e :: _ -> e.fcc | [] -> nan

(* Trainer.train's loop (watchdog off), rebuilt from the public calls it
   makes, with a span around each layer. Must reproduce Trainer.train's
   final actor and last-epoch FCC bit for bit. [at_window] runs before
   step [first_timed]. *)
let replica ~at_window (cfg : Trainer.config) =
  let rng = Prng.create cfg.seed in
  let state_dim = cfg.history * Canopy_orca.Observation.feature_count in
  let agent =
    Td3.create ~rng:(Prng.split rng 0)
      { (Td3.default_config ~state_dim ~action_dim:1) with hidden = cfg.hidden }
  in
  Canopy_analysis.Netcheck.assert_valid ~what:"replica actor" (Td3.actor agent);
  let envs =
    Array.of_list
      (List.map
         (fun c ->
           let e = Agent_env.create c in
           ignore (Agent_env.reset e);
           e)
         cfg.envs)
  in
  let acc_fcc = ref 0. and acc_n = ref 0 and last_fcc = ref nan in
  for step = 1 to cfg.total_steps do
    if step = first_timed then at_window ();
    Span.with_ "train.step" (fun () ->
        let env = envs.(step mod Array.length envs) in
        let s = Agent_env.state env in
        let action_vec =
          Span.with_ "rl.td3_select_action" (fun () ->
              Td3.select_action ~explore:true agent s)
        in
        let cert =
          Span.with_ "certify.in_loop" (fun () ->
              Certify.certify ~engine:cfg.engine ~actor:(Td3.actor agent)
                ~property:cfg.property ~n_components:cfg.n_components
                ~history:cfg.history ~state:s
                ~cwnd_tcp:(Agent_env.cwnd_tcp env)
                ~prev_cwnd:(Agent_env.prev_cwnd_enforced env) ())
        in
        let res =
          Span.with_ "orca.agent_env_step" (fun () ->
              Agent_env.step env ~action:action_vec.(0))
        in
        let reward =
          ((1. -. cfg.lambda) *. res.raw_reward)
          +. (cfg.lambda *. cert.r_verifier)
        in
        Span.with_ "rl.td3_observe" (fun () ->
            Td3.observe agent
              {
                Canopy_rl.Replay_buffer.state = s;
                action = action_vec;
                reward;
                next_state = res.state;
                terminal = false;
                truncated = res.finished;
              });
        for _ = 1 to cfg.updates_per_step do
          Span.with_ "rl.td3_update" (fun () -> Td3.update agent)
        done;
        if res.finished then
          Span.with_ "orca.agent_env_step" (fun () ->
              ignore (Agent_env.reset env));
        acc_fcc := !acc_fcc +. cert.fcc;
        incr acc_n;
        if step mod cfg.log_every = 0 || step = cfg.total_steps then begin
          last_fcc := !acc_fcc /. float_of_int !acc_n;
          acc_fcc := 0.;
          acc_n := 0
        end)
  done;
  (agent, !last_fcc)

(* One Trainer.train call; [stamps.(i)] is taken after step [i]'s
   updates, from the trainer's own per-step hook (clock only). Returns
   the call's untimed head (up to step [first_timed - 1]), the timed
   window and the timed steps' latencies. *)
let timed_train cfg =
  let stamps = Array.make (cfg.Trainer.total_steps + 1) 0. in
  stamps.(0) <- Measure.now_s ();
  let fault_hook ~step _ = stamps.(step) <- Measure.now_s () in
  let agent, epochs = Trainer.train ~fault_hook cfg in
  let head = stamps.(first_timed - 1) -. stamps.(0) in
  let window = stamps.(steps) -. stamps.(first_timed - 1) in
  let step_ms =
    Array.init timed_steps (fun i ->
        let k = first_timed + i in
        1e3 *. (stamps.(k) -. stamps.(k - 1)))
  in
  (agent, epochs, head, window, step_ms)

let actor_text agent = Checkpoint.to_string (Td3.actor agent)

let run ~seed:_ ~seconds ~trace =
  let reps = Measure.repetitions ~seconds ~nominal_s:nominal_rep_s in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let calls = ref [] and raised = ref false and heap = ref nan in
  let setups = Array.make reps nan in
  let cfg = ref None in
  let g0 = Measure.gc_mark () in
  let rep = ref 0 in
  while (not !raised) && !rep < reps do
    (* Set-up: the configuration, then the call's update-free head. *)
    let c, config_s = Measure.timed_setup ~rep:!rep config in
    cfg := Some c;
    (match timed_train c with
    | agent, epochs, head, window, step_ms ->
        setups.(!rep) <- config_s +. head;
        if !calls = [] then heap := Measure.heap_peak_mb ();
        calls := (agent, fcc_final epochs, window, step_ms) :: !calls
    | exception e ->
        raised := true;
        fail ("Trainer.train raised " ^ Printexc.to_string e));
    incr rep
  done;
  let g1 = Measure.gc_mark () in
  let cfg = Option.get !cfg in
  let calls = List.rev !calls in
  let ref_agent, ref_fcc =
    match calls with
    | (a, f, _, _) :: _ -> (Some a, f)
    | [] -> (None, nan)
  in
  let ref_text = Option.fold ~none:"" ~some:actor_text ref_agent in
  let failed = ref (if !raised then ops else 0) in
  List.iteri
    (fun i (agent, fcc, _, _) ->
      let bad = ref false in
      let check ok msg = if not ok then (bad := true; fail msg) in
      check (Float.is_finite fcc) (Printf.sprintf "call %d: non-finite FCC" i);
      check
        (Canopy_analysis.Netcheck.check_mlp ~name:"actor" (Td3.actor agent) = [])
        (Printf.sprintf "call %d: trained actor fails netcheck" i);
      check
        (String.equal (actor_text agent) ref_text && Measure.same fcc ref_fcc)
        (Printf.sprintf "call %d: not bit-identical to call 0" i);
      if !bad then failed := !failed + ops)
    calls;
  let step_reps = List.map (fun (_, _, _, s) -> s) calls in
  let step_ms = Array.concat step_reps in
  let busy = List.fold_left (fun a (_, _, w, _) -> a +. w) 0. calls in
  let n_calls = List.length calls in
  let attempted = (n_calls * ops) + if !raised then ops else 0 in
  let updates = Option.fold ~none:0 ~some:Td3.updates_done ref_agent in
  let named =
    Measure.
      [
        metric "train_steps_per_s"
          (float_of_int (n_calls * timed_steps) /. busy) "steps/s";
        metric "train_step_ms_p50" (percentile step_ms 50.) "ms";
        metric "train_step_ms_p99" (percentile step_ms 99.) "ms";
        metric "train_fcc_final" ref_fcc "ratio";
        metric "train_calls" (float_of_int n_calls) "count";
        metric "td3_updates_per_call" (float_of_int updates) "count";
        metric "alloc_words_per_step"
          (Measure.alloc_words g0 g1 /. float_of_int (max 1 (n_calls * steps)))
          "words";
      ]
  in
  (* Traced run: the replica, timed against one more untraced call. *)
  let layers, attempted, failed =
    if not trace then ([], attempted, !failed)
    else begin
      Gc.full_major ();
      let g2 = ref (Measure.gc_mark ()) and w0 = ref nan in
      let at_window () =
        g2 := Measure.gc_mark ();
        Span.reset ();
        Span.enabled := true;
        w0 := Measure.now_s ()
      in
      let r_agent, r_fcc = replica ~at_window cfg in
      let traced_s = Measure.now_s () -. !w0 in
      let g2 = !g2 and g3 = Measure.gc_mark () in
      Span.enabled := false;
      let ok =
        String.equal (actor_text r_agent) ref_text && Measure.same r_fcc ref_fcc
      in
      if not ok then fail "traced replica differs from Trainer.train";
      let untraced_s = Measure.best_total_s step_reps in
      let per_step name =
        Span.self_ns name /. 1e3 /. float_of_int timed_steps
      in
      let layers =
        Measure.
          [
            metric "rl.td3_update_us" (per_step "rl.td3_update") "us";
            metric "rl.td3_select_action_us" (per_step "rl.td3_select_action") "us";
            metric "rl.td3_observe_us" (per_step "rl.td3_observe") "us";
            metric "rl.updates" (float_of_int (Td3.updates_done r_agent)) "count";
            metric "certify.in_loop_us" (per_step "certify.in_loop") "us";
            metric "orca.agent_env_step_us" (per_step "orca.agent_env_step") "us";
            metric "gc.alloc_words_per_op"
              (Measure.alloc_words g2 g3 /. float_of_int ops) "words";
            metric "gc.major_collections" (float_of_int (g3.majors - g2.majors)) "count";
            metric "trace.overhead_pct"
              (100. *. (traced_s -. untraced_s) /. untraced_s) "%";
            metric "trace.unaccounted_pct"
              (100. *. (1. -. (Span.layer_self_ns ~root:"train.step"
                               /. Span.total_ns "train.step"))) "%";
            metric "trace.spans" (float_of_int (List.length !Span.events)) "count";
            metric "outcome.train_fcc_final" ref_fcc "ratio";
          ]
      in
      (layers, attempted + ops, !failed + if ok then 0 else ops)
    end
  in
  {
    Measure.setups_s = Array.sub setups 0 n_calls;
    heap_peak_mb = !heap;
    attempted;
    failed;
    work = float_of_int (n_calls * ops);
    op_ms = step_reps;
    parts = policy_delay;
    named;
    layers;
    failures = List.rev !failures;
  }
