(* Workload [fleet_steady]: batched policy serving (Fleet_eval.serve) of
   the committed actor over a fleet of constant-rate links. One operation
   is one decision tick: every flow's state assembled into one matrix,
   one batched policy pass, one fleet step of 40 ms. Each run checks the
   simulator regime against a recorded drop-rate band. *)

module Agent_env = Canopy_orca.Agent_env
module Fleet_env = Canopy_orca.Fleet_env
module Fleet_eval = Canopy.Fleet_eval
module Fleet = Canopy_netsim.Fleet
module Policy = Canopy.Policy
module Mat = Canopy_tensor.Mat
module Prng = Canopy_util.Prng

let flows = 98
let duration_ms = 4000
let min_rtt_ms = 40
let interval_ms = 40
let buffer_pkts = 160
let history = 5

(* Links of the set-up's warm-up serve: a multiple of 7, so every rate
   family is equally represented. *)
let warmup_flows = 14

(* Accepted packet drop rate, inclusive. The committed actor's regime on
   these links: a few drops per thousand packets sent, windows near the
   bandwidth-delay product. *)
let drop_band = (1e-4, 0.02)

(* Nominal wall time of one repetition (set-up included) on the
   reference host; it sets the repetition count, see [Measure]. *)
let nominal_rep_s = 0.2

(* The committed, briefly trained actor, loaded through the trainer's
   netcheck gate. *)
let load_policy () = `Mlp (Canopy.Trainer.load_actor Actor_file.path)

(* Seven rate families, 12–48 Mbps staggered as in [bench fleet]. The
   seed deals the offsets −1.5 … +1.5 Mbps to the families and the flows
   to the families, so inputs differ per seed while the fleet's total
   capacity, and with it the work per tick, stays the same. Flows of one
   family share one trace value, so the fleet builds one packets-per-ms
   table per family. *)
let link_cfgs ~seed ~flows =
  let rng = Prng.create (seed * 7919) in
  let offsets = Array.init 7 (fun k -> 0.5 *. float_of_int (k - 3)) in
  Prng.shuffle rng offsets;
  let traces =
    Array.init 7 (fun k ->
        let mbps = 12. +. (6. *. float_of_int k) +. offsets.(k) in
        Canopy_trace.Trace.constant
          ~name:(Printf.sprintf "perf-s%d-f%d" seed k)
          ~duration_ms ~mbps)
  in
  let family = Array.init flows (fun i -> i mod 7) in
  Prng.shuffle rng family;
  Array.map
    (fun k ->
      {
        (Agent_env.default_config ~trace:traces.(k) ~min_rtt_ms ~buffer_pkts
           ~duration_ms)
        with
        interval_ms = Some interval_ms;
        history;
      })
    family

(* Everything a run reads back from one served fleet. *)
type served = {
  result : Fleet_eval.result;
  sent : int array;
  delivered : int array;
  dropped : int array;
  cwnd : float array;
  conserved : bool;
}

(* Per-flow packet conservation: every packet sent is delivered, dropped,
   queued at the bottleneck or acknowledged in flight, and the in-flight
   count covers the queue and the pending acknowledgements. *)
let read_back result fleet =
  let n = Fleet.flows fleet in
  let sent = Array.init n (fun i -> Fleet.sent fleet ~flow:i) in
  let delivered = Array.init n (fun i -> Fleet.delivered fleet ~flow:i) in
  let dropped = Array.init n (fun i -> Fleet.dropped fleet ~flow:i) in
  let cwnd = Array.init n (fun i -> Fleet.cwnd fleet ~flow:i) in
  let conserved = ref true in
  for i = 0 to n - 1 do
    let settled = delivered.(i) + dropped.(i) in
    let q = Fleet.queue_len fleet ~flow:i in
    if
      not
        (settled + q <= sent.(i)
        && sent.(i) <= settled + Fleet.inflight fleet ~flow:i
        && delivered.(i) >= 0 && dropped.(i) >= 0 && q >= 0
        && Float.is_finite cwnd.(i) && cwnd.(i) >= 1.)
    then conserved := false
  done;
  { result; sent; delivered; dropped; cwnd; conserved = !conserved }

let same_served a b =
  let fb (f : Fleet_eval.flow_result) =
    Measure.bits
      [| f.throughput_mbps; f.avg_qdelay_ms; f.loss_rate; f.utilization; f.avg_reward |]
  in
  a.sent = b.sent && a.delivered = b.delivered && a.dropped = b.dropped
  && Measure.bits a.cwnd = Measure.bits b.cwnd
  && Array.map fb a.result.per_flow = Array.map fb b.result.per_flow
  && a.result.decision_ticks = b.result.decision_ticks

let sum a = Array.fold_left ( + ) 0 a

(* Flows replayed through scalar Agent_env episodes, per seed. *)
let sample_flows ~seed n =
  let rng = Prng.create ((seed * 31) + 5) in
  List.sort_uniq Int.compare (List.init 3 (fun _ -> Prng.int rng n))

(* One timed serve. [stamps.(t)] is taken by the serving loop's own tick
   hook (clock only); sampled flows' actions and rewards are copied for
   the scalar replay. *)
let timed_serve ~policy ~samples env =
  let stamps = ref [] in
  let traj = List.map (fun f -> (f, ref [])) samples in
  let on_tick ~tick:_ ~actions ~(result : Fleet_env.step_result) =
    stamps := Measure.now_s () :: !stamps;
    List.iter
      (fun (f, acc) -> acc := (actions.(f), result.rewards.(f)) :: !acc)
      traj
  in
  let t0 = Measure.now_s () in
  let result = Fleet_eval.serve ~on_tick ~policy env in
  let wall = Measure.now_s () -. t0 in
  let stamps = Array.of_list (List.rev !stamps) in
  let tick_ms =
    Array.mapi
      (fun i t -> 1e3 *. (t -. if i = 0 then t0 else stamps.(i - 1)))
      stamps
  in
  (result, wall, tick_ms, List.map (fun (f, acc) -> (f, List.rev !acc)) traj)

(* Scalar Agent_env episode of one flow under the same policy. *)
let scalar_replay ~policy (cfg : Agent_env.config) =
  let env = Agent_env.create cfg in
  ignore (Agent_env.reset env);
  let out = ref [] and fin = ref false in
  while not !fin do
    let a =
      Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.
        (Policy.predict_row policy (Agent_env.state env))
    in
    let r = Agent_env.step env ~action:a in
    out := (a, r.raw_reward) :: !out;
    fin := r.finished
  done;
  List.rev !out

let same_traj a b =
  List.length a = List.length b
  && List.for_all2
       (fun (a1, r1) (a2, r2) -> Measure.same a1 a2 && Measure.same r1 r2)
       a b

(* Fleet_eval.serve's decision loop rebuilt from the public calls it
   makes, with a span around each layer. *)
let replica ~policy env =
  let n = Fleet_env.flows env in
  let x = Mat.create ~rows:n ~cols:(Fleet_env.state_dim env) in
  let y = Mat.create_uninit ~rows:n ~cols:1 in
  let actions = Array.make n 0. in
  let reward_sum = Array.make n 0. in
  let ticks = ref 0 and fin = ref (Fleet_env.finished env) in
  while not !fin do
    Span.with_ "fleet.tick" (fun () ->
        Span.with_ "orca.fleet_write_states" (fun () ->
            Fleet_env.write_states env ~dst:x);
        Span.with_ "policy.predict_rows" (fun () ->
            Policy.predict_rows_into ~dst:y policy x);
        let raw = Mat.raw y in
        for i = 0 to n - 1 do
          actions.(i) <- Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. raw.(i)
        done;
        let r =
          Span.with_ "orca.fleet_step" (fun () -> Fleet_env.step env ~actions)
        in
        for i = 0 to n - 1 do
          reward_sum.(i) <- reward_sum.(i) +. r.rewards.(i)
        done;
        incr ticks;
        fin := r.finished)
  done;
  (!ticks, reward_sum)

let run ~seed ~seconds ~trace =
  let reps = Measure.repetitions ~seconds ~nominal_s:nominal_rep_s in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let samples = sample_flows ~seed flows in
  let flow_ms = float_of_int (flows * duration_ms) in
  let serves = ref [] and build_s = ref 0. and raised = ref false in
  let setups = Array.make reps nan and last = ref None in
  let heap = ref nan in
  let g0 = Measure.gc_mark () in
  let rep = ref 0 in
  while (not !raised) && !rep < reps do
    (* Set-up: the policy (netcheck included), the link configurations
       and a short warm-up serve. *)
    let (policy, cfgs), s =
      Measure.timed_setup ~rep:!rep (fun () ->
          let policy = load_policy () in
          ignore (Fleet_eval.run ~policy (link_cfgs ~seed ~flows:warmup_flows));
          (policy, link_cfgs ~seed ~flows))
    in
    setups.(!rep) <- s;
    last := Some (policy, cfgs);
    Gc.full_major ();
    let env, b = Measure.time (fun () -> Fleet_env.create cfgs) in
    build_s := !build_s +. b;
    (match timed_serve ~policy ~samples env with
    | result, wall, tick_ms, traj ->
        if !serves = [] then heap := Measure.heap_peak_mb ();
        serves :=
          (read_back result (Fleet_env.fleet env), wall, tick_ms, traj)
          :: !serves
    | exception e ->
        raised := true;
        fail ("Fleet_eval.serve raised " ^ Printexc.to_string e));
    incr rep
  done;
  let policy, cfgs = Option.get !last in
  let g1 = Measure.gc_mark () in
  let serves = List.rev !serves in
  let ticks_per_serve = duration_ms / interval_ms in
  let failed = ref (if !raised then ticks_per_serve else 0) in
  (match serves with
  | [] -> ()
  | (first, _, _, _) :: _ ->
      let replayed =
        List.map (fun f -> (f, scalar_replay ~policy cfgs.(f))) samples
      in
      List.iteri
        (fun i (s, _, tick_ms, traj) ->
          let bad = ref false in
          let check ok msg =
            if not ok then begin
              bad := true;
              fail (Printf.sprintf "serve %d: %s" i msg)
            end
          in
          check (Array.length tick_ms = ticks_per_serve) "tick count";
          check s.conserved "per-flow packet conservation";
          check
            (Array.for_all
               (fun (f : Fleet_eval.flow_result) ->
                 Float.is_finite f.utilization && Float.is_finite f.avg_reward)
               s.result.per_flow)
            "non-finite flow result";
          check (same_served s first) "not bit-identical to serve 0";
          List.iter
            (fun (f, scalar) ->
              check
                (same_traj scalar (List.assoc f traj))
                (Printf.sprintf "flow %d differs from its scalar Agent_env replay" f))
            replayed;
          if !bad then failed := !failed + ticks_per_serve)
        serves);
  let first =
    match serves with (s, _, _, _) :: _ -> Some s | [] -> None
  in
  let sent, delivered, dropped, cwnd_mean, cwnd_max, util =
    match first with
    | None -> (0, 0, 0, nan, nan, nan)
    | Some s ->
        ( sum s.sent,
          sum s.delivered,
          sum s.dropped,
          Canopy_util.Stats.mean s.cwnd,
          Array.fold_left Float.max neg_infinity s.cwnd,
          s.result.mean_utilization )
  in
  let drop_rate = float_of_int dropped /. float_of_int (max 1 sent) in
  let lo, hi = drop_band in
  if first <> None && not (drop_rate >= lo && drop_rate <= hi) then
    fail
      (Printf.sprintf "regime guard: drop rate %.6f outside [%g, %g]" drop_rate
         lo hi);
  let tick_reps = List.map (fun (_, _, t, _) -> t) serves in
  let tick_ms = Array.concat tick_reps in
  let busy = List.fold_left (fun a (_, w, _, _) -> a +. w) 0. serves in
  let n_serves = List.length serves in
  let attempted =
    (n_serves * ticks_per_serve) + if !raised then ticks_per_serve else 0
  in
  let work = flow_ms *. float_of_int n_serves in
  let regime =
    Measure.
      [
        metric "netsim.pkts_sent" (float_of_int sent) "count";
        metric "netsim.pkts_delivered" (float_of_int delivered) "count";
        metric "netsim.pkts_dropped" (float_of_int dropped) "count";
        metric "netsim.drop_rate" drop_rate "ratio";
        metric "netsim.cwnd_mean" cwnd_mean "pkts";
        metric "netsim.cwnd_max" cwnd_max "pkts";
      ]
  in
  let named =
    Measure.
      [
        metric "fleet_flow_ms_per_s" (work /. busy) "flow_ms/s";
        metric "fleet_tick_ms_p50" (percentile tick_ms 50.) "ms";
        metric "fleet_tick_ms_p90" (percentile tick_ms 90.) "ms";
        metric "fleet_utilization" util "ratio";
        metric "fleet_serves" (float_of_int n_serves) "count";
        metric "fleet_build_ms" (1e3 *. !build_s /. float_of_int (max 1 n_serves)) "ms";
        metric "pkts_sent_per_flow_ms" (float_of_int sent /. flow_ms) "pkts";
        metric "alloc_words_per_tick"
          (Measure.alloc_words g0 g1 /. float_of_int (max 1 attempted)) "words";
      ]
    @ regime
  in
  let layers, attempted, failed =
    match (trace, first) with
    | false, _ | _, None -> ([], attempted, !failed)
    | true, Some first ->
        let env = Fleet_env.create cfgs in
        Gc.full_major ();
        Span.reset ();
        Span.enabled := true;
        let g2 = Measure.gc_mark () in
        let (ticks, reward_sum), traced_s =
          Measure.time (fun () -> replica ~policy env)
        in
        let g3 = Measure.gc_mark () in
        Span.enabled := false;
        let s = read_back first.result (Fleet_env.fleet env) in
        let nt = float_of_int (max 1 ticks) in
        let ok =
          ticks = ticks_per_serve && s.conserved
          && s.sent = first.sent && s.delivered = first.delivered
          && s.dropped = first.dropped
          && Measure.bits s.cwnd = Measure.bits first.cwnd
          && Measure.bits (Array.map (fun r -> r /. nt) reward_sum)
             = Measure.bits
                 (Array.map
                    (fun (f : Fleet_eval.flow_result) -> f.avg_reward)
                    first.result.per_flow)
        in
        if not ok then fail "traced replica differs from Fleet_eval.serve";
        let per_tick name = Span.self_ns name /. 1e3 /. nt in
        let untraced_s = Measure.best_total_s tick_reps in
        let layers =
          Measure.
            [
              metric "orca.fleet_step_us" (per_tick "orca.fleet_step") "us";
              metric "orca.fleet_step_ns_per_flow_ms"
                (Span.self_ns "orca.fleet_step" /. flow_ms) "ns";
              metric "orca.fleet_write_states_us"
                (per_tick "orca.fleet_write_states") "us";
              metric "policy.predict_rows_us" (per_tick "policy.predict_rows") "us";
              metric "policy.ns_per_decision"
                (Span.self_ns "policy.predict_rows"
                /. (nt *. float_of_int flows))
                "ns";
              metric "netsim.ns_per_pkt_sent"
                (Span.self_ns "orca.fleet_step" /. float_of_int (max 1 sent)) "ns";
              metric "gc.alloc_words_per_op"
                (Measure.alloc_words g2 g3 /. nt) "words";
              metric "gc.major_collections"
                (float_of_int (g3.majors - g2.majors)) "count";
              metric "trace.overhead_pct"
                (100. *. (traced_s -. untraced_s) /. untraced_s) "%";
              metric "trace.unaccounted_pct"
                (100.
                *. (1.
                   -. Span.layer_self_ns ~root:"fleet.tick"
                      /. Span.total_ns "fleet.tick"))
                "%";
              metric "trace.spans" (float_of_int (List.length !Span.events)) "count";
              metric "outcome.fleet_utilization" util "ratio";
            ]
        in
        (layers, attempted + ticks_per_serve,
         !failed + if ok then 0 else ticks_per_serve)
  in
  {
    Measure.setups_s = Array.sub setups 0 n_serves;
    heap_peak_mb = !heap;
    attempted;
    failed;
    work;
    op_ms = tick_reps;
    parts = 1;
    named;
    layers;
    failures = List.rev !failures;
  }
