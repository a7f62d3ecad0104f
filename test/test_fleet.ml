(* Tests for the vectorized fleet simulator and its serving stack:
   bit-for-bit equivalence of [Fleet] with per-flow [Env] instances and
   of [Fleet_env] with per-flow [Agent_env] episodes, determinism of the
   pool-parallel advancement across domain counts, and the mixed
   Canopy-vs-TCP coexistence harness. *)

module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet
module Trace = Canopy_trace.Trace
module Agent_env = Canopy_orca.Agent_env
module Fleet_env = Canopy_orca.Fleet_env
module Fleet_eval = Canopy.Fleet_eval
module Eval = Canopy.Eval
module Mlp = Canopy_nn.Mlp
module Mat = Canopy_tensor.Mat
module Pool = Canopy_util.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bits a = Array.map Int64.bits_of_float a
let clamp = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

(* Same helper as test_pool: a fresh default pool of [d] domains for the
   duration of [f], previous default restored afterwards. *)
let with_default_pool d f =
  let saved = Pool.default () in
  let pool = Pool.create ~domains:d () in
  Pool.set_default pool;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default saved;
      Pool.shutdown pool)
    (fun () -> f ())

let impaired =
  {
    Env.random_loss = 0.02;
    ack_jitter_ms = 3;
    reorder_prob = 0.1;
    reorder_ms = 8;
    seed = 11;
  }

let link_cfg ?(impair = Env.no_impairments) ?(min_rtt = 40) ~duration_ms i =
  let mbps = 12. +. (6. *. float_of_int (i mod 5)) in
  {
    Env.trace =
      Trace.constant
        ~name:(Printf.sprintf "t%d" (i mod 5))
        ~duration_ms ~mbps;
    min_rtt_ms = min_rtt;
    buffer_pkts = 120;
    mtu_bytes = Env.default_mtu;
    initial_cwnd = 10.;
    impairments = impair;
  }

(* ------------------------------------------------------------------ *)
(* Fleet vs per-flow Env, bit for bit *)

(* Drive N scalar [Env]s and one N-flow [Fleet] through the same cwnd
   schedule, recording every ack and loss event, and require identical
   event streams and identical (to the bit) counters. One flow carries
   random loss + ACK jitter + reordering so the per-flow PRNG, the
   jittered return-path resort and the reorder hold-back are part of the
   comparison. *)
let test_fleet_matches_env () =
  let n = 5 in
  let duration = 400 in
  let cfgs =
    Array.init n (fun i ->
        link_cfg
          ~impair:(if i = 3 then impaired else Env.no_impairments)
          ~min_rtt:(if i = 1 then 30 else 40)
          ~duration_ms:duration i)
  in
  (* Events per flow, as (now, seq, rtt, delivered) / loss-time lists. *)
  let record () =
    let acks = Array.make n [] and losses = Array.make n [] in
    let handlers =
      Array.init n (fun i ->
          {
            Env.on_ack =
              (fun (a : Env.ack) ->
                acks.(i) <-
                  (a.Env.now_ms, a.Env.seq, a.Env.rtt_ms, a.Env.delivered)
                  :: acks.(i));
            on_loss = (fun ~now_ms -> losses.(i) <- now_ms :: losses.(i));
          })
    in
    (acks, losses, handlers)
  in
  let schedule i seg = 4. +. float_of_int (((i * 7) + (seg * 13)) mod 40) in
  (* Scalar reference. *)
  let envs = Array.map Env.create cfgs in
  let e_acks, e_losses, e_handlers = record () in
  for seg = 0 to 7 do
    Array.iteri (fun i env -> Env.set_cwnd env (schedule i seg)) envs;
    Array.iteri (fun i env -> Env.run env e_handlers.(i) ~ms:50) envs
  done;
  (* Fleet under the same schedule. *)
  let fleet = Fleet.create cfgs in
  let f_acks, f_losses, f_handlers = record () in
  for seg = 0 to 7 do
    for i = 0 to n - 1 do
      Fleet.set_cwnd fleet ~flow:i (schedule i seg)
    done;
    Fleet.run fleet f_handlers ~ms:50
  done;
  check_int "now" (Env.now_ms envs.(0)) (Fleet.now_ms fleet);
  for i = 0 to n - 1 do
    let tag fmt = Printf.sprintf ("flow %d: " ^^ fmt) i in
    check_bool (tag "ack stream") true (e_acks.(i) = f_acks.(i));
    check_bool (tag "loss stream") true (e_losses.(i) = f_losses.(i));
    let s = Env.stats envs.(i) in
    check_int (tag "sent") s.Env.sent (Fleet.sent fleet ~flow:i);
    check_int (tag "delivered") s.Env.delivered (Fleet.delivered fleet ~flow:i);
    check_int (tag "dropped") s.Env.dropped (Fleet.dropped fleet ~flow:i);
    check_bool (tag "capacity bits") true
      (Int64.bits_of_float s.Env.capacity_pkts
      = Int64.bits_of_float (Fleet.capacity_pkts fleet ~flow:i));
    check_bool (tag "cwnd bits") true
      (Int64.bits_of_float (Env.cwnd envs.(i))
      = Int64.bits_of_float (Fleet.cwnd fleet ~flow:i));
    check_int (tag "inflight") (Env.inflight envs.(i))
      (Fleet.inflight fleet ~flow:i);
    check_int (tag "queue") (Env.queue_len envs.(i))
      (Fleet.queue_len fleet ~flow:i);
    check_bool (tag "utilization bits") true
      (Int64.bits_of_float (Env.utilization envs.(i))
      = Int64.bits_of_float (Fleet.utilization fleet ~flow:i));
    check_bool (tag "loss rate bits") true
      (Int64.bits_of_float (Env.loss_rate envs.(i))
      = Int64.bits_of_float (Fleet.loss_rate fleet ~flow:i));
    check_bool (tag "avg qdelay bits") true
      (Int64.bits_of_float (Env.avg_qdelay_ms envs.(i))
      = Int64.bits_of_float (Fleet.avg_qdelay_ms fleet ~flow:i))
  done

(* ------------------------------------------------------------------ *)
(* Fleet vs per-flow Env over random configurations *)

(* Flows pick one of these physically shared traces, so the trace-family
   dedup is exercised; rates from a fraction of a packet to several
   packets per millisecond, constant and piecewise. *)
let diff_traces =
  [|
    Trace.constant ~name:"d0" ~duration_ms:1_000 ~mbps:1.5;
    Trace.constant ~name:"d1" ~duration_ms:1_000 ~mbps:12.;
    Trace.constant ~name:"d2" ~duration_ms:1_000 ~mbps:30.;
    Trace.of_segments ~name:"d3" [ (7, 40.); (5, 0.); (11, 6.) ];
  |]

(* A flow: trace index, minRTT, droptail buffer (1–8 packets, so the
   queue ring wraps and overflows), initial window, and optional
   impairments (random loss, ACK jitter, reordering, PRNG seed). *)
let arb_flow =
  QCheck.(
    quad (int_range 0 3) (int_range 2 40) (int_range 1 8)
      (pair (int_range 1 20)
         (option ~ratio:0.4
            (quad (float_range 0. 0.3) (int_range 0 10)
               (pair (float_range 0. 0.5) (int_range 0 20))
               small_nat))))

(* Windows up to the 5×10⁴ clamp, mostly small: above 16 in flight the
   return ring has to grow past its initial capacity. *)
let arb_window =
  QCheck.make ~print:QCheck.Print.int ~shrink:QCheck.Shrink.int
    QCheck.Gen.(
      frequency
        [ (6, 1 -- 64); (3, 65 -- 2_000); (1, 2_001 -- 50_000) ])

(* A schedule: segments of 1–25 ms; flow [i] runs a segment at the
   window [List.nth windows (i mod length)]. *)
let arb_segments =
  QCheck.(
    list_of_size Gen.(1 -- 5)
      (pair (int_range 1 25) (list_of_size Gen.(1 -- 3) arb_window)))

(* Shrinking may step outside the generators' ranges; clamping here keeps
   every shrunk candidate a valid link. *)
let env_config (trace, min_rtt, buffer, (cwnd0, impair)) =
  let prob p = Float.min 0.9 (Float.max 0. p) in
  {
    Env.trace = diff_traces.(Int.abs trace mod Array.length diff_traces);
    min_rtt_ms = max 2 min_rtt;
    buffer_pkts = max 1 buffer;
    mtu_bytes = Env.default_mtu;
    initial_cwnd = float_of_int (max 1 cwnd0);
    impairments =
      (match impair with
      | None -> Env.no_impairments
      | Some (loss, jitter, (reorder, reorder_ms), seed) ->
          {
            Env.random_loss = prob loss;
            ack_jitter_ms = max 0 jitter;
            reorder_prob = prob reorder;
            reorder_ms = max 0 reorder_ms;
            seed;
          });
  }

type event = Ack of int * int * int * int | Loss of int

let recording_handlers n =
  let events = Array.make n [] in
  ( events,
    Array.init n (fun i ->
        {
          Env.on_ack =
            (fun (a : Env.ack) ->
              events.(i) <-
                Ack (a.Env.now_ms, a.Env.seq, a.Env.rtt_ms, a.Env.delivered)
                :: events.(i));
          on_loss = (fun ~now_ms -> events.(i) <- Loss now_ms :: events.(i));
        }) )

(* First counter or metric of flow [i] that differs between the scalar
   [Env] and the fleet, compared to the bit. *)
let flow_mismatch env fleet i =
  let s = Env.stats env in
  let fbits a b = Int64.bits_of_float a = Int64.bits_of_float b in
  List.find_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("sent", s.Env.sent = Fleet.sent fleet ~flow:i);
      ("delivered", s.Env.delivered = Fleet.delivered fleet ~flow:i);
      ("dropped", s.Env.dropped = Fleet.dropped fleet ~flow:i);
      ("inflight", Env.inflight env = Fleet.inflight fleet ~flow:i);
      ("queue", Env.queue_len env = Fleet.queue_len fleet ~flow:i);
      ("capacity", fbits s.Env.capacity_pkts (Fleet.capacity_pkts fleet ~flow:i));
      ("cwnd", fbits (Env.cwnd env) (Fleet.cwnd fleet ~flow:i));
      ("utilization", fbits (Env.utilization env) (Fleet.utilization fleet ~flow:i));
      ("loss rate", fbits (Env.loss_rate env) (Fleet.loss_rate fleet ~flow:i));
      ("avg qdelay", fbits (Env.avg_qdelay_ms env) (Fleet.avg_qdelay_ms fleet ~flow:i));
    ]

(* [Env] reschedules an out-of-order event by rebuilding and sorting its
   whole return path, so under jitter or reordering its cost grows with
   the square of the packets in flight; those flows keep windows of at
   most [jittered_window_cap] so the oracle stays fast. *)
let jittered_window_cap = 512

(* Each segment sets every flow's window on both sides, advances the
   scalar envs and the fleet (one [Fleet.run] over the whole segment),
   then requires identical per-flow event streams for the segment and
   identical counters after it. *)
let fleet_matches_envs (flows, segments) =
  match flows with
  | [] -> true
  | _ ->
      let cfgs = Array.of_list (List.map env_config flows) in
      let n = Array.length cfgs in
      let envs = Array.map Env.create cfgs and fleet = Fleet.create cfgs in
      let e_events, e_handlers = recording_handlers n in
      let f_events, f_handlers = recording_handlers n in
      List.iteri
        (fun seg (ms, windows) ->
          let windows = Array.of_list windows in
          for i = 0 to n - 1 do
            let w =
              if Array.length windows = 0 then 1
              else windows.(i mod Array.length windows)
            in
            let imp = cfgs.(i).Env.impairments in
            let w =
              float_of_int
                (if imp.Env.ack_jitter_ms > 0 || imp.Env.reorder_prob > 0. then
                   min w jittered_window_cap
                 else w)
            in
            Env.set_cwnd envs.(i) w;
            Fleet.set_cwnd fleet ~flow:i w;
            e_events.(i) <- [];
            f_events.(i) <- []
          done;
          Array.iteri (fun i env -> Env.run env e_handlers.(i) ~ms) envs;
          Fleet.run fleet f_handlers ~ms;
          for i = 0 to n - 1 do
            if e_events.(i) <> f_events.(i) then
              QCheck.Test.fail_reportf "segment %d, flow %d: event stream" seg i;
            match flow_mismatch envs.(i) fleet i with
            | Some what ->
                QCheck.Test.fail_reportf "segment %d, flow %d: %s" seg i what
            | None -> ()
          done)
        segments;
      true

let qcheck_fleet =
  [
    QCheck.Test.make ~name:"fleet == per-flow Env on random configs (bits)"
      ~count:150
      QCheck.(pair (list_of_size Gen.(1 -- 6) arb_flow) arb_segments)
      fleet_matches_envs;
  ]

(* ------------------------------------------------------------------ *)
(* Fleet_env vs per-flow Agent_env, bit for bit *)

let agent_cfg ?(impair = Env.no_impairments) ~duration_ms i =
  let mbps = 16. +. (8. *. float_of_int (i mod 3)) in
  let trace =
    Trace.constant ~name:(Printf.sprintf "a%d" (i mod 3)) ~duration_ms ~mbps
  in
  {
    (Agent_env.default_config ~trace ~min_rtt_ms:40 ~buffer_pkts:120
       ~duration_ms)
    with
    Agent_env.interval_ms = Some 40;
    impairments = impair;
  }

let test_fleet_env_matches_agent_env () =
  let n = 4 in
  let cfgs =
    Array.init n (fun i ->
        agent_cfg
          ~impair:(if i = 2 then impaired else Env.no_impairments)
          ~duration_ms:600 i)
  in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 5)
      ~in_dim:(Agent_env.state_dim cfgs.(0))
      ~hidden:16 ~out_dim:1
  in
  let fenv = Fleet_env.create cfgs in
  let envs = Array.map Agent_env.create cfgs in
  let x = Mat.create ~rows:n ~cols:(Fleet_env.state_dim fenv) in
  let y = Mat.create_uninit ~rows:n ~cols:1 in
  let actions = Array.make n 0. in
  let step = ref 0 in
  let fin = ref false in
  while not !fin do
    Fleet_env.write_states fenv ~dst:x;
    for i = 0 to n - 1 do
      check_bool
        (Printf.sprintf "step %d flow %d: state bits" !step i)
        true
        (bits (Mat.row x i) = bits (Agent_env.state envs.(i)))
    done;
    Mlp.forward_eval_into ~dst:y actor x;
    for i = 0 to n - 1 do
      actions.(i) <- clamp (Mat.raw y).(i)
    done;
    let fr = Fleet_env.step fenv ~actions in
    let srs =
      Array.mapi (fun i env -> Agent_env.step env ~action:actions.(i)) envs
    in
    let tag what = Printf.sprintf "step %d: %s bits" !step what in
    check_bool (tag "reward") true
      (bits fr.Fleet_env.rewards
      = bits (Array.map (fun (r : Agent_env.step_result) -> r.raw_reward) srs));
    check_bool (tag "cwnd_tcp") true
      (bits fr.Fleet_env.cwnd_tcp
      = bits (Array.map (fun (r : Agent_env.step_result) -> r.cwnd_tcp) srs));
    check_bool (tag "cwnd_enforced") true
      (bits fr.Fleet_env.cwnd_enforced
      = bits
          (Array.map
             (fun (r : Agent_env.step_result) -> r.cwnd_enforced)
             srs));
    check_bool "finished agrees" true
      (fr.Fleet_env.finished = srs.(n - 1).Agent_env.finished);
    fin := fr.Fleet_env.finished;
    incr step
  done;
  check_int "decision steps" (600 / 40) !step

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts *)

(* 64 flows at a 300 ms interval put every advancement call at
   64 × 300 = 19 200 flow·ms — above the fleet's parallel threshold —
   so the 2- and 4-domain runs really execute on pool chunks. The full
   served episode (actions, rewards, windows) must be bit-identical to
   the 1-domain run; impaired flows keep the per-flow PRNGs in play. *)
let fleet_episode_bits cfgs actor =
  let acc = ref [] in
  let r =
    Fleet_eval.run ~policy:(`Mlp actor)
      ~on_tick:(fun ~tick:_ ~actions ~result ->
        acc := bits result.Fleet_env.cwnd_enforced :: bits actions :: !acc)
      cfgs
  in
  (List.rev !acc, bits (Array.map (fun (f : Fleet_eval.flow_result) -> f.throughput_mbps) r.Fleet_eval.per_flow))

let test_fleet_domains_bit_identical () =
  let cfgs =
    Array.init 64 (fun i ->
        {
          (agent_cfg
             ~impair:
               (if i mod 9 = 0 then
                  {
                    Env.random_loss = 0.005;
                    ack_jitter_ms = 1;
                    reorder_prob = 0.02;
                    reorder_ms = 4;
                    seed = 50 + i;
                  }
                else Env.no_impairments)
             ~duration_ms:900 i)
          with
          Agent_env.interval_ms = Some 300;
        })
  in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 9)
      ~in_dim:(Agent_env.state_dim cfgs.(0))
      ~hidden:16 ~out_dim:1
  in
  let reference =
    with_default_pool 1 (fun () -> fleet_episode_bits cfgs actor)
  in
  List.iter
    (fun d ->
      let got = with_default_pool d (fun () -> fleet_episode_bits cfgs actor) in
      check_bool
        (Printf.sprintf "%d domains == sequential" d)
        true (got = reference))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Batched serving loop *)

let test_fleet_eval_run () =
  let cfgs = Array.init 8 (fun i -> agent_cfg ~duration_ms:400 i) in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 2)
      ~in_dim:(Agent_env.state_dim cfgs.(0))
      ~hidden:16 ~out_dim:1
  in
  let r = Fleet_eval.run ~policy:(`Mlp actor) cfgs in
  check_int "flows" 8 r.Fleet_eval.flows;
  check_int "duration" 400 r.Fleet_eval.duration_ms;
  check_int "ticks" (400 / 40) r.Fleet_eval.decision_ticks;
  check_int "per-flow rows" 8 (Array.length r.Fleet_eval.per_flow);
  check_bool "jain in (0,1]" true
    (r.Fleet_eval.jain > 0. && r.Fleet_eval.jain <= 1.0000001);
  Array.iter
    (fun (f : Fleet_eval.flow_result) ->
      check_bool "throughput finite" true (Float.is_finite f.throughput_mbps);
      check_bool "qdelay finite" true (Float.is_finite f.avg_qdelay_ms);
      check_bool "reward finite" true (Float.is_finite f.avg_reward))
    r.Fleet_eval.per_flow

let test_fleet_env_validation () =
  check_bool "empty rejected" true
    (match Fleet_env.create [||] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let a = agent_cfg ~duration_ms:400 0 in
  let b = { a with Agent_env.interval_ms = Some 20 } in
  check_bool "mixed cadence rejected" true
    (match Fleet_env.create [| a; b |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let env = Fleet_env.create [| a; a |] in
  check_bool "wrong action count rejected" true
    (match Fleet_env.step env ~actions:[| 0. |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "out-of-range action rejected" true
    (match Fleet_env.step env ~actions:[| 0.; 1.5 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Allocation gate *)

(* Minor-heap words allocated per flow·ms while serving 8 links × 2 s on
   a one-domain pool, where the fleet steps every flow on the calling
   domain, so the count is a property of the code, not of the host. The
   policy is a zero dense layer: action 0 enforces exactly Cubic's
   window (Eq. 1), which keeps the links in the steady, ACK-dominated
   regime (checked below) whatever a trained actor would do. *)
let serve_words_per_flow_ms () =
  let duration_ms = 2_000 and flows = 8 in
  (* Three rate families, each one shared trace value, as a served fleet
     is built: the fleet computes one packets-per-ms table per family. *)
  let traces =
    Array.init 3 (fun k ->
        Trace.constant ~name:(Printf.sprintf "g%d" k) ~duration_ms
          ~mbps:(16. +. (8. *. float_of_int k)))
  in
  let cfgs =
    Array.init flows (fun i ->
        { (agent_cfg ~duration_ms i) with Agent_env.trace = traces.(i mod 3) })
  in
  let in_dim = Agent_env.state_dim cfgs.(0) in
  let actor =
    Mlp.create ~in_dim
      [
        Canopy_nn.Layer.dense ~rng:(Canopy_util.Prng.create 1) ~in_dim
          ~out_dim:1;
      ]
  in
  List.iter (fun (p, _) -> Array.fill p 0 (Array.length p) 0.) (Mlp.params actor);
  let policy = `Mlp actor in
  with_default_pool 1 (fun () ->
      (* Warm the policy's scratch arena before counting. *)
      ignore (Fleet_eval.run ~policy (Array.sub cfgs 0 1));
      let env = Fleet_env.create cfgs in
      let w0 = Gc.minor_words () in
      let r = Fleet_eval.serve ~policy env in
      let w1 = Gc.minor_words () in
      check_int "served to the end" duration_ms r.Fleet_eval.duration_ms;
      let fleet = Fleet_env.fleet env in
      let sum f = Array.fold_left ( + ) 0 (Array.init flows (fun i -> f fleet ~flow:i)) in
      let sent = sum Fleet.sent and delivered = sum Fleet.delivered in
      (* Steady regime: over one ACK per flow·ms, under 5% dropped. *)
      check_bool "ack-dominated regime" true
        (delivered > flows * duration_ms && sum Fleet.dropped * 20 < sent);
      (w1 -. w0) /. float_of_int (flows * duration_ms))

(* Measured 15.5 at about 1.8 ACKs per flow·ms: the [Env.ack] record
   each handler call receives (5 words per ACK), one boxed window per
   flow·ms as Cubic's window crosses into the fleet, the per-call
   packets-per-ms tables, and the per-tick observation and policy work.
   A boxed float written per ACK by Cubic or Monitor would add about 3.6
   per flow·ms and fail the gate. *)
let serve_words_bound = 17.

let test_fleet_serve_alloc_gate () =
  let words = serve_words_per_flow_ms () in
  check_bool
    (Printf.sprintf "%.3f minor words per flow·ms < %g" words serve_words_bound)
    true (words < serve_words_bound)

(* ------------------------------------------------------------------ *)
(* Coexistence *)

let coexist_link duration_ms =
  Eval.link ~min_rtt_ms:40 ~bdp:2. ~duration_ms
    (Trace.constant ~name:"const48" ~duration_ms ~mbps:48.)

let test_coexist_cubic_pair_fair () =
  let r =
    Eval.eval_coexist
      ~flows:
        [
          Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
          Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
        ]
      (coexist_link 4_000)
  in
  check_int "two flows" 2 (Array.length r.Eval.flows);
  (* Two identical Cubics on one droptail queue: near-perfect fairness. *)
  check_bool "jain high" true (r.Eval.jain > 0.9);
  check_bool "utilization sane" true
    (r.Eval.utilization > 0.3 && r.Eval.utilization <= 1.0000001)

let test_coexist_canopy_vs_tcp_runs () =
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 1)
      ~in_dim:(5 * Canopy_orca.Observation.feature_count)
      ~hidden:16 ~out_dim:1
  in
  List.iter
    (fun (name, make) ->
      let r =
        Eval.eval_coexist
          ~flows:[ Eval.Coexist_canopy (`Mlp actor); Eval.Coexist_tcp (name, make) ]
          (coexist_link 3_000)
      in
      check_int (name ^ ": two flows") 2 (Array.length r.Eval.flows);
      check_bool (name ^ ": jain in (0,1]") true
        (r.Eval.jain > 0. && r.Eval.jain <= 1.0000001);
      let shares =
        Array.fold_left
          (fun acc (f : Eval.coexist_flow) -> acc +. f.share)
          0. r.Eval.flows
      in
      check_bool (name ^ ": shares sum to 1") true
        (Float.abs (shares -. 1.) < 1e-9);
      Array.iter
        (fun (f : Eval.coexist_flow) ->
          check_bool
            (name ^ ": " ^ f.Eval.scheme ^ " throughput finite")
            true
            (Float.is_finite f.throughput_mbps && f.throughput_mbps >= 0.))
        r.Eval.flows)
    [ ("cubic", Eval.cubic_scheme); ("bbr", Eval.bbr_scheme) ]

(* Degenerate mixes: a lone flow is trivially fair and owns every
   delivered packet; an all-TCP mix (zero Canopy flows) must run the
   exact same harness with no policy serving involved. *)
let test_coexist_degenerate_mixes () =
  let solo =
    Eval.eval_coexist
      ~flows:[ Eval.Coexist_tcp ("cubic", Eval.cubic_scheme) ]
      (coexist_link 3_000)
  in
  check_int "single flow" 1 (Array.length solo.Eval.flows);
  Alcotest.(check (float 1e-9)) "solo jain" 1.0 solo.Eval.jain;
  Alcotest.(check (float 1e-9)) "solo share" 1.0 solo.Eval.flows.(0).Eval.share;
  let trio =
    Eval.eval_coexist
      ~flows:
        [
          Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
          Eval.Coexist_tcp ("vegas", Eval.vegas_scheme);
          Eval.Coexist_tcp ("bbr", Eval.bbr_scheme);
        ]
      (coexist_link 3_000)
  in
  check_int "all-tcp trio" 3 (Array.length trio.Eval.flows);
  check_bool "trio jain in (0,1]" true
    (trio.Eval.jain > 0. && trio.Eval.jain <= 1.0000001);
  let shares =
    Array.fold_left
      (fun acc (f : Eval.coexist_flow) -> acc +. f.share)
      0. trio.Eval.flows
  in
  check_bool "trio shares sum to 1" true (Float.abs (shares -. 1.) < 1e-9)

(* The mixed harness serves Canopy flows through the pool-parallel GEMM,
   so its results must be bit-identical at any domain count. *)
let test_coexist_domains_bit_identical () =
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 3)
      ~in_dim:(5 * Canopy_orca.Observation.feature_count)
      ~hidden:16 ~out_dim:1
  in
  let run () =
    let r =
      Eval.eval_coexist
        ~flows:[ Eval.Coexist_canopy (`Mlp actor); Eval.Coexist_tcp ("cubic", Eval.cubic_scheme) ]
        (coexist_link 2_000)
    in
    ( bits
        (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) r.Eval.flows),
      Int64.bits_of_float r.Eval.jain,
      Int64.bits_of_float r.Eval.utilization )
  in
  let want = with_default_pool 1 run in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "domains %d == domains 1" d)
        true
        (with_default_pool d run = want))
    [ 2; 3 ]

(* Staggered arrivals: a flow that joins late delivers less than its
   simultaneous twin, an all-zero arrival vector is the bit-exact
   default, and a wrong-length vector is rejected. *)
let test_coexist_arrivals () =
  let flows =
    [
      Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
      Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
    ]
  in
  let base = Eval.eval_coexist ~flows (coexist_link 4_000) in
  let zeroed =
    Eval.eval_coexist ~arrivals:[| 0; 0 |] ~flows (coexist_link 4_000)
  in
  check_bool "zero arrivals == default (bits)" true
    (bits (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) base.Eval.flows)
     = bits
         (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) zeroed.Eval.flows)
    && Int64.bits_of_float base.Eval.jain = Int64.bits_of_float zeroed.Eval.jain);
  let late =
    Eval.eval_coexist ~arrivals:[| 0; 2_000 |] ~flows (coexist_link 4_000)
  in
  check_bool "late flow gets smaller share" true
    (late.Eval.flows.(1).Eval.share < late.Eval.flows.(0).Eval.share);
  check_bool "late arrival hurts fairness" true (late.Eval.jain < base.Eval.jain);
  check_bool "wrong-length arrivals rejected" true
    (match Eval.eval_coexist ~arrivals:[| 0 |] ~flows (coexist_link 2_000) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Determinism of the coexistence harness itself: same spec, same
   trajectory, and flow order does not change totals. *)
let test_coexist_deterministic () =
  let run () =
    let r =
      Eval.eval_coexist
        ~flows:
          [
            Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
            Eval.Coexist_tcp ("vegas", Eval.vegas_scheme);
          ]
        (coexist_link 2_000)
    in
    ( bits
        (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) r.Eval.flows),
      Int64.bits_of_float r.Eval.jain )
  in
  check_bool "repeat run identical" true (run () = run ())

let suite =
  [
    Alcotest.test_case "fleet == per-flow Env (bits)" `Quick
      test_fleet_matches_env;
    Alcotest.test_case "fleet_env == per-flow Agent_env (bits)" `Quick
      test_fleet_env_matches_agent_env;
    Alcotest.test_case "fleet domains 2,4 == sequential" `Quick
      test_fleet_domains_bit_identical;
    Alcotest.test_case "fleet_eval serve result" `Quick test_fleet_eval_run;
    Alcotest.test_case "fleet_env validation" `Quick test_fleet_env_validation;
    Alcotest.test_case "coexist: cubic pair fair" `Quick
      test_coexist_cubic_pair_fair;
    Alcotest.test_case "coexist: canopy vs cubic/bbr" `Quick
      test_coexist_canopy_vs_tcp_runs;
    Alcotest.test_case "coexist: degenerate mixes" `Quick
      test_coexist_degenerate_mixes;
    Alcotest.test_case "coexist: domains 2,3 == 1 (bits)" `Quick
      test_coexist_domains_bit_identical;
    Alcotest.test_case "coexist: staggered arrivals" `Quick
      test_coexist_arrivals;
    Alcotest.test_case "coexist: deterministic" `Quick
      test_coexist_deterministic;
    Alcotest.test_case "fleet serve allocation gate" `Quick
      test_fleet_serve_alloc_gate;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_fleet
