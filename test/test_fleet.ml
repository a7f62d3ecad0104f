(* Tests for the fleet simulator and its serving stack: bit-for-bit
   equivalence of [Fleet] with the per-packet reference simulator
   [Env_oracle] and of [Fleet_env] (and its one-flow view [Agent_env])
   with the reference episode loop [Agent_env_oracle], randomized
   properties of the fleet (conservation, queue bound, monotone
   counters, flow independence), determinism of the pool-parallel
   advancement across domain counts, and the mixed Canopy-vs-TCP
   coexistence harness. *)

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
(* Fleet vs per-flow reference simulator, bit for bit *)

(* Every observable of a link — counters, queue, window, metrics — as
   named int64s (floats by their bits), so two links compare to the
   bit. *)
let oracle_observables env =
  let s = Env_oracle.stats env and i = Int64.of_int in
  let f = Int64.bits_of_float in
  [
    ("sent", i s.Env_oracle.sent);
    ("delivered", i s.Env_oracle.delivered);
    ("dropped", i s.Env_oracle.dropped);
    ("inflight", i (Env_oracle.inflight env));
    ("queue", i (Env_oracle.queue_len env));
    ("capacity", f s.Env_oracle.capacity_pkts);
    ("cwnd", f (Env_oracle.cwnd env));
    ("utilization", f (Env_oracle.utilization env));
    ("loss rate", f (Env_oracle.loss_rate env));
    ("avg qdelay", f (Env_oracle.avg_qdelay_ms env));
  ]

let fleet_observables fleet ~flow =
  let i = Int64.of_int and f = Int64.bits_of_float in
  [
    ("sent", i (Fleet.sent fleet ~flow));
    ("delivered", i (Fleet.delivered fleet ~flow));
    ("dropped", i (Fleet.dropped fleet ~flow));
    ("inflight", i (Fleet.inflight fleet ~flow));
    ("queue", i (Fleet.queue_len fleet ~flow));
    ("capacity", f (Fleet.capacity_pkts fleet ~flow));
    ("cwnd", f (Fleet.cwnd fleet ~flow));
    ("utilization", f (Fleet.utilization fleet ~flow));
    ("loss rate", f (Fleet.loss_rate fleet ~flow));
    ("avg qdelay", f (Fleet.avg_qdelay_ms fleet ~flow));
  ]

(* First observable that differs between two links. *)
let mismatch a b =
  List.find_map
    (fun ((name, x), (_, y)) -> if Int64.equal x y then None else Some name)
    (List.combine a b)

(* Drive N [Env_oracle] links and one N-flow [Fleet] through the same cwnd
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
  (* Per-packet reference. *)
  let envs = Array.map Env_oracle.create cfgs in
  let e_acks, e_losses, e_handlers = record () in
  for seg = 0 to 7 do
    Array.iteri (fun i env -> Env_oracle.set_cwnd env (schedule i seg)) envs;
    Array.iteri (fun i env -> Env_oracle.run env e_handlers.(i) ~ms:50) envs
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
  check_int "now" (Env_oracle.now_ms envs.(0)) (Fleet.now_ms fleet);
  for i = 0 to n - 1 do
    let tag fmt = Printf.sprintf ("flow %d: " ^^ fmt) i in
    check_bool (tag "ack stream") true (e_acks.(i) = f_acks.(i));
    check_bool (tag "loss stream") true (e_losses.(i) = f_losses.(i));
    match
      mismatch (oracle_observables envs.(i)) (fleet_observables fleet ~flow:i)
    with
    | Some what -> Alcotest.failf "flow %d: %s bits differ" i what
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Fleet vs per-flow reference simulator over random configurations,
   and properties of the fleet alone *)

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

(* N links driven one way: set flow [i]'s window, advance every flow
   [ms] milliseconds with one handlers record per flow, read flow [i]'s
   observables. *)
type links = {
  set_cwnd : int -> float -> unit;
  advance : Env.handlers array -> ms:int -> unit;
  observe : int -> (string * int64) list;
}

let fleet_links fleet =
  {
    set_cwnd = (fun i w -> Fleet.set_cwnd fleet ~flow:i w);
    advance = (fun handlers ~ms -> Fleet.run fleet handlers ~ms);
    observe = (fun i -> fleet_observables fleet ~flow:i);
  }

let oracle_links envs =
  {
    set_cwnd = (fun i w -> Env_oracle.set_cwnd envs.(i) w);
    advance =
      (fun handlers ~ms ->
        Array.iteri (fun i env -> Env_oracle.run env handlers.(i) ~ms) envs);
    observe = (fun i -> oracle_observables envs.(i));
  }

(* One one-flow fleet per link. *)
let solo_links solos =
  {
    set_cwnd = (fun i w -> Fleet.set_cwnd solos.(i) ~flow:0 w);
    advance =
      (fun handlers ~ms ->
        Array.iteri (fun i solo -> Fleet.run solo [| handlers.(i) |] ~ms) solos);
    observe = (fun i -> fleet_observables solos.(i) ~flow:0);
  }

(* Segment [windows] give flow [i] the window [List.nth windows (i mod
   length)]. *)
let segment_window windows i =
  match windows with
  | [] -> 1
  | _ -> List.nth windows (i mod List.length windows)

(* Each segment sets every flow's window ([window i w]) on both sides
   and advances both, then requires identical per-flow event streams
   for the segment and identical observables after it. *)
let same_trajectories ~window ~n segments (a : links) (b : links) =
  let a_events, a_handlers = recording_handlers n in
  let b_events, b_handlers = recording_handlers n in
  List.iteri
    (fun seg (ms, windows) ->
      for i = 0 to n - 1 do
        let w = float_of_int (window i (segment_window windows i)) in
        a.set_cwnd i w;
        b.set_cwnd i w;
        a_events.(i) <- [];
        b_events.(i) <- []
      done;
      a.advance a_handlers ~ms;
      b.advance b_handlers ~ms;
      for i = 0 to n - 1 do
        if a_events.(i) <> b_events.(i) then
          QCheck.Test.fail_reportf "segment %d, flow %d: event stream" seg i;
        match mismatch (a.observe i) (b.observe i) with
        | Some what ->
            QCheck.Test.fail_reportf "segment %d, flow %d: %s" seg i what
        | None -> ()
      done)
    segments;
  true

(* An out-of-order event (ACK jitter or reordering) costs both
   simulators time that grows with the packets in flight: [Env_oracle]
   rebuilds and sorts its whole return path, and the fleet shifts every
   later event one slot — including, behind a jittered ACK, each of a
   millisecond's overflow-drop notices. Flows with jitter or reordering
   therefore keep windows of at most [jittered_window_cap], so a
   150-case property runs in seconds rather than minutes. *)
let jittered_window_cap = 512

let window_of (cfgs : Env.config array) i w =
  let imp = cfgs.(i).impairments in
  if imp.ack_jitter_ms > 0 || imp.reorder_prob > 0. then
    Int.min w jittered_window_cap
  else w

(* The fleet against one per-packet oracle per flow; one [Fleet.run]
   covers each whole segment. *)
let fleet_matches_envs (flows, segments) =
  match flows with
  | [] -> true
  | _ ->
      let cfgs = Array.of_list (List.map env_config flows) in
      same_trajectories ~window:(window_of cfgs) ~n:(Array.length cfgs)
        segments
        (oracle_links (Array.map Env_oracle.create cfgs))
        (fleet_links (Fleet.create cfgs))

(* Flows never interact: an N-flow fleet is N one-flow fleets. *)
let fleet_matches_solo_fleets (flows, segments) =
  match flows with
  | [] -> true
  | _ ->
      let cfgs = Array.of_list (List.map env_config flows) in
      same_trajectories ~window:(window_of cfgs) ~n:(Array.length cfgs)
        segments
        (solo_links (Array.map (fun c -> Fleet.create [| c |]) cfgs))
        (fleet_links (Fleet.create cfgs))

(* Drives a random fleet through the random window schedule (capped as
   above) and runs [check fleet ~losses i] after each of flow [i]'s
   milliseconds, where [losses.(i)] counts the loss notifications flow
   [i] has received. *)
let fleet_invariant check (flows, segments) =
  match flows with
  | [] -> true
  | _ ->
      let cfgs = Array.of_list (List.map env_config flows) in
      let n = Array.length cfgs in
      let fleet = Fleet.create cfgs and losses = Array.make n 0 in
      let handlers =
        Array.init n (fun i ->
            {
              Env.on_ack = ignore;
              on_loss = (fun ~now_ms:_ -> losses.(i) <- losses.(i) + 1);
            })
      in
      let after_tick = check fleet ~losses in
      List.iter
        (fun (ms, windows) ->
          for i = 0 to n - 1 do
            Fleet.set_cwnd fleet ~flow:i
              (float_of_int (window_of cfgs i (segment_window windows i)))
          done;
          Fleet.run ~after_tick fleet handlers ~ms)
        segments;
      true

(* Every packet sent is delivered, announced lost, or still in flight
   (queued, or its ACK or loss notice on the return path). *)
let conserves_packets fleet ~losses i =
  let sent = Fleet.sent fleet ~flow:i in
  let delivered = Fleet.delivered fleet ~flow:i in
  let inflight = Fleet.inflight fleet ~flow:i in
  if sent <> delivered + losses.(i) + inflight then
    QCheck.Test.fail_reportf
      "flow %d: sent %d <> delivered %d + loss notices %d + inflight %d" i
      sent delivered losses.(i) inflight

let queue_within_buffer fleet ~losses:_ i =
  let q = Fleet.queue_len fleet ~flow:i in
  let buffer = (Fleet.config fleet ~flow:i).Env.buffer_pkts in
  if q < 0 || q > buffer then
    QCheck.Test.fail_reportf "flow %d: queue %d outside [0, %d]" i q buffer

(* [sent], [delivered] and [dropped] never decrease. The closure keeps
   each flow's previous readings. *)
let counters_monotone fleet ~losses:_ =
  let n = Fleet.flows fleet in
  let prev = Array.make (3 * n) 0 in
  fun i ->
    List.iteri
      (fun k (name, get) ->
        let v = get fleet ~flow:i in
        if v < prev.((3 * i) + k) then
          QCheck.Test.fail_reportf "flow %d: %s fell from %d to %d" i name
            prev.((3 * i) + k) v;
        prev.((3 * i) + k) <- v)
      [ ("sent", Fleet.sent); ("delivered", Fleet.delivered);
        ("dropped", Fleet.dropped) ]

let arb_fleet = QCheck.(pair (list_of_size Gen.(1 -- 6) arb_flow) arb_segments)

let qcheck_fleet =
  [
    QCheck.Test.make ~name:"fleet == per-flow Env on random configs (bits)"
      ~count:150 arb_fleet fleet_matches_envs;
  ]

(* Properties of the fleet alone, over the same generators. *)
let qcheck_fleet_properties =
  [
    QCheck.Test.make ~name:"fleet(n) == n x fleet(1) (bits)" ~count:150
      arb_fleet fleet_matches_solo_fleets;
    QCheck.Test.make ~name:"fleet conserves packets" ~count:150 arb_fleet
      (fleet_invariant conserves_packets);
    QCheck.Test.make ~name:"fleet queue within buffer" ~count:150 arb_fleet
      (fleet_invariant queue_within_buffer);
    QCheck.Test.make ~name:"fleet counters monotone" ~count:150 arb_fleet
      (fleet_invariant counters_monotone);
  ]

(* ------------------------------------------------------------------ *)
(* Fleet_env and Agent_env vs the reference episode loop, bit for bit *)

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

(* The reference loop drives N one-flow episodes; [Fleet_env] serves
   the same N flows as one fleet, and one [Agent_env] view per flow
   steps them one at a time. Every state, reward and window must agree
   to the bit at every step, and each view's observation, feature frame
   and link metrics must match the reference episode's. *)
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
  let envs = Array.map Agent_env_oracle.create cfgs in
  let views = Array.map Agent_env.create cfgs in
  let x = Mat.create ~rows:n ~cols:(Fleet_env.state_dim fenv) in
  let y = Mat.create_uninit ~rows:n ~cols:1 in
  let actions = Array.make n 0. in
  let step = ref 0 in
  let fin = ref false in
  let fbits a b = Int64.bits_of_float a = Int64.bits_of_float b in
  while not !fin do
    Fleet_env.write_states fenv ~dst:x;
    for i = 0 to n - 1 do
      let want = bits (Agent_env_oracle.state envs.(i)) in
      let tag what = Printf.sprintf "step %d flow %d: %s bits" !step i what in
      check_bool (tag "state") true (bits (Mat.row x i) = want);
      check_bool (tag "view state") true (bits (Agent_env.state views.(i)) = want);
      check_bool (tag "view cwnd_tcp") true
        (fbits (Agent_env.cwnd_tcp views.(i))
           (Agent_env_oracle.cwnd_tcp envs.(i)));
      check_bool (tag "view prev cwnd") true
        (fbits
           (Agent_env.prev_cwnd_enforced views.(i))
           (Agent_env_oracle.prev_cwnd_enforced envs.(i)))
    done;
    Mlp.forward_eval_into ~dst:y actor x;
    for i = 0 to n - 1 do
      actions.(i) <- clamp (Mat.raw y).(i)
    done;
    let fr = Fleet_env.step fenv ~actions in
    let srs =
      Array.mapi
        (fun i env -> Agent_env_oracle.step env ~action:actions.(i))
        envs
    in
    let vrs = Array.mapi (fun i v -> Agent_env.step v ~action:actions.(i)) views in
    let tag what = Printf.sprintf "step %d: %s bits" !step what in
    let oracle f = Array.map f srs and view f = Array.map f vrs in
    let o_reward = oracle (fun (r : Agent_env_oracle.step_result) -> r.raw_reward)
    and o_tcp = oracle (fun (r : Agent_env_oracle.step_result) -> r.cwnd_tcp)
    and o_enforced =
      oracle (fun (r : Agent_env_oracle.step_result) -> r.cwnd_enforced)
    in
    check_bool (tag "reward") true (bits fr.Fleet_env.rewards = bits o_reward);
    check_bool (tag "cwnd_tcp") true (bits fr.Fleet_env.cwnd_tcp = bits o_tcp);
    check_bool (tag "cwnd_enforced") true
      (bits fr.Fleet_env.cwnd_enforced = bits o_enforced);
    check_bool (tag "view reward") true
      (bits (view (fun (r : Agent_env.step_result) -> r.raw_reward))
      = bits o_reward);
    check_bool (tag "view cwnd_tcp") true
      (bits (view (fun (r : Agent_env.step_result) -> r.cwnd_tcp)) = bits o_tcp);
    check_bool (tag "view cwnd_enforced") true
      (bits (view (fun (r : Agent_env.step_result) -> r.cwnd_enforced))
      = bits o_enforced);
    for i = 0 to n - 1 do
      let s = srs.(i) and v = vrs.(i) in
      check_bool (tag "view next state") true
        (bits v.Agent_env.state = bits s.Agent_env_oracle.state);
      check_bool (tag "view features") true
        (bits v.Agent_env.features = bits s.Agent_env_oracle.features);
      check_bool (tag "view observation") true
        (v.Agent_env.observation = s.Agent_env_oracle.observation);
      check_bool "view finished agrees" true
        (v.Agent_env.finished = s.Agent_env_oracle.finished)
    done;
    check_bool "finished agrees" true
      (fr.Fleet_env.finished = srs.(n - 1).Agent_env_oracle.finished);
    fin := fr.Fleet_env.finished;
    incr step
  done;
  Array.iteri
    (fun i v ->
      let e = envs.(i) in
      let tag what = Printf.sprintf "flow %d: view %s bits" i what in
      let s = Agent_env.env_stats v and o = Agent_env_oracle.env_stats e in
      check_bool (tag "counters") true
        ((s.sent, s.delivered, s.dropped)
        = (o.Env_oracle.sent, o.Env_oracle.delivered, o.Env_oracle.dropped));
      check_bool (tag "capacity") true
        (fbits s.capacity_pkts o.Env_oracle.capacity_pkts);
      check_bool (tag "rtt samples") true
        (bits (Canopy_util.Fbuf.to_array s.rtt_samples)
        = bits (Canopy_util.Fbuf.to_array o.Env_oracle.rtt_samples));
      check_bool (tag "qdelays") true
        (bits (Agent_env.qdelay_array_ms v)
        = bits (Agent_env_oracle.qdelay_array_ms e));
      check_bool (tag "metrics") true
        (bits
           [|
             Agent_env.utilization v;
             Agent_env.loss_rate v;
             Agent_env.avg_qdelay_ms v;
             Agent_env.thr_scale_mbps v;
           |]
        = bits
            [|
              Agent_env_oracle.utilization e;
              Agent_env_oracle.loss_rate e;
              Agent_env_oracle.avg_qdelay_ms e;
              Agent_env_oracle.thr_scale_mbps e;
            |]))
    views;
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
  @ List.map QCheck_alcotest.to_alcotest qcheck_fleet_properties
