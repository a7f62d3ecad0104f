(* Reference per-packet episode loop for [Canopy_orca.Fleet_env] and its
   one-flow view [Canopy_orca.Agent_env], kept as a test oracle: one
   [Env_oracle] link, a Cubic backbone and a monitor, stepped one
   millisecond at a time through Eq. 1's enforced window, with the
   feature history in a [Ring] of fresh frames. The tests require the
   production episode driver to reproduce its states, rewards and
   windows bit-for-bit. *)

open Canopy_orca

module Env = struct
  include Canopy_netsim.Env
  include Env_oracle
end

type config = Agent_env.config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  buffer_pkts : int;
  duration_ms : int;
  history : int;
  interval_ms : int option;
  delay_noise : (Canopy_util.Prng.t * float) option;
  impairments : Env.impairments;
  reward : Reward.config;
}

let state_dim cfg = cfg.history * Observation.feature_count

type t = {
  cfg : config;
  interval_ms : int;
  mutable env : Env.t;
  mutable cubic : Canopy_cc.Cubic.t;
  mutable monitor : Monitor.t;
  mutable reward : Reward.t;
  history : float array Canopy_util.Ring.t;
  mutable prev_cwnd : float;
  mutable thr_scale : float;
  mutable finished : bool;
}

let fresh_parts cfg =
  let env =
    Env.create
      {
        Env.trace = cfg.trace;
        min_rtt_ms = cfg.min_rtt_ms;
        buffer_pkts = cfg.buffer_pkts;
        mtu_bytes = Env.default_mtu;
        initial_cwnd = 10.;
        impairments = cfg.impairments;
      }
  in
  let cubic = Canopy_cc.Cubic.create () in
  let monitor =
    Monitor.create ?delay_noise:cfg.delay_noise ~min_rtt_ms:cfg.min_rtt_ms ()
  in
  (env, cubic, monitor)

let create (cfg : config) =
  if cfg.history <= 0 then invalid_arg "Agent_env.create: history";
  if cfg.duration_ms <= 0 then invalid_arg "Agent_env.create: duration";
  let interval_ms =
    match cfg.interval_ms with
    | Some ms ->
        if ms <= 0 then invalid_arg "Agent_env.create: interval";
        ms
    | None -> Int.max 20 cfg.min_rtt_ms
  in
  let env, cubic, monitor = fresh_parts cfg in
  let history = Canopy_util.Ring.create ~capacity:cfg.history in
  for _ = 1 to cfg.history do
    Canopy_util.Ring.push history Observation.zero_features
  done;
  {
    cfg;
    interval_ms;
    env;
    cubic;
    monitor;
    reward = Reward.create ~config:cfg.reward ();
    history;
    prev_cwnd = 10.;
    thr_scale = 0.;
    finished = false;
  }

let config t = t.cfg
let interval_ms t = t.interval_ms

let state (t : t) =
  Canopy_util.Ring.to_array t.history |> Array.to_list |> Array.concat

let reset (t : t) =
  let env, cubic, monitor = fresh_parts t.cfg in
  t.env <- env;
  t.cubic <- cubic;
  t.monitor <- monitor;
  t.reward <- Reward.create ~config:t.cfg.reward ();
  Canopy_util.Ring.clear t.history;
  for _ = 1 to t.cfg.history do
    Canopy_util.Ring.push t.history Observation.zero_features
  done;
  t.prev_cwnd <- 10.;
  t.thr_scale <- 0.;
  t.finished <- false;
  state t

type step_result = {
  state : float array;
  raw_reward : float;
  observation : Observation.t;
  features : float array;
  cwnd_tcp : float;
  cwnd_enforced : float;
  finished : bool;
}

let max_enforced = 50_000.
let min_enforced = 2.

(* Eq. 1 plus the window clamp the simulator enforces; the verifier lifts
   exactly this map so certificates speak about deployed behaviour. *)
let cwnd_of_action ~action ~cwnd_tcp =
  Canopy_util.Mathx.clamp ~lo:min_enforced ~hi:max_enforced
    (Canopy_util.Mathx.pow2 (2. *. action) *. cwnd_tcp)

let step (t : t) ~action =
  if t.finished then invalid_arg "Agent_env.step: episode finished";
  if Float.is_nan action || action < -1. || action > 1. then
    invalid_arg "Agent_env.step: action out of range";
  (* Eq. 1: CWND = 2^(2a) × CWND_TCP. The enforced value becomes the live
     window Cubic keeps adjusting inside the interval (the kernel socket's
     cwnd is the shared variable). *)
  let cwnd_tcp = Canopy_cc.Cubic.cwnd t.cubic in
  let cwnd_enforced = cwnd_of_action ~action ~cwnd_tcp in
  Canopy_cc.Cubic.force_cwnd t.cubic cwnd_enforced;
  Env.set_cwnd t.env cwnd_enforced;
  let handlers =
    Env.chain
      (Canopy_cc.Controller.handlers (Canopy_cc.Cubic.to_controller t.cubic))
      (Monitor.handlers t.monitor)
  in
  for _ = 1 to t.interval_ms do
    Env.tick t.env handlers;
    Env.set_cwnd t.env (Canopy_cc.Cubic.cwnd t.cubic)
  done;
  let obs =
    Monitor.take t.monitor ~now_ms:(Env.now_ms t.env)
      ~cwnd_pkts:cwnd_enforced
  in
  t.thr_scale <- Float.max t.thr_scale obs.Observation.thr_mbps;
  let features = Observation.to_features ~thr_scale_mbps:t.thr_scale obs in
  Canopy_util.Ring.push t.history features;
  let raw_reward = Reward.of_observation t.reward obs in
  t.prev_cwnd <- cwnd_enforced;
  if Env.now_ms t.env >= t.cfg.duration_ms then t.finished <- true;
  {
    state = state t;
    raw_reward;
    observation = obs;
    features;
    cwnd_tcp;
    cwnd_enforced;
    finished = t.finished;
  }

let prev_cwnd_enforced (t : t) = t.prev_cwnd
let cwnd_tcp (t : t) = Canopy_cc.Cubic.cwnd t.cubic
let env_stats (t : t) = Env.stats t.env
let utilization t = Env.utilization t.env
let avg_qdelay_ms t = Env.avg_qdelay_ms t.env
let qdelay_array_ms t = Env.qdelay_array_ms t.env
let loss_rate t = Env.loss_rate t.env
let thr_scale_mbps t = t.thr_scale
