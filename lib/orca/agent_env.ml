(* A one-flow view of [Fleet_env]. It adds what serving fleets do not
   keep: each step's observation (from [Fleet_env.step]'s callback) and
   the per-ACK RTT samples (from an extra handler) p95 delay needs. *)

module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet
module Fbuf = Canopy_util.Fbuf

type config = Fleet_env.config = {
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

let default_config = Fleet_env.default_config
let state_dim cfg = cfg.history * Observation.feature_count
let cwnd_of_action = Fleet_env.cwnd_of_action
let min_enforced = Fleet_env.min_enforced
let max_enforced = Fleet_env.max_enforced

type t = {
  cfg : config;
  mutable fenv : Fleet_env.t;
  mutable rtt_samples : Fbuf.t;
}

let fresh_fleet cfg =
  let rtt_samples = Fbuf.create () in
  let recorder =
    {
      Env.null_handlers with
      on_ack = (fun ack -> Fbuf.push rtt_samples (float_of_int ack.Env.rtt_ms));
    }
  in
  (Fleet_env.create ~extra_handlers:[| recorder |] [| cfg |], rtt_samples)

let create cfg =
  let fenv, rtt_samples = fresh_fleet cfg in
  { cfg; fenv; rtt_samples }

let config t = t.cfg
let interval_ms t = Fleet_env.interval_ms t.fenv
let state t = Fleet_env.state t.fenv ~flow:0

let reset t =
  let fenv, rtt_samples = fresh_fleet t.cfg in
  t.fenv <- fenv;
  t.rtt_samples <- rtt_samples;
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

let step t ~action =
  if Fleet_env.finished t.fenv then
    invalid_arg "Agent_env.step: episode finished";
  if Float.is_nan action || action < -1. || action > 1. then
    invalid_arg "Agent_env.step: action out of range";
  let observation = ref None in
  let r =
    Fleet_env.step t.fenv ~actions:[| action |]
      ~on_observation:(fun _ o -> observation := Some o)
  in
  let state = state t and fc = Observation.feature_count in
  {
    state;
    raw_reward = r.rewards.(0);
    observation = Option.get !observation;
    features = Array.sub state (Array.length state - fc) fc;
    cwnd_tcp = r.cwnd_tcp.(0);
    cwnd_enforced = r.cwnd_enforced.(0);
    finished = r.finished;
  }

let prev_cwnd_enforced t = Fleet_env.prev_cwnd_enforced t.fenv ~flow:0
let cwnd_tcp t = Fleet_env.cwnd_tcp t.fenv ~flow:0
let thr_scale_mbps t = Fleet_env.thr_scale_mbps t.fenv ~flow:0

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  capacity_pkts : float;
  rtt_samples : Fbuf.t;
}

let env_stats t =
  let fleet = Fleet_env.fleet t.fenv in
  {
    sent = Fleet.sent fleet ~flow:0;
    delivered = Fleet.delivered fleet ~flow:0;
    dropped = Fleet.dropped fleet ~flow:0;
    capacity_pkts = Fleet.capacity_pkts fleet ~flow:0;
    rtt_samples = t.rtt_samples;
  }

let utilization t = Fleet.utilization (Fleet_env.fleet t.fenv) ~flow:0
let loss_rate t = Fleet.loss_rate (Fleet_env.fleet t.fenv) ~flow:0
let avg_qdelay_ms t = Fleet.avg_qdelay_ms (Fleet_env.fleet t.fenv) ~flow:0

let qdelay_array_ms t =
  let min_rtt = float_of_int t.cfg.min_rtt_ms in
  Array.map
    (fun rtt -> Float.max 0. (rtt -. min_rtt))
    (Fbuf.to_array t.rtt_samples)
