(** The episode driver: N agent episodes ({!Agent_env}'s Orca
    environment) over one [Canopy_netsim.Fleet], with batched
    observation assembly. [Agent_env] is its one-flow view; flows never
    interact, so N flows reproduce N one-flow episodes bit-for-bit.

    All flows' feature histories live in one flat block, {!write_states}
    assembles the whole fleet's states into one [flows × state_dim]
    matrix row block, and {!step} takes the whole fleet's actions at
    once — the shape [Mlp.forward_eval_into] needs to serve every flow
    with a single GEMM per decision tick. *)

type config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  buffer_pkts : int;
  duration_ms : int;  (** episode length *)
  history : int;  (** k past observation frames in the state *)
  interval_ms : int option;  (** monitoring period; default max(20, minRTT) *)
  delay_noise : (Canopy_util.Prng.t * float) option;
      (** multiplicative noise on the observed queueing delay *)
  impairments : Canopy_netsim.Env.impairments;
      (** link pathologies (random loss, ACK jitter) *)
  reward : Reward.config;
}

val default_config :
  trace:Canopy_trace.Trace.t ->
  min_rtt_ms:int ->
  buffer_pkts:int ->
  duration_ms:int ->
  config
(** history = 5, automatic interval, no noise, default reward. *)

val interval_of : config -> int
(** The decision interval: [interval_ms], or max(20, minRTT). Raises
    [Invalid_argument] on a non-positive [interval_ms]. *)

val cwnd_of_action : action:float -> cwnd_tcp:float -> float
(** Eq. 1 with the simulator's window clamp: monotone in [action] for a
    fixed suggestion, which is what lets the verifier propagate action
    intervals through it exactly. *)

val min_enforced : float
val max_enforced : float

type t

val create :
  ?extra_handlers:Canopy_netsim.Env.handlers array -> config array -> t
(** One episode per config. All configs must agree on [history],
    decision interval and [duration_ms] (the batched tick runs the
    whole fleet on one cadence); traces, buffers, minRTTs, impairments
    and reward configs may differ per flow. [extra_handlers.(i)] also
    receives flow [i]'s ack/loss feedback (e.g. a per-ACK RTT recorder).
    Raises [Invalid_argument] on an empty array, an invalid config or
    heterogeneous cadence. *)

val flows : t -> int
val interval_ms : t -> int

val state_dim : t -> int
(** [history × Observation.feature_count], per flow. *)

val fleet : t -> Canopy_netsim.Fleet.t
(** The underlying fleet, for per-flow link metrics. *)

val finished : t -> bool
val thr_scale_mbps : t -> flow:int -> float
val prev_cwnd_enforced : t -> flow:int -> float

val cwnd_tcp : t -> flow:int -> float
(** Cubic's current suggestion: what the next {!step}'s Eq. 1 scales. *)

val state : t -> flow:int -> float array
(** Flow [flow]'s current state, oldest frame first. *)

val write_states : t -> dst:Canopy_tensor.Mat.t -> unit
(** Write every flow's state into row [i] of [dst]
    ([flows × state_dim]), with no allocation. *)

type step_result = {
  rewards : float array;
  cwnd_tcp : float array;  (** Cubic backbone window per flow, pre-override *)
  cwnd_enforced : float array;  (** Eq. 1 window actually enforced *)
  finished : bool;
}

val step :
  ?on_observation:(int -> Observation.t -> unit) ->
  t ->
  actions:float array ->
  step_result
(** Advance every flow by one decision interval under [actions.(i)] ∈
    [[-1,1]]. [on_observation i obs] receives flow [i]'s observation of
    the interval (the fleet keeps none). Raises [Invalid_argument] on a
    finished episode, a wrong-length array or an out-of-range action. *)
