(** The Orca RL environment for one link, as a one-flow view of
    {!Fleet_env}: a bottleneck link with a Cubic backbone whose window a
    learned agent modulates at coarse monitoring steps. Each {!step}
    applies the agent's action [a ∈ \[-1,1\]] through Eq. 1
    ([CWND = 2^{2a} · CWND_TCP]), enforces the resulting window for one
    monitoring interval while Cubic keeps performing fine-grained
    control inside it, and returns the next agent state (the
    concatenated feature frames of the past [history] observations)
    together with the raw reward. *)

type config = Fleet_env.config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  buffer_pkts : int;
  duration_ms : int;
  history : int;
  interval_ms : int option;
  delay_noise : (Canopy_util.Prng.t * float) option;
  impairments : Canopy_netsim.Env.impairments;
  reward : Reward.config;
}
(** See {!Fleet_env.config}. *)

val default_config :
  trace:Canopy_trace.Trace.t ->
  min_rtt_ms:int ->
  buffer_pkts:int ->
  duration_ms:int ->
  config
(** {!Fleet_env.default_config}. *)

val state_dim : config -> int
(** [history × Observation.feature_count]. *)

type t

val create : config -> t
val config : t -> config
val interval_ms : t -> int

val reset : t -> float array
(** Rebuild the link and backbone from scratch; returns the initial
    (zero-history) state. *)

type step_result = {
  state : float array;  (** next agent state *)
  raw_reward : float;  (** Orca reward for the elapsed interval *)
  observation : Observation.t;  (** the interval's observation *)
  features : float array;  (** the newest normalized frame *)
  cwnd_tcp : float;  (** Cubic's suggestion before enforcement (CWND_TCP) *)
  cwnd_enforced : float;  (** the window actually applied (Eq. 1) *)
  finished : bool;  (** episode reached [duration_ms] *)
}

val step : t -> action:float -> step_result
(** Raises [Invalid_argument] if the action is outside [\[-1,1\]] or the
    episode already finished. *)

val cwnd_of_action : action:float -> cwnd_tcp:float -> float
(** Eq. 1 with the window clamp: {!Fleet_env.cwnd_of_action}. *)

val min_enforced : float
val max_enforced : float

val prev_cwnd_enforced : t -> float
(** The window enforced during the previous step (CWND_{i−1} of the
    performance property); equals the initial window before any step. *)

val cwnd_tcp : t -> float
(** Cubic's current window suggestion — the CWND_TCP that the next
    {!step}'s Eq. 1 will scale. The verifier uses this to turn an
    abstract action interval into an abstract CWND interval. *)

val state : t -> float array
(** Current agent state without advancing the environment. *)

(** Cumulative link counters since the last reset. *)
type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  capacity_pkts : float;  (** delivery opportunities offered by the trace *)
  rtt_samples : Canopy_util.Fbuf.t;  (** per-ACK RTT in ms *)
}

val env_stats : t -> stats
val utilization : t -> float
val avg_qdelay_ms : t -> float
val qdelay_array_ms : t -> float array
val loss_rate : t -> float
val thr_scale_mbps : t -> float
(** Running THR_max used for feature normalization. *)
