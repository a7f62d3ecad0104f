(** The link simulator: a struct-of-arrays fleet of independent
    bottleneck links, and the one implementation of the {!Env} link
    model's millisecond tick. A single link (an [Agent_env] episode, a
    [Cc.Runner] baseline) is a one-flow fleet.

    A fleet holds its links in flat per-flow arrays (cwnd/inflight/seq/
    delivered/dropped/credit plus ring-buffer bottleneck queues and
    return paths) and advances all of them through blocks of
    milliseconds at once. Flows never interact, so an N-flow fleet
    reproduces N one-flow fleets bit-for-bit.

    Links sharing a trace (by physical equality, at equal MTU) form a
    trace family: [run] computes one packets-per-ms table per family and
    every member flow reads it, instead of one trace lookup per flow per
    millisecond. The per-flow loop is chunked over
    [Canopy_util.Pool.default ()] with pure chunking; flows share no
    mutable state, so results are bit-identical at any domain count
    (sequential included). *)

type t

val create : Env.config array -> t
(** One link per config, all starting at time 0 with empty queues.
    Raises [Invalid_argument "Fleet.create: <field>"] on an invalid
    link (see {!Env.config}) and on an empty array. *)

val flows : t -> int
val now_ms : t -> int
val config : t -> flow:int -> Env.config

val cwnd : t -> flow:int -> float

val set_cwnd : t -> flow:int -> float -> unit
(** Clamped to at least 1 packet. *)

val inflight : t -> flow:int -> int
val queue_len : t -> flow:int -> int

val run :
  ?after_tick:(int -> unit) -> t -> Env.handlers array -> ms:int -> unit
(** [run t handlers ~ms] advances every flow by [ms] milliseconds;
    [handlers.(i)] receives flow [i]'s ack/loss events in arrival order,
    one [on_loss] call per lost packet. [after_tick i] (if given)
    runs after each of flow [i]'s milliseconds — the hook a congestion
    controller backbone uses to refresh the flow's cwnd mid-interval.
    Handlers and [after_tick] execute inside pool chunks and therefore
    must touch only flow-local state (no cross-flow writes, no shared
    accumulators); this is what keeps fleet stepping race-free and
    bit-identical at any domain count. *)

(** {2 Per-flow counters and metrics}

    Cumulative since creation. *)

val sent : t -> flow:int -> int
val delivered : t -> flow:int -> int
val dropped : t -> flow:int -> int
val capacity_pkts : t -> flow:int -> float
val utilization : t -> flow:int -> float
val loss_rate : t -> flow:int -> float

val avg_qdelay_ms : t -> flow:int -> float
(** Mean queueing delay over all acked packets; [0.] before any ack. *)

val throughput_mbps : t -> flow:int -> float
(** Delivered payload rate over the whole run; [0.] at time 0. *)
