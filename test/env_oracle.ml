(* Per-packet reference simulator of the link model in
   [Canopy_netsim.Env], kept as a test oracle for [Canopy_netsim.Fleet].

   One link, one OCaml queue per path, one loop iteration per packet,
   and an out-of-order return event reschedules by rebuilding and
   stable-sorting the whole return path. It is slow (quadratic in the
   packets in flight under jitter or reordering) and plainly correct:
   each phase reads as the model's definition. The tests drive it and
   the fleet through the same window schedules and require identical
   event streams and counters, to the bit. *)

open Canopy_netsim.Env

(* Events scheduled on the (uncongested) return path; arrival times are
   pushed in non-decreasing order so a plain FIFO suffices. *)
type return_event =
  | Ev_ack of { seq : int; sent_ms : int }
  | Ev_loss

type t = {
  cfg : config;
  mutable now_ms : int;
  mutable cwnd : float;
  mutable inflight : int;
  mutable next_seq : int;
  queue : (int * int) Queue.t; (* (seq, sent_ms) waiting at the bottleneck *)
  mutable queue_len : int;
  mutable credit : float; (* fractional delivery opportunities *)
  return_path : (int * return_event) Queue.t; (* (arrival_ms, event) *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable capacity_pkts : float;
  rtt_samples : Canopy_util.Fbuf.t;
  rng : Canopy_util.Prng.t;
  mutable last_scheduled_ms : int; (* watermark for the append fast path *)
}

let create cfg =
  if cfg.min_rtt_ms < 2 then invalid_arg "Env.create: min_rtt_ms";
  if cfg.buffer_pkts < 1 then invalid_arg "Env.create: buffer_pkts";
  if cfg.mtu_bytes <= 0 then invalid_arg "Env.create: mtu_bytes";
  if cfg.initial_cwnd < 1. then invalid_arg "Env.create: initial_cwnd";
  if cfg.impairments.random_loss < 0. || cfg.impairments.random_loss >= 1.
  then invalid_arg "Env.create: random_loss";
  if cfg.impairments.ack_jitter_ms < 0 then
    invalid_arg "Env.create: ack_jitter_ms";
  if cfg.impairments.reorder_prob < 0. || cfg.impairments.reorder_prob >= 1.
  then invalid_arg "Env.create: reorder_prob";
  if cfg.impairments.reorder_ms < 0 then invalid_arg "Env.create: reorder_ms";
  {
    cfg;
    now_ms = 0;
    cwnd = cfg.initial_cwnd;
    inflight = 0;
    next_seq = 0;
    queue = Queue.create ();
    queue_len = 0;
    credit = 0.;
    return_path = Queue.create ();
    sent = 0;
    delivered = 0;
    dropped = 0;
    capacity_pkts = 0.;
    rtt_samples = Canopy_util.Fbuf.create ();
    rng = Canopy_util.Prng.create cfg.impairments.seed;
    last_scheduled_ms = 0;
  }

let config t = t.cfg
let now_ms t = t.now_ms
let cwnd t = t.cwnd
let set_cwnd t w = t.cwnd <- Float.max 1. w
let inflight t = t.inflight
let queue_len t = t.queue_len

(* Sorted insertion: with ACK jitter the return path is no longer
   monotone in arrival time. The O(1) append fast-path (watermark check)
   covers the jitter-free case; the rebuild only triggers under jitter. *)
let schedule t arrival ev =
  if arrival >= t.last_scheduled_ms then begin
    t.last_scheduled_ms <- arrival;
    Queue.push (arrival, ev) t.return_path
  end
  else begin
    let items = Queue.fold (fun acc x -> x :: acc) [] t.return_path in
    Queue.clear t.return_path;
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      ((arrival, ev) :: List.rev items)
    |> List.iter (fun x -> Queue.push x t.return_path)
  end

let process_return_path t handlers =
  let continue = ref true in
  while !continue && not (Queue.is_empty t.return_path) do
    let arrival, ev = Queue.peek t.return_path in
    if arrival > t.now_ms then continue := false
    else begin
      ignore (Queue.pop t.return_path);
      match ev with
      | Ev_ack { seq; sent_ms } ->
          t.inflight <- Int.max 0 (t.inflight - 1);
          t.delivered <- t.delivered + 1;
          let rtt = t.now_ms - sent_ms in
          Canopy_util.Fbuf.push t.rtt_samples (float_of_int rtt);
          handlers.on_ack
            { now_ms = t.now_ms; seq; rtt_ms = rtt; delivered = t.delivered }
      | Ev_loss ->
          t.inflight <- Int.max 0 (t.inflight - 1);
          handlers.on_loss ~now_ms:t.now_ms
    end
  done

let drain_bottleneck t =
  let ppms =
    Canopy_trace.Trace.packets_per_ms ~mtu_bytes:t.cfg.mtu_bytes t.cfg.trace
      t.now_ms
  in
  t.capacity_pkts <- t.capacity_pkts +. ppms;
  t.credit <- t.credit +. ppms;
  let opportunities = int_of_float (Float.floor t.credit) in
  t.credit <- t.credit -. float_of_int opportunities;
  let used = Int.min opportunities t.queue_len in
  for _ = 1 to used do
    let seq, sent_ms = Queue.pop t.queue in
    t.queue_len <- t.queue_len - 1;
    let imp = t.cfg.impairments in
    if
      imp.random_loss > 0.
      && Canopy_util.Prng.float t.rng 1. < imp.random_loss
    then begin
      (* non-congestive (e.g. wireless) loss after the bottleneck *)
      t.dropped <- t.dropped + 1;
      schedule t (t.now_ms + t.cfg.min_rtt_ms) Ev_loss
    end
    else begin
      (* The packet reaches the receiver after the forward propagation
         delay and its ACK returns after the rest of minRTT (plus any
         return-path jitter): without jitter the ACK arrives exactly
         minRTT after the dequeue instant. *)
      let jitter =
        if imp.ack_jitter_ms = 0 then 0
        else Canopy_util.Prng.int t.rng (imp.ack_jitter_ms + 1)
      in
      (* Packet reordering: with probability [reorder_prob] this
         packet's feedback is held back an extra [reorder_ms], so ACKs
         of later packets overtake it — out-of-order delivery as the
         sender observes it. Both draws are gated on their knobs so a
         reorder-free config consumes exactly the pre-reorder PRNG
         stream. *)
      let reorder =
        if
          imp.reorder_prob > 0.
          && Canopy_util.Prng.float t.rng 1. < imp.reorder_prob
        then imp.reorder_ms
        else 0
      in
      schedule t
        (t.now_ms + t.cfg.min_rtt_ms + jitter + reorder)
        (Ev_ack { seq; sent_ms })
    end
  done

let sender_fill t =
  let window = Int.max 1 (int_of_float (Float.floor t.cwnd)) in
  while t.inflight < window do
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    t.sent <- t.sent + 1;
    t.inflight <- t.inflight + 1;
    if t.queue_len < t.cfg.buffer_pkts then begin
      Queue.push (seq, t.now_ms) t.queue;
      t.queue_len <- t.queue_len + 1
    end
    else begin
      (* Droptail: the sender learns about the loss one minRTT later,
         approximating dup-ACK detection. *)
      t.dropped <- t.dropped + 1;
      schedule t (t.now_ms + t.cfg.min_rtt_ms) Ev_loss
    end
  done

let tick t handlers =
  t.now_ms <- t.now_ms + 1;
  process_return_path t handlers;
  (* Fill before draining so a packet can use a delivery opportunity in
     the millisecond it arrives (Mahimahi semantics): an uncongested path
     then yields RTT = minRTT exactly. *)
  sender_fill t;
  drain_bottleneck t

let run t handlers ~ms =
  if ms < 0 then invalid_arg "Env.run: ms";
  for _ = 1 to ms do
    tick t handlers
  done

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  capacity_pkts : float;
  rtt_samples : Canopy_util.Fbuf.t;
}

let stats (t : t) =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    capacity_pkts = t.capacity_pkts;
    rtt_samples = t.rtt_samples;
  }

let utilization (t : t) =
  if t.capacity_pkts <= 0. then 0.
  else Float.min 1. (float_of_int t.delivered /. t.capacity_pkts)

let loss_rate (t : t) =
  if t.sent = 0 then 0. else float_of_int t.dropped /. float_of_int t.sent

let qdelay_array_ms (t : t) =
  let min_rtt = float_of_int t.cfg.min_rtt_ms in
  Array.map
    (fun rtt -> Float.max 0. (rtt -. min_rtt))
    (Canopy_util.Fbuf.to_array t.rtt_samples)

let avg_qdelay_ms t =
  let samples = qdelay_array_ms t in
  Canopy_util.Stats.mean samples
