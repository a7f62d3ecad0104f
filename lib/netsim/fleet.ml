(* Struct-of-arrays fleet of independent bottleneck links: the one
   millisecond-tick implementation of the link model in [Env]. The tests
   hold it to the per-packet reference simulator test/env_oracle.ml, bit
   for bit. All per-flow scalars live in flat arrays indexed by flow,
   the bottleneck queue and the return path are per-flow int rings
   carved out of per-flow arrays, and [run] advances every flow through
   a whole block of milliseconds at once so the per-flow loop can be
   chunked over [Canopy_util.Pool] (flows never share state, so parallel
   execution is bit-identical to sequential by construction).

   Trace lookups are hoisted: [run] precomputes one packets-per-ms table
   per trace family (links sharing a trace by physical equality) and
   every flow of the family reads the shared table instead of calling
   [Trace.packets_per_ms] per flow per millisecond. *)

module Trace = Canopy_trace.Trace
module Prng = Canopy_util.Prng
module Pool = Canopy_util.Pool

(* Return-path event kinds. *)
let ev_ack = 0
let ev_loss = 1

type t = {
  cfgs : Env.config array;
  n : int;
  mutable now_ms : int;
  (* trace families: distinct (trace, mtu) pairs; [family.(i)] indexes
     [fam_trace]/[fam_mtu] *)
  fam_trace : Trace.t array;
  fam_mtu : int array;
  family : int array;
  (* per-flow scalar state, flat *)
  min_rtt : int array;
  buffer : int array;
  random_loss : float array;
  jitter : int array;
  reorder_prob : float array;
  reorder_ms : int array;
  cwnd : float array;
  inflight : int array;
  next_seq : int array;
  sent : int array;
  delivered : int array;
  dropped : int array;
  credit : float array;
  capacity_pkts : float array;
  qdelay_sum_ms : float array;
  last_scheduled : int array;
  (* bottleneck queue: per-flow fixed-capacity ring of (seq, sent_ms);
     capacity = buffer_pkts, the droptail bound *)
  q_seq : int array array;
  q_sent : int array array;
  q_head : int array;
  q_len : int array;
  (* return path: per-flow growable ring of (arrival, kind, seq,
     sent_ms); the outer slots are replaced on growth *)
  r_arrival : int array array;
  r_kind : int array array;
  r_seq : int array array;
  r_sent : int array array;
  r_head : int array;
  r_len : int array;
  rng : Prng.t array;
}

let create cfgs =
  let n = Array.length cfgs in
  if n = 0 then invalid_arg "Fleet.create: no links";
  Array.iter
    (fun (cfg : Env.config) ->
      if cfg.min_rtt_ms < 2 then invalid_arg "Fleet.create: min_rtt_ms";
      if cfg.buffer_pkts < 1 then invalid_arg "Fleet.create: buffer_pkts";
      if cfg.mtu_bytes <= 0 then invalid_arg "Fleet.create: mtu_bytes";
      if cfg.initial_cwnd < 1. then invalid_arg "Fleet.create: initial_cwnd";
      if cfg.impairments.random_loss < 0. || cfg.impairments.random_loss >= 1.
      then invalid_arg "Fleet.create: random_loss";
      if cfg.impairments.ack_jitter_ms < 0 then
        invalid_arg "Fleet.create: ack_jitter_ms";
      if cfg.impairments.reorder_prob < 0. || cfg.impairments.reorder_prob >= 1.
      then invalid_arg "Fleet.create: reorder_prob";
      if cfg.impairments.reorder_ms < 0 then
        invalid_arg "Fleet.create: reorder_ms")
    cfgs;
  (* Dedup trace families by physical equality on the trace (plus mtu,
     which scales the packets-per-ms conversion). *)
  let fams = ref [] (* reversed (trace, mtu) list *) and nfam = ref 0 in
  let family =
    Array.map
      (fun (cfg : Env.config) ->
        let rec find k = function
          | [] -> None
          | (tr, mtu) :: tl ->
              if tr == cfg.trace && mtu = cfg.mtu_bytes then Some (k - 1)
              else find (k - 1) tl
        in
        match find !nfam !fams with
        | Some k -> k
        | None ->
            fams := (cfg.trace, cfg.mtu_bytes) :: !fams;
            incr nfam;
            !nfam - 1)
      cfgs
  in
  let fam_arr = Array.of_list (List.rev !fams) in
  {
    cfgs;
    n;
    now_ms = 0;
    fam_trace = Array.map fst fam_arr;
    fam_mtu = Array.map snd fam_arr;
    family;
    min_rtt = Array.map (fun (c : Env.config) -> c.min_rtt_ms) cfgs;
    buffer = Array.map (fun (c : Env.config) -> c.buffer_pkts) cfgs;
    random_loss =
      Array.map (fun (c : Env.config) -> c.impairments.random_loss) cfgs;
    jitter =
      Array.map (fun (c : Env.config) -> c.impairments.ack_jitter_ms) cfgs;
    reorder_prob =
      Array.map (fun (c : Env.config) -> c.impairments.reorder_prob) cfgs;
    reorder_ms =
      Array.map (fun (c : Env.config) -> c.impairments.reorder_ms) cfgs;
    cwnd = Array.map (fun (c : Env.config) -> c.initial_cwnd) cfgs;
    inflight = Array.make n 0;
    next_seq = Array.make n 0;
    sent = Array.make n 0;
    delivered = Array.make n 0;
    dropped = Array.make n 0;
    credit = Array.make n 0.;
    capacity_pkts = Array.make n 0.;
    qdelay_sum_ms = Array.make n 0.;
    last_scheduled = Array.make n 0;
    q_seq = Array.map (fun (c : Env.config) -> Array.make c.buffer_pkts 0) cfgs;
    q_sent = Array.map (fun (c : Env.config) -> Array.make c.buffer_pkts 0) cfgs;
    q_head = Array.make n 0;
    q_len = Array.make n 0;
    r_arrival = Array.init n (fun _ -> Array.make 16 0);
    r_kind = Array.init n (fun _ -> Array.make 16 0);
    r_seq = Array.init n (fun _ -> Array.make 16 0);
    r_sent = Array.init n (fun _ -> Array.make 16 0);
    r_head = Array.make n 0;
    r_len = Array.make n 0;
    rng = Array.map (fun (c : Env.config) -> Prng.create c.impairments.seed) cfgs;
  }

let flows t = t.n
let now_ms t = t.now_ms
let config t ~flow = t.cfgs.(flow)
let cwnd t ~flow = t.cwnd.(flow)
let set_cwnd t ~flow w = t.cwnd.(flow) <- Float.max 1. w
let inflight t ~flow = t.inflight.(flow)
let queue_len t ~flow = t.q_len.(flow)
let sent t ~flow = t.sent.(flow)
let delivered t ~flow = t.delivered.(flow)
let dropped t ~flow = t.dropped.(flow)
let capacity_pkts t ~flow = t.capacity_pkts.(flow)

(* ------------------------------------------------------------------ *)
(* Rings *)

(* Both per-flow rings wrap their positions by compare-and-subtract, not
   [mod]: every position handed to [wrap] is below [2 * cap]. *)
let[@inline] wrap p cap = if p >= cap then p - cap else p
let[@inline] wrap_prev p cap = if p = 0 then cap - 1 else p - 1

(* Make room on flow [i]'s return ring for [extra] more events, growing
   ×2 (unrolling the ring to offset 0, order preserved) until they fit,
   so the caller can then push them through arrays it read once. *)
let ret_reserve t i extra =
  let cap = Array.length t.r_arrival.(i) and len = t.r_len.(i) in
  if len + extra > cap then begin
    let rec fit c = if len + extra > c then fit (2 * c) else c in
    let ncap = fit (2 * cap) in
    let head = t.r_head.(i) in
    let first = Int.min len (cap - head) in
    let grow src =
      let dst = Array.make ncap 0 in
      Array.blit src head dst 0 first;
      Array.blit src 0 dst first (len - first);
      dst
    in
    t.r_arrival.(i) <- grow t.r_arrival.(i);
    t.r_kind.(i) <- grow t.r_kind.(i);
    t.r_seq.(i) <- grow t.r_seq.(i);
    t.r_sent.(i) <- grow t.r_sent.(i);
    t.r_head.(i) <- 0
  end

(* Schedule one event on a return ring [ra]/[rk]/[rs]/[rm] of capacity
   [cap] holding [len] events from [head], with room for one more;
   returns the new watermark. The ring is always sorted by arrival: an
   arrival at or past the watermark [last] is appended (the O(1)
   jitter-free path), and an earlier one — possible only under jitter
   or reordering — is inserted before the first event whose arrival is
   ≥ its own, shifting the later events one slot towards the tail, and
   the watermark is left untouched. That is where the reference
   simulator's "cons ahead of the FIFO contents, then stable-sort by
   arrival" puts it. *)
let ret_schedule (ra : int array) (rk : int array) (rs : int array)
    (rm : int array) ~cap ~head ~len ~last (arrival : int) kind seq sent_ms =
  let p = ref (wrap (head + len) cap) in
  if arrival < last then begin
    let k = ref len in
    while !k > 0 && ra.(wrap_prev !p cap) >= arrival do
      let q = wrap_prev !p cap in
      ra.(!p) <- ra.(q);
      rk.(!p) <- rk.(q);
      rs.(!p) <- rs.(q);
      rm.(!p) <- rm.(q);
      p := q;
      decr k
    done
  end;
  ra.(!p) <- arrival;
  rk.(!p) <- kind;
  rs.(!p) <- seq;
  rm.(!p) <- sent_ms;
  Int.max last arrival

(* Schedule [count] loss notifications, all arriving at [arrival], on
   flow [i]'s return ring. *)
let schedule_losses t i ~arrival ~count =
  ret_reserve t i count;
  let ra = t.r_arrival.(i) and rk = t.r_kind.(i) in
  let rs = t.r_seq.(i) and rm = t.r_sent.(i) in
  let cap = Array.length ra and head = t.r_head.(i) and len = t.r_len.(i) in
  let last = ref t.last_scheduled.(i) in
  for c = 0 to count - 1 do
    last :=
      ret_schedule ra rk rs rm ~cap ~head ~len:(len + c) ~last:!last arrival
        ev_loss 0 0
  done;
  t.r_len.(i) <- len + count;
  t.last_scheduled.(i) <- !last

(* ------------------------------------------------------------------ *)
(* One millisecond of one flow *)

(* The ring arrays are read once per call. Everything a handler could
   observe, or that must survive a handler raising (the ring cursor,
   inflight, delivered, the queueing-delay sum), is stored before each
   handler call. *)
let process_return_path t (handlers : Env.handlers array) i ~now =
  let ra = t.r_arrival.(i) in
  let head = ref t.r_head.(i) and len = ref t.r_len.(i) in
  if !len > 0 && ra.(!head) <= now then begin
    let rk = t.r_kind.(i) and rs = t.r_seq.(i) and rm = t.r_sent.(i) in
    let cap = Array.length ra in
    let h = handlers.(i) in
    let min_rtt = float_of_int t.min_rtt.(i) in
    while !len > 0 && ra.(!head) <= now do
      let p = !head in
      head := wrap (p + 1) cap;
      decr len;
      t.r_head.(i) <- !head;
      t.r_len.(i) <- !len;
      t.inflight.(i) <- Int.max 0 (t.inflight.(i) - 1);
      if rk.(p) = ev_ack then begin
        let delivered = t.delivered.(i) + 1 in
        t.delivered.(i) <- delivered;
        let rtt = now - rm.(p) in
        (* Running queueing-delay sum in ack order: dividing by the
           delivered count equals a left fold over the per-ACK samples
           divided by their count, bitwise. *)
        t.qdelay_sum_ms.(i) <-
          t.qdelay_sum_ms.(i) +. Float.max 0. (float_of_int rtt -. min_rtt);
        h.Env.on_ack { Env.now_ms = now; seq = rs.(p); rtt_ms = rtt; delivered }
      end
      else h.Env.on_loss ~now_ms:now
    done
  end

(* Fills the window in one step: the first [buffer - q_len] of the
   [window - inflight] new packets join the queue and the rest overflow
   it (droptail), as a per-packet send loop would, since no packet
   leaves the queue while the sender fills. The sender learns of each
   overflow drop one minRTT later, approximating dup-ACK detection. *)
let sender_fill t i ~now =
  let window = Int.max 1 (int_of_float (Float.floor t.cwnd.(i))) in
  let inflight = t.inflight.(i) in
  if inflight < window then begin
    let count = window - inflight in
    let seq0 = t.next_seq.(i) in
    t.next_seq.(i) <- seq0 + count;
    t.sent.(i) <- t.sent.(i) + count;
    t.inflight.(i) <- window;
    let cap = t.buffer.(i) and qlen = t.q_len.(i) in
    let queued = Int.min count (cap - qlen) in
    if queued > 0 then begin
      let qs = t.q_seq.(i) and qm = t.q_sent.(i) in
      let p = ref (wrap (t.q_head.(i) + qlen) cap) in
      for seq = seq0 to seq0 + queued - 1 do
        qs.(!p) <- seq;
        qm.(!p) <- now;
        p := wrap (!p + 1) cap
      done;
      t.q_len.(i) <- qlen + queued
    end;
    let overflow = count - queued in
    if overflow > 0 then begin
      t.dropped.(i) <- t.dropped.(i) + overflow;
      schedule_losses t i ~arrival:(now + t.min_rtt.(i)) ~count:overflow
    end
  end

(* [tab.(k)] is this millisecond's delivery opportunities; the table and
   index are passed rather than the float, which would be boxed. *)
let drain_bottleneck t i ~now ~tab ~k =
  let ppms = tab.(k) in
  t.capacity_pkts.(i) <- t.capacity_pkts.(i) +. ppms;
  t.credit.(i) <- t.credit.(i) +. ppms;
  let opportunities = int_of_float (Float.floor t.credit.(i)) in
  t.credit.(i) <- t.credit.(i) -. float_of_int opportunities;
  let used = Int.min opportunities t.q_len.(i) in
  if used > 0 then begin
    ret_reserve t i used;
    let qs = t.q_seq.(i) and qm = t.q_sent.(i) and qcap = t.buffer.(i) in
    let ra = t.r_arrival.(i) and rk = t.r_kind.(i) in
    let rs = t.r_seq.(i) and rm = t.r_sent.(i) in
    let cap = Array.length ra and head = t.r_head.(i) in
    let len = ref t.r_len.(i) and last = ref t.last_scheduled.(i) in
    let due = now + t.min_rtt.(i) in
    let random_loss = t.random_loss.(i) and jitter_ms = t.jitter.(i) in
    let reorder_prob = t.reorder_prob.(i) and reorder_ms = t.reorder_ms.(i) in
    let rng = t.rng.(i) in
    let qhead = ref t.q_head.(i) and lost = ref 0 in
    for _ = 1 to used do
      let p = !qhead in
      qhead := wrap (p + 1) qcap;
      if random_loss > 0. && Prng.float rng 1. < random_loss then begin
        incr lost;
        last :=
          ret_schedule ra rk rs rm ~cap ~head ~len:!len ~last:!last due
            ev_loss 0 0
      end
      else begin
        let jitter =
          if jitter_ms = 0 then 0 else Prng.int rng (jitter_ms + 1)
        in
        (* Gated draws, jitter then reordering: a flow without an
           impairment consumes no PRNG draws for it. *)
        let reorder =
          if reorder_prob > 0. && Prng.float rng 1. < reorder_prob then
            reorder_ms
          else 0
        in
        last :=
          ret_schedule ra rk rs rm ~cap ~head ~len:!len ~last:!last
            (due + jitter + reorder) ev_ack qs.(p) qm.(p)
      end;
      incr len
    done;
    t.q_head.(i) <- !qhead;
    t.q_len.(i) <- t.q_len.(i) - used;
    t.dropped.(i) <- t.dropped.(i) + !lost;
    t.r_len.(i) <- !len;
    t.last_scheduled.(i) <- !last
  end

let tick_flow t handlers i ~now ~tab ~k =
  process_return_path t handlers i ~now;
  (* Fill before draining (Mahimahi semantics): an uncongested path then
     yields RTT = minRTT exactly. *)
  sender_fill t i ~now;
  drain_bottleneck t i ~now ~tab ~k

(* ------------------------------------------------------------------ *)
(* Fleet driver *)

(* Below this much flow·ms work, chunk setup costs more than it saves. *)
let par_threshold = 16_384

(* Chunk choice is a pure function of the workload shape — never of
   scheduling — and the per-flow stepping itself is flow-local, so any
   chunking (including none) produces identical bits. *)
let plan_chunk ~n ~ms =
  if Pool.in_task () then None
  else if Pool.domains (Pool.default ()) < 2 then None
  else if n * ms < par_threshold then None
  else Some (max 1 (8_192 / max 1 ms))

let run ?after_tick t handlers ~ms =
  if Array.length handlers <> t.n then
    invalid_arg "Fleet.run: one handlers record per flow";
  if ms < 0 then invalid_arg "Fleet.run: ms";
  if ms > 0 then begin
    let now0 = t.now_ms in
    (* Shared read-only packets-per-ms table, one row per trace family:
       row f, entry k is the family's delivery opportunities in
       millisecond [now0 + 1 + k]. *)
    let ppms_tab =
      Array.init (Array.length t.fam_trace) (fun f ->
          let tr = t.fam_trace.(f) and mtu = t.fam_mtu.(f) in
          Array.init ms (fun k ->
              Trace.packets_per_ms ~mtu_bytes:mtu tr (now0 + 1 + k)))
    in
    let step_range ~lo ~hi =
      for i = lo to hi - 1 do
        let tab = ppms_tab.(t.family.(i)) in
        for k = 0 to ms - 1 do
          tick_flow t handlers i ~now:(now0 + k + 1) ~tab ~k;
          match after_tick with Some f -> f i | None -> ()
        done
      done
    in
    (match plan_chunk ~n:t.n ~ms with
    | Some chunk -> Pool.parallel_for_chunks ~chunk t.n step_range
    | None -> step_range ~lo:0 ~hi:t.n);
    t.now_ms <- now0 + ms
  end

(* ------------------------------------------------------------------ *)
(* Per-flow metrics *)

let utilization t ~flow =
  if t.capacity_pkts.(flow) <= 0. then 0.
  else Float.min 1. (float_of_int t.delivered.(flow) /. t.capacity_pkts.(flow))

let loss_rate t ~flow =
  if t.sent.(flow) = 0 then 0.
  else float_of_int t.dropped.(flow) /. float_of_int t.sent.(flow)

let avg_qdelay_ms t ~flow =
  if t.delivered.(flow) = 0 then 0.
  else t.qdelay_sum_ms.(flow) /. float_of_int t.delivered.(flow)

let throughput_mbps t ~flow =
  if t.now_ms = 0 then 0.
  else
    float_of_int t.delivered.(flow)
    *. float_of_int t.cfgs.(flow).Env.mtu_bytes
    *. 8. /. 1e6
    /. (float_of_int t.now_ms /. 1000.)
