(* Constants follow RFC 8312: C = 0.4, beta_cubic = 0.7. Time is in
   seconds inside the cubic polynomial. *)
let c_cubic = 0.4
let beta_cubic = 0.7
let max_cwnd = 100_000.

(* The mutable floats live in an all-float record, stored flat, so the
   per-ACK updates write them in place; in a record that also holds ints
   each float write would allocate a fresh box. *)
type floats = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable w_max : float;
  mutable k : float; (* time (s) for the cubic to return to w_max *)
  mutable srtt_ms : float;
}

type t = {
  f : floats;
  mutable epoch_start_ms : int; (* -1 = not started *)
  mutable last_loss_ms : int;
}

let create ?(initial_cwnd = 10.) () =
  {
    f =
      {
        cwnd = initial_cwnd;
        ssthresh = Float.infinity;
        w_max = initial_cwnd;
        k = 0.;
        srtt_ms = 0.;
      };
    epoch_start_ms = -1;
    last_loss_ms = -1_000_000;
  }

let cwnd t = t.f.cwnd
let in_slow_start t = t.f.cwnd < t.f.ssthresh
let w_max t = t.f.w_max

let cube_root x = Float.pow x (1. /. 3.)

let on_ack t (ack : Canopy_netsim.Env.ack) =
  let f = t.f in
  let rtt = float_of_int ack.rtt_ms in
  f.srtt_ms <-
    (if f.srtt_ms = 0. then rtt else (0.875 *. f.srtt_ms) +. (0.125 *. rtt));
  if in_slow_start t then f.cwnd <- Float.min max_cwnd (f.cwnd +. 1.)
  else begin
    if t.epoch_start_ms < 0 then begin
      t.epoch_start_ms <- ack.now_ms;
      f.k <- cube_root (f.w_max *. (1. -. beta_cubic) /. c_cubic)
    end;
    (* Target the cubic curve one RTT ahead, per the RFC. *)
    let elapsed_s =
      float_of_int (ack.now_ms - t.epoch_start_ms + ack.rtt_ms) /. 1000.
    in
    let w_cubic =
      (c_cubic *. ((elapsed_s -. f.k) ** 3.)) +. f.w_max
    in
    if w_cubic > f.cwnd then
      f.cwnd <- Float.min max_cwnd (f.cwnd +. ((w_cubic -. f.cwnd) /. f.cwnd))
    else
      (* In the TCP-friendly / plateau region grow at least like Reno. *)
      f.cwnd <- Float.min max_cwnd (f.cwnd +. (0.3 /. f.cwnd))
  end

let on_loss t ~now_ms =
  (* React at most once per (smoothed) RTT so a burst of drops from one
     overflow counts as a single congestion event. *)
  let f = t.f in
  let guard_ms = int_of_float (Float.max 5. f.srtt_ms) in
  if now_ms - t.last_loss_ms >= guard_ms then begin
    t.last_loss_ms <- now_ms;
    f.w_max <- f.cwnd;
    f.cwnd <- Float.max 2. (f.cwnd *. beta_cubic);
    f.ssthresh <- f.cwnd;
    t.epoch_start_ms <- -1
  end

let force_cwnd t w =
  t.f.cwnd <- Canopy_util.Mathx.clamp ~lo:2. ~hi:max_cwnd w

let to_controller t =
  {
    Controller.name = "cubic";
    on_ack = on_ack t;
    on_loss = (fun ~now_ms -> on_loss t ~now_ms);
    cwnd = (fun () -> cwnd t);
  }
