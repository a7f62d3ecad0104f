module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet
module Stats = Canopy_util.Stats

type metrics = {
  scheme : string;
  trace : string;
  utilization : float;
  avg_throughput_mbps : float;
  avg_qdelay_ms : float;
  p95_qdelay_ms : float;
  avg_rtt_ms : float;
  loss_rate : float;
  delivered_pkts : int;
  dropped_pkts : int;
}

let pp_metrics ppf m =
  Format.fprintf ppf
    "%-10s %-22s util=%5.1f%% thr=%6.2fMbps qdelay(avg/p95)=%6.1f/%6.1fms \
     loss=%5.2f%%"
    m.scheme m.trace (100. *. m.utilization) m.avg_throughput_mbps
    m.avg_qdelay_ms m.p95_qdelay_ms (100. *. m.loss_rate)

type series = {
  bin_ms : int;
  throughput_mbps : float array;
  capacity_mbps : float array;
  cwnd : float array;
  avg_qdelay_ms_bins : float array;
}

let buffer_of_bdp ~bdp_multiplier ~trace ~min_rtt_ms =
  let bdp =
    Env.bdp_pkts
      ~mbps:(Canopy_trace.Trace.avg_mbps trace)
      ~min_rtt_ms ~mtu_bytes:Env.default_mtu
  in
  max 1 (int_of_float (Float.round (bdp_multiplier *. float_of_int bdp)))

let run ?series_bin_ms ?(impairments = Env.no_impairments) ~trace ~min_rtt_ms
    ~buffer_pkts ~duration_ms make_controller =
  if duration_ms <= 0 then invalid_arg "Runner.run: duration";
  let controller = make_controller () in
  let cfg =
    {
      Env.trace;
      min_rtt_ms;
      buffer_pkts;
      mtu_bytes = Env.default_mtu;
      initial_cwnd = controller.Controller.cwnd ();
      impairments;
    }
  in
  let fleet = Fleet.create [| cfg |] in
  (* Per-bin series accumulators. *)
  let bin_ms = Option.value ~default:0 series_bin_ms in
  let nbins = if bin_ms > 0 then (duration_ms + bin_ms - 1) / bin_ms else 0 in
  let thr_bins = Array.make (max 1 nbins) 0. in
  let cap_bins = Array.make (max 1 nbins) 0. in
  let cwnd_bins = Array.make (max 1 nbins) 0. in
  let qd_sum = Array.make (max 1 nbins) 0. in
  let qd_cnt = Array.make (max 1 nbins) 0 in
  let bin_of ms = min (max 0 ((ms - 1) / bin_ms)) (nbins - 1) in
  (* Every ACK's RTT, for the p95 queueing delay and the mean RTT, and
     its bin when a series is collected. *)
  let rtt_samples = Canopy_util.Fbuf.create () in
  let recorder =
    {
      Env.null_handlers with
      on_ack =
        (fun ack ->
          Canopy_util.Fbuf.push rtt_samples (float_of_int ack.rtt_ms);
          if bin_ms > 0 then begin
            let b = bin_of ack.now_ms in
            thr_bins.(b) <- thr_bins.(b) +. 1.;
            qd_sum.(b) <-
              qd_sum.(b) +. float_of_int (max 0 (ack.rtt_ms - min_rtt_ms));
            qd_cnt.(b) <- qd_cnt.(b) + 1
          end);
    }
  in
  let handlers = Env.chain (Controller.handlers controller) recorder in
  (* After each millisecond the controller's window becomes the link's. *)
  let ms = ref 0 in
  let after_tick _ =
    incr ms;
    Fleet.set_cwnd fleet ~flow:0 (controller.Controller.cwnd ());
    if bin_ms > 0 then begin
      let b = bin_of !ms in
      cwnd_bins.(b) <- Fleet.cwnd fleet ~flow:0;
      cap_bins.(b) <-
        cap_bins.(b) +. Canopy_trace.Trace.mbps_at trace (!ms - 1)
    end
  in
  Fleet.run ~after_tick fleet [| handlers |] ~ms:duration_ms;
  let rtts = Canopy_util.Fbuf.to_array rtt_samples in
  let qdelays =
    let min_rtt = float_of_int min_rtt_ms in
    Array.map (fun rtt -> Float.max 0. (rtt -. min_rtt)) rtts
  in
  let metrics =
    {
      scheme = controller.Controller.name;
      trace = Canopy_trace.Trace.name trace;
      utilization = Fleet.utilization fleet ~flow:0;
      avg_throughput_mbps = Fleet.throughput_mbps fleet ~flow:0;
      avg_qdelay_ms = Stats.mean qdelays;
      p95_qdelay_ms =
        (if Array.length qdelays = 0 then 0. else Stats.percentile qdelays 95.);
      avg_rtt_ms = Stats.mean rtts;
      loss_rate = Fleet.loss_rate fleet ~flow:0;
      delivered_pkts = Fleet.delivered fleet ~flow:0;
      dropped_pkts = Fleet.dropped fleet ~flow:0;
    }
  in
  let series =
    if bin_ms = 0 then None
    else begin
      let pkts_to_mbps pkts =
        pkts *. float_of_int Env.default_mtu *. 8. /. 1e6
        /. (float_of_int bin_ms /. 1000.)
      in
      Some
        {
          bin_ms;
          throughput_mbps = Array.map pkts_to_mbps thr_bins;
          capacity_mbps =
            Array.map (fun sum -> sum /. float_of_int bin_ms) cap_bins;
          cwnd = cwnd_bins;
          avg_qdelay_ms_bins =
            Array.init nbins (fun b ->
                if qd_cnt.(b) = 0 then 0.
                else qd_sum.(b) /. float_of_int qd_cnt.(b));
        }
    end
  in
  (metrics, series)
