//! `gate-small`: the serve-small schedule and config over loopback TCP.
//!
//! Each pass spawns a `GateServer` on an ephemeral port (its own thread)
//! and streams the schedule through one paced `ServeClient` connection with
//! a window of submits in flight, then asks for `Drain` and `Report`. The
//! wire report must be byte-identical to the same schedule run in process.
//!
//! Host time here is CPU time, not wall time. The client and the gateway
//! thread spend much of a pass waiting on each other, and how long a
//! sleeping thread takes to wake is a property of the machine, not of the
//! program: on a 2-vCPU virtual machine, the wall time of the same pass
//! switched between two levels about 1.7x apart for minutes at a time.
//! So a pass's host seconds are the process's CPU seconds (both threads),
//! and a submit's host time is the gateway's own work on it while it works
//! through a backlog, from the ack stamps (see [`op_samples_s`]).
//!
//! The run is pinned to one CPU before the gateway starts (see `main`), so
//! the client, the gateway and the calibration loops share one vCPU, and
//! each pass is scaled by the mean of [`CAL_LOOPS`] calibration loops on
//! either side of it.

use crate::host::{self, host_figures, Host, HostPass, PassTail};
use crate::serve::{self, Kind};
use crate::trace::Spans;
use crate::{probes, Ctx, Outcome};
use fft_gate::{Frame, GateConfig, GateServer, Mode, ServeClient};
use fft_math::stats::percentile;
use fft_serve::SubmitTemplate;
use std::io::{Error, ErrorKind};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn gate_config() -> GateConfig {
    GateConfig {
        serve: Kind::Small.config(),
        ..GateConfig::default()
    }
}

/// A running gateway and one connection to it.
struct Wire {
    client: ServeClient,
    server: JoinHandle<()>,
}

/// Spawn + connect + `Hello`: the workload's set-up.
fn connect(first_s: Option<f64>) -> std::io::Result<Wire> {
    let (addr, server) = GateServer::spawn("127.0.0.1:0", gate_config())?;
    let mut client = ServeClient::connect(&addr.to_string(), "perfbench", Mode::Paced, first_s)?;
    client.set_timeout(Some(Duration::from_secs(60)))?;
    Ok(Wire { client, server })
}

impl Wire {
    /// Shuts the gateway down and waits for its thread.
    fn close(mut self) -> std::io::Result<()> {
        self.client.shutdown()?;
        drop(self.client);
        self.server
            .join()
            .map_err(|_| Error::other("the gateway thread panicked"))
    }
}

/// One timed cold set-up (spawn, connect, handshake), torn down after.
pub fn setup_probe() -> f64 {
    let t = Instant::now();
    let wire = connect(Some(0.0)).expect("loopback gateway comes up");
    let s = t.elapsed().as_secs_f64();
    wire.close().expect("loopback gateway shuts down");
    s
}

/// The Submit frames of the schedule, as one paced connection sends them.
fn frames(sched: &[(f64, SubmitTemplate)]) -> Vec<Frame> {
    sched
        .iter()
        .enumerate()
        .map(|(i, (at_s, tpl))| {
            let SubmitTemplate::Single(spec) = tpl else {
                unreachable!("serve-small draws no pipelines")
            };
            Frame::Submit {
                seq: i as u64,
                at_s: Some(*at_s),
                next_s: sched.get(i + 1).map(|e| e.0),
                trace: Some(i as u64),
                spec: *spec,
            }
        })
        .collect()
}

/// Calibration loops timed before and after each pass.
const CAL_LOOPS: usize = 9;

/// The gateway's wall stamps of one acked submit, seconds since it started.
#[derive(Clone, Copy)]
struct Stamps {
    /// Frame decoded and held by the paced bridge.
    recv_s: f64,
    /// Released from the bridge and submitted into the service.
    enq_s: f64,
}

/// The gateway's own seconds per submit, one sample per submit that it
/// took up straight after the one before.
///
/// The gateway decodes every frame a read brings (stamping `recv_s`), then
/// releases them all from the paced bridge and submits each in turn,
/// queueing its ack (stamping `enq_s` after the submit). When submit `i`
/// was decoded before submit `i - 1` entered the service, both went
/// through the same read and release, back to back: `recv_s` advanced by
/// submit `i`'s decode and hold, and `enq_s` by the previous ack and
/// submit `i`'s service call. The sum of the two steps is the gateway's
/// work on submit `i` alone, with warm caches and no wait for the socket,
/// another submit or a sleeping thread. Unacked submits (refusals) are
/// `None` and give no sample.
fn op_samples_s(stamps: &[Option<Stamps>]) -> Vec<f64> {
    stamps
        .windows(2)
        .filter_map(|w| match (w[0], w[1]) {
            (Some(a), Some(b)) if b.recv_s < a.enq_s => {
                Some((b.recv_s - a.recv_s) + (b.enq_s - a.enq_s))
            }
            _ => None,
        })
        .collect()
}

/// What one pass over the wire produced.
struct WirePass {
    report: String,
    metrics: String,
    /// First send through the received report, ns.
    host_ns: u64,
    /// Send → ack per submit, ns.
    ack_ns: Vec<f64>,
    /// The gateway's seconds per submit, from [`op_samples_s`].
    op_s: Vec<f64>,
    /// CPU seconds of the process (client and gateway) over the pass.
    cpu_s: f64,
    /// [`host::CAL_REF_S`] over the mean calibration loop around the pass.
    scale: f64,
    rejected: u64,
    hold_s: f64,
}

/// Streams `frames` through a fresh gateway, at most a window in flight.
/// With `spans`, each submit is one `gate.op` span from its send to its
/// ack, holding the `gate.send` and `gate.recv` calls it took.
fn wire_pass(
    frames: &[Frame],
    first_s: f64,
    mut spans: Option<&mut Spans>,
) -> std::io::Result<WirePass> {
    let Wire { mut client, server } = connect(Some(first_s))?;
    let window = client.info().window.max(1) as usize;
    let mut sent = vec![(0u64, 0u64); frames.len()];
    let mut ack_ns = vec![0f64; frames.len()];
    let mut stamps = vec![None; frames.len()];
    let cpu0 = host::process_cpu_s();
    let (mut rejected, mut hold_s) = (0u64, 0.0f64);
    let clock = Instant::now();
    let now = |spans: &Option<&mut Spans>| match spans {
        Some(s) => s.now_ns(),
        None => clock.elapsed().as_nanos() as u64,
    };
    let start = now(&spans);
    let (mut next, mut inflight) = (0usize, 0usize);
    while next < frames.len() || inflight > 0 {
        if next < frames.len() && inflight < window {
            let t = now(&spans);
            client.send(&frames[next])?;
            sent[next] = (t, now(&spans));
            next += 1;
            inflight += 1;
            continue;
        }
        let recv_start = now(&spans);
        let (seq, recv_s, ack_s) = match client.recv()? {
            Frame::SubmitAck {
                seq,
                recv_s,
                enq_s,
                ack_s,
                ..
            } => {
                stamps[seq as usize] = Some(Stamps { recv_s, enq_s });
                (seq, recv_s, ack_s)
            }
            Frame::Error { seq: Some(seq), .. } => {
                rejected += 1;
                (seq, 0.0, 0.0)
            }
            other => {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("unexpected frame while streaming: {other:?}"),
                ))
            }
        };
        let i = seq as usize;
        let t = now(&spans);
        let (send_start, send_end) = sent[i];
        ack_ns[i] = (t - send_start) as f64;
        hold_s += ack_s - recv_s;
        if let Some(s) = spans.as_mut() {
            let op = s.closed(None, "gate.op", seq, send_start, t);
            s.closed(Some(op), "gate.send", seq, send_start, send_end);
            s.closed(Some(op), "gate.recv", seq, recv_start, t);
        }
        inflight -= 1;
    }
    let d = spans.as_mut().map(|s| s.begin("gate.drain", u64::MAX));
    client.drain()?;
    if let (Some(s), Some(id)) = (spans.as_mut(), d) {
        s.end(id);
    }
    let r = spans.as_mut().map(|s| s.begin("gate.report", u64::MAX));
    let report = client.report()?;
    if let (Some(s), Some(id)) = (spans.as_mut(), r) {
        s.end(id);
    }
    let host_ns = now(&spans) - start;
    let cpu_s = host::process_cpu_s() - cpu0;
    let metrics = client.metrics()?;
    Wire { client, server }.close()?;
    Ok(WirePass {
        report,
        metrics,
        host_ns,
        ack_ns,
        op_s: op_samples_s(&stamps),
        cpu_s,
        scale: 1.0,
        rejected,
        hold_s,
    })
}

/// Passes over the wire until `seconds` have passed (at least `min`);
/// pass `i` streams block `i % blocks`, whose report must equal the
/// in-process one byte for byte.
fn wire_passes(
    blocks: &[(Vec<Frame>, f64, String)],
    seconds: f64,
    min: usize,
    mut spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> Vec<WirePass> {
    let start = Instant::now();
    let mut done = Vec::new();
    while done.len() < min || start.elapsed().as_secs_f64() < seconds {
        let b = done.len() % blocks.len();
        let (frames, first_s, local) = &blocks[b];
        let before_s = host::calibration_s(CAL_LOOPS);
        match wire_pass(frames, *first_s, spans.as_deref_mut()) {
            Ok(mut p) => {
                let after_s = host::calibration_s(CAL_LOOPS);
                p.scale = host::CAL_REF_S / ((before_s + after_s) / 2.0);
                if p.report != *local {
                    out.problem(format!(
                        "gate-small: the wire report of block {b} differs from the in-process run"
                    ));
                }
                done.push(p);
            }
            Err(e) => {
                out.problem(format!("wire pass failed: {e}"));
                break;
            }
        }
    }
    done
}

/// Host figures over passes, on CPU time: each pass's CPU seconds, and the
/// gateway's own time per submit. The first pass's p99 is about twice the
/// rest, so the passes' p99s are combined by their median.
fn host(ps: &[WirePass]) -> Host {
    let passes: Vec<HostPass> = ps
        .iter()
        .map(|p| HostPass {
            ops: p.ack_ns.len(),
            host_s: p.cpu_s,
            op_ms: p.op_s.iter().map(|s| s * 1e3).collect(),
            scale: p.scale,
        })
        .collect();
    host_figures(&passes, PassTail::Median)
}

/// A `gate_*` counter from the wire `Metrics` document.
fn counter(metrics: &str, name: &str) -> f64 {
    fft_gate::json::parse(metrics)
        .ok()
        .and_then(|doc| doc.get("counters")?.get(name)?.as_u64())
        .map_or(0.0, |v| v as f64)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let kind = Kind::Small;
    out.note(format!(
        "gate-small: the serve-small schedule ({} block(s) of {} requests at {} req/s modelled) \
         over loopback TCP; 1 paced connection with a window of {} submits; 2 threads \
         (client, gateway)",
        kind.blocks(),
        kind.requests(),
        kind.rate_rps(),
        GateConfig::default().window
    ));
    let scheds: Vec<_> = (0..kind.blocks())
        .map(|b| kind.schedule(ctx.seed, b, kind.rate_rps()))
        .collect();

    // The in-process run of the same schedule: the reports to match, the
    // outputs to check and the modelled metrics.
    let mut locals = Vec::with_capacity(scheds.len());
    let (mut failed, mut max_err) = (0, 0.0);
    for (b, sched) in scheds.iter().enumerate() {
        let (p, svc) = serve::pass(kind, b, sched, None, false);
        if b == 0 {
            (failed, max_err) = serve::check_outputs(&svc, sched, &p.tickets, ctx.seed, &mut out);
        }
        locals.push(p);
    }
    let blocks: Vec<(Vec<Frame>, f64, String)> = scheds
        .iter()
        .zip(&locals)
        .map(|(s, p)| (frames(s), s[0].0, p.report_json.clone()))
        .collect();

    let untraced_s = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let base = wire_passes(&blocks, untraced_s, blocks.len(), None, &mut out);
    out.attempted = base.iter().map(|p| p.ack_ns.len() as u64).sum();
    out.failed = failed + base.iter().map(|p| p.rejected).sum::<u64>();
    let h = host(&base);
    let wall_rates: Vec<f64> = base
        .iter()
        .map(|p| p.ack_ns.len() as f64 / (p.host_ns as f64 / 1e9))
        .collect();
    let acks_wall: Vec<f64> = base.iter().flat_map(|p| p.ack_ns.clone()).collect();
    out.note(format!(
        "gate-small: host_ops_per_s is the median over {} passes of ops per CPU second \
         ({:.1} unscaled; {:.1} ops per wall second); per-op percentiles from the gateway's \
         own time on {} of {} submits, taken up back to back (client send -> ack p50 {:.3} ms \
         wall, window included)",
        base.len(),
        h.raw_ops_per_s,
        percentile(&wall_rates, 0.5),
        h.samples,
        acks_wall.len(),
        percentile(&acks_wall, 0.5) / 1e6
    ));
    let base_ops = h.ops_per_s;
    out.set("host_ops_per_s", base_ops);
    out.set("host_op_p50_ms", h.p50_ms);
    out.set("host_op_p99_ms", h.p99_ms);
    out.set("max_rel_err", max_err);
    out.set("host_peak_rss_mb", crate::peak_rss_mb());
    serve::model_metrics(kind, &scheds, &locals, &mut out);
    if !ctx.traced {
        // The same schedule and config as serve-small, so the same figure.
        let fixed = serve::probe_of(kind.rate_rps(), &locals);
        out.set("model_max_rps", serve::max_rps(ctx.seed, fixed));
        return out;
    }

    let mut spans = Spans::new(Instant::now());
    let traced = wire_passes(&blocks, ctx.seconds / 2.0, 1, Some(&mut spans), &mut out);
    out.attempted += traced.iter().map(|p| p.ack_ns.len() as u64).sum::<u64>();
    out.failed += traced.iter().map(|p| p.rejected).sum::<u64>();
    let traced_ops = host(&traced).ops_per_s;
    out.set("trace.host_ops_per_s", traced_ops);
    out.set("trace.untraced_host_ops_per_s", base_ops);
    out.set("trace.overhead_ratio", base_ops / traced_ops);
    let acks: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.ack_ns.iter().copied())
        .collect();
    out.set("gate.client.ack_us.p50", percentile(&acks, 0.50) / 1e3);
    out.set("gate.client.ack_us.p99", percentile(&acks, 0.99) / 1e3);
    let hold: f64 = traced.iter().map(|p| p.hold_s).sum();
    out.set("gate.bridge_hold_us", hold / acks.len().max(1) as f64 * 1e6);
    if let Some(first) = traced.first() {
        out.set(
            "gate.backpressure_stalls",
            counter(&first.metrics, "gate_backpressure_stalls_total"),
        );
        out.set(
            "gate.frames_in",
            counter(&first.metrics, "gate_frames_in_total"),
        );
    }
    let (enc, dec, bytes) = probes::proto(&blocks[0].0);
    out.set("gate.proto.encode_us", enc);
    out.set("gate.proto.decode_us", dec);
    out.set("gate.proto.bytes_per_submit", bytes);
    out.set("gpu_sim.launch_fixed_us", probes::launch_fixed_us());
    serve::report_layers(&locals[0].report, &mut out);
    if let Err(e) = spans.check_balance() {
        out.problem(e);
    }
    out.spans = Some(spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(recv_s: f64, enq_s: f64) -> Option<Stamps> {
        Some(Stamps { recv_s, enq_s })
    }

    #[test]
    fn op_samples_take_back_to_back_submits_only() {
        let stamps = [
            // One read of three frames, then their release in turn.
            st(1.0, 10.0),
            st(2.0, 13.0),
            st(4.0, 17.0),
            // The next read came after the previous release: no sample.
            st(20.0, 21.0),
            // A refusal breaks the chain on both sides.
            None,
            st(30.0, 40.0),
            st(31.0, 42.0),
        ];
        assert_eq!(op_samples_s(&stamps), vec![1.0 + 3.0, 2.0 + 4.0, 1.0 + 2.0]);
    }
}
