//! `serve-small` and `serve-pipeline`: an in-process `FftService` fed a
//! seeded schedule.
//!
//! Modelled clock: requests arrive as a Poisson open loop at a fixed rate.
//! Host clock: one caller submits a whole schedule back to back (a closed
//! loop), then drains and renders the report — one *pass*, on a fresh
//! service. A workload's schedule is split into a fixed number of blocks,
//! each drawn from its own seed; pass `i` replays block `i % blocks`, so
//! the run revisits block 0 and its report must come out the same.

use crate::host::{self, host_figures, Host, HostPass, PassTail};
use crate::trace::Spans;
use crate::{alloc, paper, Ctx, Outcome};
use cpu_fft::CpuFft3d;
use fft_math::dft::dft_oracle;
use fft_math::error::{rel_l2_error, rel_l2_error_f32};
use fft_math::rng::SplitMix64;
use fft_math::stats::percentile;
use fft_serve::pipeline::{convolution_stages, docking_stages};
use fft_serve::{
    open_loop_templates, FftService, PollStatus, QosConfig, ServeConfig, ServeReport, Shape,
    StageKind, SubmitTemplate, TenantId, TenantPolicy, Ticket, Workload,
};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    Small,
    Pipeline,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Small => "serve-small",
            Kind::Pipeline => "serve-pipeline",
        }
    }

    pub fn workload(self) -> Workload {
        let small = Workload {
            shapes: [16, 64, 256]
                .iter()
                .flat_map(|&n| [1, 2].map(|rows| (Shape::Rows1d { n, rows }, 1)))
                .collect(),
            inverse_pct: 25,
            high_pct: 10,
            deadline_s: None,
            tenants: 3,
            pipeline_pct: 0,
        };
        match self {
            Kind::Small => small,
            // serve-small's rows with one draw in ten a convolution or
            // docking DAG; [`Kind::schedule`] keeps every DAG at 16³.
            Kind::Pipeline => Workload {
                pipeline_pct: 10,
                ..small
            },
        }
    }

    /// Fixed offered rate of the modelled open loop, requests per second.
    pub fn rate_rps(self) -> f64 {
        match self {
            Kind::Small => 200_000.0,
            Kind::Pipeline => 25_000.0,
        }
    }

    /// Independently seeded blocks the schedule is split into.
    pub fn blocks(self) -> usize {
        match self {
            Kind::Small => 4,
            Kind::Pipeline => 8,
        }
    }

    /// Requests per block.
    pub fn requests(self) -> u64 {
        match self {
            Kind::Small => 2_000,
            Kind::Pipeline => 2_000,
        }
    }

    /// Block `b`'s schedule at `rate`. Block 0 is drawn from the run's seed.
    /// The loadgen draws DAGs over 16³ or 32³ volumes; 32³ ones are redrawn
    /// at 16³ (same stages and seeds). That keeps serve-pipeline's host cost
    /// per request low enough for one run to hold enough requests to settle
    /// its modelled percentiles.
    pub fn schedule(self, seed: u64, b: usize, rate: f64) -> Vec<(f64, SubmitTemplate)> {
        let block_seed = seed ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut sched = open_loop_templates(&self.workload(), self.requests(), rate, block_seed);
        for (_, t) in &mut sched {
            if let SubmitTemplate::Pipeline(p) = t {
                if p.dims != (16, 16, 16) {
                    let docking = p.stages.len() == docking_stages(1).len();
                    p.dims = (16, 16, 16);
                    p.stages = if docking {
                        docking_stages(16 * 16 * 16)
                    } else {
                        convolution_stages(16 * 16 * 16)
                    };
                }
            }
        }
        sched
    }
}

impl Kind {
    /// The default service plus kept outputs and three weighted tenants,
    /// with lane preemption on serve-small. serve-pipeline leaves it off:
    /// each preemption page-faults a fresh 16 MiB staging pair, and there
    /// about 1% of submits preempt, which put the host p99 on the edge
    /// between those and the DAG submits, so it jumped from seed to seed.
    pub fn config(self) -> ServeConfig {
        config(self == Kind::Small)
    }

    /// `FftService::new` — the serve workloads' set-up.
    pub fn setup(self) -> FftService {
        FftService::new(self.config()).expect("the fleet comes up")
    }
}

fn config(preemption: bool) -> ServeConfig {
    let mut qos = QosConfig {
        preemption,
        ..QosConfig::default()
    };
    for (t, share) in [(0, 1.0), (1, 2.0), (2, 4.0)] {
        qos.tenants.insert(
            TenantId(t),
            TenantPolicy {
                share,
                ..TenantPolicy::default()
            },
        );
    }
    ServeConfig::builder()
        .keep_outputs(true)
        .qos(qos)
        .build()
        .expect("the benchmark's service config is valid")
}

/// Which entry point an op used.
#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    /// A single submit after which the queue was deeper.
    Queued,
    /// A single submit that dispatched work instead.
    Dispatch,
    Pipeline,
}

/// One pass of a block through a fresh service.
pub struct Pass {
    pub block: usize,
    pub report: ServeReport,
    pub report_json: String,
    pub tickets: Vec<Option<Ticket>>,
    /// Modelled latency of every completion, seconds.
    pub latencies: Vec<f64>,
    /// First submit through the rendered report, ns.
    pub host_ns: u64,
    /// [`host::scale`] measured after the pass (1 when not measured).
    pub scale: f64,
    ops: Vec<(OpKind, u64)>,
    materialize_ns: Vec<u64>,
    drain_ns: u64,
    render_ns: u64,
    submit_allocs: alloc::Allocs,
}

/// Begins a span when tracing.
fn open(spans: &mut Option<&mut Spans>, name: &'static str, op: u64) -> Option<usize> {
    spans.as_mut().map(|s| s.begin(name, op))
}

/// Ends a span opened by [`open`].
fn close(spans: &mut Option<&mut Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans.as_mut(), id) {
        s.end(id);
    }
}

/// Times one submit call, counting its allocations when `count` is set.
fn timed<T>(count: bool, allocs: &mut alloc::Allocs, f: impl FnOnce() -> T) -> (T, u64) {
    alloc::enable(count);
    let a0 = alloc::read();
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as u64;
    *allocs += alloc::read() - a0;
    alloc::enable(false);
    (r, ns)
}

/// Submits `sched` back to back into a fresh service, drains and renders
/// the report. With `spans`, records every public call; with `count`,
/// counts the allocations made inside the submit calls.
pub fn pass(
    kind: Kind,
    block: usize,
    sched: &[(f64, SubmitTemplate)],
    mut spans: Option<&mut Spans>,
    count: bool,
) -> (Pass, FftService) {
    let mut svc = kind.setup();
    let mut tickets = Vec::with_capacity(sched.len());
    let mut ops = Vec::with_capacity(sched.len());
    let mut materialize_ns = Vec::with_capacity(sched.len());
    let mut submit_allocs = alloc::Allocs::default();
    let start = Instant::now();
    for (i, (at_s, tpl)) in sched.iter().enumerate() {
        let op = i as u64;
        let root = open(&mut spans, "serve.op", op);
        let (res, kind, ns) = match tpl {
            SubmitTemplate::Single(seeded) => {
                let t = Instant::now();
                let m = open(&mut spans, "request.materialize", op);
                let spec = seeded.materialize();
                close(&mut spans, m);
                materialize_ns.push(t.elapsed().as_nanos() as u64);
                let depth = svc.queue_depth();
                let s = open(&mut spans, "service.submit", op);
                let (res, ns) = timed(count, &mut submit_allocs, || svc.submit(spec, *at_s));
                close(&mut spans, s);
                let kind = if svc.queue_depth() > depth {
                    OpKind::Queued
                } else {
                    OpKind::Dispatch
                };
                (res, kind, ns)
            }
            SubmitTemplate::Pipeline(pipe) => {
                let pipe = pipe.clone();
                let s = open(&mut spans, "service.submit_pipeline", op);
                let (res, ns) = timed(count, &mut submit_allocs, || {
                    svc.submit_seeded_pipeline(pipe, *at_s)
                });
                close(&mut spans, s);
                (res, OpKind::Pipeline, ns)
            }
        };
        close(&mut spans, root);
        ops.push((kind, ns));
        tickets.push(res.ok());
    }
    let t = Instant::now();
    let d = open(&mut spans, "service.drain", u64::MAX);
    svc.drain();
    close(&mut spans, d);
    let drain_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let r = open(&mut spans, "report.render", u64::MAX);
    let report = svc.report();
    let report_json = report.to_json();
    close(&mut spans, r);
    let render_ns = t.elapsed().as_nanos() as u64;
    let host_ns = start.elapsed().as_nanos() as u64;
    let latencies = svc.completions().iter().map(|c| c.latency_s()).collect();
    let p = Pass {
        block,
        report,
        report_json,
        tickets,
        latencies,
        host_ns,
        scale: 1.0,
        ops,
        materialize_ns,
        drain_ns,
        render_ns,
        submit_allocs,
    };
    (p, svc)
}

/// Requests the report shows as turned away or failed.
pub fn refused(r: &ServeReport) -> u64 {
    r.rejected_queue_full
        + r.rejected_deadline
        + r.rejected_unsupported
        + r.rejected_oversized
        + r.rejected_unallocatable
        + r.rejected_quota
        + r.failed
}

/// Normwise relative error tolerance for served outputs.
const TOLERANCE: f64 = 1e-5;
/// Single-transform completions checked against the oracle per run.
const SAMPLE: usize = 48;

/// Checks that every admitted ticket reached a terminal state and that a
/// seeded sample of single-transform outputs matches the oracle: the O(N²)
/// DFT for rows, single-threaded `cpu-fft` for volumes. Returns the failed
/// ops and the largest error.
pub fn check_outputs(
    svc: &FftService,
    sched: &[(f64, SubmitTemplate)],
    tickets: &[Option<Ticket>],
    seed: u64,
    out: &mut Outcome,
) -> (u64, f64) {
    let mut failed = 0;
    let mut singles = Vec::new();
    for (i, t) in tickets.iter().enumerate() {
        let Some(t) = t else { continue };
        match svc.poll(*t) {
            PollStatus::Done(_) => {
                if matches!(sched[i].1, SubmitTemplate::Single(_)) {
                    singles.push(i);
                }
            }
            PollStatus::Failed(e) => {
                failed += 1;
                out.problem(format!("request {i} failed at dispatch: {e}"));
            }
            _ => {
                failed += 1;
                out.problem(format!("request {i} never reached a terminal state"));
            }
        }
    }
    let mut rng = SplitMix64::new(seed ^ 0xc4ec_0a7f_5a3b_1e00);
    let mut max_err = 0.0f64;
    for _ in 0..SAMPLE.min(singles.len()) {
        let i = singles.swap_remove(rng.below(singles.len()));
        let (SubmitTemplate::Single(seeded), Some(t)) = (&sched[i].1, tickets[i]) else {
            continue;
        };
        let PollStatus::Done(c) = svc.poll(t) else {
            continue;
        };
        let Some(got) = c.output else {
            failed += 1;
            out.problem(format!("request {i} kept no output"));
            continue;
        };
        let spec = seeded.materialize();
        let err = match spec.shape {
            Shape::Rows1d { n, .. } => spec
                .payload
                .chunks(n)
                .zip(got.chunks(n))
                .map(|(x, y)| rel_l2_error(y, &dft_oracle(x, spec.direction)))
                .fold(0.0, f64::max),
            Shape::Volume { nx, ny, nz } => {
                let mut want = spec.payload.clone();
                CpuFft3d::with_threads(nx, ny, nz, 1).execute(&mut want, spec.direction);
                rel_l2_error_f32(&got, &want)
            }
        };
        max_err = max_err.max(err);
        if err.is_nan() || err > TOLERANCE {
            failed += 1;
            out.problem(format!(
                "request {i}: relative error {err:e} over {TOLERANCE:e}"
            ));
        }
    }
    (failed, max_err)
}

/// Nominal FLOPs (5·N·log₂N per transform) of everything in the schedule.
fn nominal_flops(sched: &[(f64, SubmitTemplate)]) -> f64 {
    let fft = |n: usize| 5.0 * n as f64 * (n as f64).log2();
    sched
        .iter()
        .map(|(_, t)| match t {
            SubmitTemplate::Single(s) => match s.shape {
                Shape::Rows1d { n, rows } => rows as f64 * fft(n),
                Shape::Volume { nx, ny, nz } => fft(nx * ny * nz),
            },
            SubmitTemplate::Pipeline(p) => {
                let transforms = p
                    .stages
                    .iter()
                    .filter(|s| matches!(s.kind, StageKind::Forward | StageKind::Inverse))
                    .count();
                transforms as f64 * fft(p.dims.0 * p.dims.1 * p.dims.2)
            }
        })
        .sum()
}

/// The modelled end-to-end metrics over one pass of every block: latency
/// percentiles over all their completions, goodput and GFLOPS over their
/// summed makespans.
pub fn model_metrics(
    kind: Kind,
    scheds: &[Vec<(f64, SubmitTemplate)>],
    blocks: &[Pass],
    out: &mut Outcome,
) {
    let lat: Vec<f64> = blocks
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    let makespan: f64 = blocks.iter().map(|p| p.report.makespan_s).sum();
    let good: f64 = blocks
        .iter()
        .map(|p| p.report.goodput_gbs * p.report.makespan_s)
        .sum();
    let flops: f64 = scheds.iter().map(|s| nominal_flops(s)).sum();
    out.note(format!(
        "{}: modelled percentiles over {} completions",
        kind.name(),
        lat.len()
    ));
    out.set("model_p50_ms", percentile(&lat, 0.50) * 1e3);
    out.set("model_p99_ms", percentile(&lat, 0.99) * 1e3);
    out.set("model_goodput_gbs", good / makespan);
    out.set("model_gflops", flops / makespan / 1e9);
    out.set("model_paper_err_pct", paper::paper_err_pct());
}

/// One probe of the modelled open loop: `Some(p99 seconds)` over every
/// block's completions when no request was refused, else `None`.
pub type Probe = (f64, Option<f64>);

/// The probe a set of passes (one per block, at `rate`) amounts to.
pub fn probe_of(rate: f64, blocks: &[Pass]) -> Probe {
    let refusals: u64 = blocks.iter().map(|p| refused(&p.report)).sum();
    let lat: Vec<f64> = blocks
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    (rate, (refusals == 0).then(|| percentile(&lat, 0.99)))
}

/// serve-small's modelled p99 limit for `model_max_rps`, milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 1.0;
/// Bisection steps `model_max_rps` takes inside its doubling bracket.
const BISECT_STEPS: usize = 6;

/// serve-small's `model_max_rps`: the highest offered rate at which every
/// block completes with no refusals and a modelled p99 within
/// [`LATENCY_LIMIT_MS`]. A bracket by doubling from the fixed rate (whose
/// probe the timed phase already ran), [`BISECT_STEPS`] steps in log
/// space, then linear interpolation of p99 across the final bracket.
pub fn max_rps(seed: u64, at_fixed_rate: Probe) -> f64 {
    let kind = Kind::Small;
    let limit_s = LATENCY_LIMIT_MS / 1e3;
    let probe = |rate: f64| {
        let blocks: Vec<Pass> = (0..kind.blocks())
            .map(|b| pass(kind, b, &kind.schedule(seed, b, rate), None, false).0)
            .collect();
        probe_of(rate, &blocks)
    };
    let ok = |p: Probe| p.1.is_some_and(|p| p <= limit_s);
    let mut lo = at_fixed_rate;
    let mut hi = lo;
    if ok(lo) {
        while ok(hi) {
            lo = hi;
            hi = probe(hi.0 * 2.0);
        }
    } else {
        while !ok(lo) && lo.0 > 1.0 {
            hi = lo;
            lo = probe(lo.0 / 2.0);
        }
    }
    for _ in 0..BISECT_STEPS {
        let mid = probe((lo.0 * hi.0).sqrt());
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    match (lo.1, hi.1) {
        (Some(a), Some(b)) if b > a => lo.0 + (limit_s - a) / (b - a) * (hi.0 - lo.0),
        _ => lo.0,
    }
}

/// serve-pipeline's `model_max_rps`: the saturation rate, completions per
/// modelled second of the fleet's busiest engine. Each block's busy time
/// is its makespan times the larger of the cards' mean compute and mean
/// copy utilisation, so a slower kernel or transfer lowers it.
pub fn saturation_rps(blocks: &[Pass]) -> f64 {
    let (done, busy_s) = blocks.iter().fold((0.0, 0.0), |(n, s), p| {
        let r = &p.report;
        let cards = r.cards.len().max(1) as f64;
        let compute = r.cards.iter().map(|c| c.utilization).sum::<f64>() / cards;
        let copy = r.cards.iter().map(|c| c.copy_utilization).sum::<f64>() / cards;
        (n + r.completed as f64, s + r.makespan_s * compute.max(copy))
    });
    done / busy_s
}

/// Per-layer metrics read from one deterministic report.
pub fn report_layers(r: &ServeReport, out: &mut Outcome) {
    let launches: u64 = r.batch_histogram.values().sum();
    out.set("batcher.batches", launches as f64);
    out.set("batcher.mean_batch", r.mean_batch_size());
    out.set("queue.max_depth", r.queue_max_depth as f64);
    out.set("queue.mean_depth", r.queue_mean_depth);
    let (hits, misses) = r
        .cards
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.plan_hits, m + c.plan_misses));
    out.set(
        "scheduler.plan_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let cards = r.cards.len().max(1) as f64;
    let util: f64 = r.cards.iter().map(|c| c.utilization).sum();
    out.set("scheduler.card_util", util / cards);
    out.set(
        "scheduler.copy_util",
        r.cards.iter().map(|c| c.copy_utilization).sum::<f64>() / cards,
    );
    out.set("qos.preemptions", r.preemptions as f64);
    let busy_s = util * r.makespan_s;
    let preempted = if busy_s > 0.0 {
        r.preempted_s / busy_s
    } else {
        0.0
    };
    out.set("qos.preempted_share", preempted);
    out.set("qos.fairness_index", r.fairness_index);
    let lookups = r.resident_hits + r.resident_misses;
    out.set(
        "pipeline.resident_hit_ratio",
        r.resident_hits as f64 / lookups.max(1) as f64,
    );
    out.set("pipeline.evictions", r.resident_evictions as f64);
    out.set(
        "pcie.bytes_per_op",
        (r.h2d_bytes + r.d2h_bytes) as f64 / r.completed.max(1) as f64,
    );
    for line in &r.budget {
        if crate::metrics::ATTR.contains(&line.category) {
            out.set(format!("attr.{}_share", line.category), line.share);
        }
    }
}

/// Passes until `seconds` have passed and at least `min` ran. Each pass's
/// report must equal `expect[block]`, or that block's first pass.
/// `first` sees block 0's first service before it is dropped — services
/// can hold a lot of host memory, so only one is alive at a time.
#[allow(clippy::too_many_arguments)]
fn passes(
    kind: Kind,
    scheds: &[Vec<(f64, SubmitTemplate)>],
    seconds: f64,
    min: usize,
    mut spans: Option<&mut Spans>,
    expect: &[String],
    first: impl FnOnce(&FftService, &Pass, Option<&mut Spans>),
    out: &mut Outcome,
) -> Vec<Pass> {
    let start = Instant::now();
    let traced = spans.is_some();
    let (mut p0, svc) = pass(kind, 0, &scheds[0], spans.as_deref_mut(), traced);
    p0.scale = host::scale();
    first(&svc, &p0, spans.as_deref_mut());
    drop(svc);
    let mut done = vec![p0];
    while done.len() < min || start.elapsed().as_secs_f64() < seconds {
        let b = done.len() % scheds.len();
        let mut p = pass(kind, b, &scheds[b], spans.as_deref_mut(), false).0;
        p.scale = host::scale();
        done.push(p);
    }
    for p in &done {
        let want = expect.get(p.block).or_else(|| {
            done.iter()
                .find(|q| q.block == p.block)
                .map(|q| &q.report_json)
        });
        if want != Some(&p.report_json) {
            out.problem(format!(
                "a same-seed pass of block {} rendered a different report",
                p.block
            ));
        }
    }
    done
}

/// Times the telemetry documents rendered from a service after its run.
fn telemetry_renders(svc: &FftService, spans: &mut Spans, out: &mut Outcome) {
    let t = Instant::now();
    let id = spans.begin("telemetry.metrics_json", u64::MAX);
    let metrics = svc.metrics_json();
    spans.end(id);
    out.set("telemetry.metrics_json_ms", t.elapsed().as_secs_f64() * 1e3);
    out.set("telemetry.metrics_json_bytes", metrics.len() as f64);
    let t = Instant::now();
    let id = spans.begin("telemetry.attribution_json", u64::MAX);
    std::hint::black_box(svc.attribution_json());
    spans.end(id);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    out.set("telemetry.attribution_json_ms", ms);
}

/// Host figures over passes; every submit is a per-op sample. serve-small's
/// first two passes have a p99 about six times the rest, so its passes'
/// p99s are combined by their median; serve-pipeline's have no such
/// outliers, and their mean spread about half as much as their median over
/// ten seeds.
fn host(kind: Kind, ps: &[Pass]) -> Host {
    let tail = match kind {
        Kind::Small => PassTail::Median,
        Kind::Pipeline => PassTail::Mean,
    };
    let passes: Vec<HostPass> = ps
        .iter()
        .map(|p| HostPass {
            ops: p.ops.len(),
            host_s: p.host_ns as f64 / 1e9,
            op_ms: p.ops.iter().map(|&(_, ns)| ns as f64 / 1e6).collect(),
            scale: p.scale,
        })
        .collect();
    host_figures(&passes, tail)
}

fn op_samples(ps: &[Pass], keep: impl Fn(OpKind) -> bool) -> Vec<f64> {
    ps.iter()
        .flat_map(|p| p.ops.iter())
        .filter(|(k, _)| keep(*k))
        .map(|&(_, ns)| ns as f64)
        .collect()
}

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let blocks = kind.blocks();
    let max_rps_rule = match kind {
        Kind::Small => format!("the highest rate with p99 <= {LATENCY_LIMIT_MS} ms"),
        Kind::Pipeline => "the saturation rate of the busiest engine".to_string(),
    };
    out.note(format!(
        "{}: {blocks} block(s) of {} requests, modelled open loop at {} req/s; model_max_rps is \
         {max_rps_rule}; host closed loop, 1 caller thread; ServeConfig default + keep_outputs \
         + 3 tenants (shares 1/2/4), lane preemption {}",
        kind.name(),
        kind.requests(),
        kind.rate_rps(),
        if kind == Kind::Small { "on" } else { "off" },
    ));
    let t = Instant::now();
    let scheds: Vec<_> = (0..blocks)
        .map(|b| kind.schedule(ctx.seed, b, kind.rate_rps()))
        .collect();
    let schedule_ms = t.elapsed().as_secs_f64() * 1e3 / blocks as f64;
    let untraced_s = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    // Every block once, then block 0 again for the determinism check.
    let mut checked = Outcome::default();
    let mut found = (0, 0.0);
    let base = passes(
        kind,
        &scheds,
        untraced_s,
        blocks + 1,
        None,
        &[],
        |svc, p, _| found = check_outputs(svc, &scheds[0], &p.tickets, ctx.seed, &mut checked),
        &mut out,
    );
    let (failed, max_err) = found;
    out.problems.append(&mut checked.problems);
    let payload: u64 = scheds[0]
        .iter()
        .map(|(_, t)| match t {
            SubmitTemplate::Single(s) => s.shape.payload_bytes(),
            SubmitTemplate::Pipeline(p) => {
                (p.input_seeds.len() * p.dims.0 * p.dims.1 * p.dims.2 * 8) as u64
            }
        })
        .sum();
    let r0 = &base[0].report;
    out.note(format!(
        "{}: block 0 holds {:.1} MiB of host payload and moves {:.1} MiB of simulated PCIe traffic",
        kind.name(),
        payload as f64 / (1 << 20) as f64,
        (r0.h2d_bytes + r0.d2h_bytes) as f64 / (1 << 20) as f64
    ));
    out.attempted = base.iter().map(|p| p.ops.len() as u64).sum();
    out.failed = failed + base.iter().map(|p| refused(&p.report)).sum::<u64>();
    let h = host(kind, &base);
    out.note(format!(
        "{}: host_ops_per_s is the median over {} passes ({:.1} ops per unscaled host second); \
         per-op percentiles from {} submits",
        kind.name(),
        base.len(),
        h.raw_ops_per_s,
        h.samples
    ));
    out.set("host_ops_per_s", h.ops_per_s);
    out.set("host_op_p50_ms", h.p50_ms);
    out.set("host_op_p99_ms", h.p99_ms);
    out.set("max_rel_err", max_err);
    out.set("host_peak_rss_mb", crate::peak_rss_mb());
    model_metrics(kind, &scheds, &base[..blocks], &mut out);
    if !ctx.traced {
        let v = match kind {
            Kind::Small => max_rps(ctx.seed, probe_of(kind.rate_rps(), &base[..blocks])),
            Kind::Pipeline => saturation_rps(&base[..blocks]),
        };
        out.set("model_max_rps", v);
        return out;
    }

    let mut spans = Spans::new(Instant::now());
    let expect: Vec<String> = base[..blocks]
        .iter()
        .map(|p| p.report_json.clone())
        .collect();
    let mut renders = Outcome::default();
    let traced = passes(
        kind,
        &scheds,
        ctx.seconds / 2.0,
        1,
        Some(&mut spans),
        &expect,
        |svc, _, spans| telemetry_renders(svc, spans.expect("traced"), &mut renders),
        &mut out,
    );
    out.metrics.append(&mut renders.metrics);
    out.attempted += traced.iter().map(|p| p.ops.len() as u64).sum::<u64>();
    out.failed += traced.iter().map(|p| refused(&p.report)).sum::<u64>();
    let (traced_ops, base_ops) = (host(kind, &traced).ops_per_s, h.ops_per_s);
    out.set("trace.host_ops_per_s", traced_ops);
    out.set("trace.untraced_host_ops_per_s", base_ops);
    out.set("trace.overhead_ratio", base_ops / traced_ops);
    out.set("loadgen.schedule_ms", schedule_ms);
    let mat: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.materialize_ns.iter().map(|&n| n as f64))
        .collect();
    out.set("request.materialize_us", fft_math::stats::mean(&mat) / 1e3);
    let queued = op_samples(&traced, |k| k == OpKind::Queued);
    let dispatch = op_samples(&traced, |k| k == OpKind::Dispatch);
    let pipes = op_samples(&traced, |k| k == OpKind::Pipeline);
    for (name, xs) in [
        ("service.submit_queued_us", &queued),
        ("service.submit_dispatch_us", &dispatch),
        ("service.submit_pipeline_us", &pipes),
    ] {
        if !xs.is_empty() {
            out.set(format!("{name}.p50"), percentile(xs, 0.50) / 1e3);
            out.set(format!("{name}.p99"), percentile(xs, 0.99) / 1e3);
        }
    }
    out.set(
        "service.dispatch_share",
        dispatch.len() as f64 / (queued.len() + dispatch.len()).max(1) as f64,
    );
    let per_pass = |f: fn(&Pass) -> u64| {
        let xs: Vec<f64> = traced.iter().map(|p| f(p) as f64 / 1e6).collect();
        percentile(&xs, 0.5)
    };
    out.set("service.drain_ms", per_pass(|p| p.drain_ns));
    out.set("report.render_ms", per_pass(|p| p.render_ns));
    let a = traced[0].submit_allocs;
    let submits = traced[0].ops.len().max(1) as f64;
    out.set("alloc.per_submit", a.calls as f64 / submits);
    out.set("alloc.bytes_per_submit", a.bytes as f64 / submits);
    out.set("gpu_sim.launch_fixed_us", crate::probes::launch_fixed_us());
    report_layers(&base[0].report, &mut out);
    if let Err(e) = spans.check_balance() {
        out.problem(e);
    }
    out.spans = Some(spans);
    out
}
