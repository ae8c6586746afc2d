//! `paper-kernel`: forward 128³ transforms on one simulated 8800 GTS,
//! rotating through the five-step, six-step and cufft-like plans.
//!
//! Host clock: each op is one plan's `upload` / `execute` / `download`.
//! Modelled clock: each algorithm's service time is its modelled PCIe
//! upload, kernel time and PCIe download. Latency: the transforms arrive
//! as a seeded Poisson stream at a fixed rate and are served in order by
//! the one card. Goodput and `model_max_rps`: the card saturated, one
//! transform of each algorithm back to back.

use crate::host::{self, host_figures, Host, HostPass, PassTail};
use crate::metrics::{ALGOS, KERNELS};
use crate::trace::{KernelSink, Spans};
use crate::{alloc, Ctx, Outcome};
use bifft::{CufftLikeFft, FiveStepFft, RunReport, SixStepFft};
use cpu_fft::CpuFft3d;
use fft_bench::paper::TABLE7;
use fft_math::error::rel_l2_error_f32;
use fft_math::rng::SplitMix64;
use fft_math::stats::percentile;
use fft_math::{Complex32, Direction};
use gpu_sim::pcie::{transfer_time, Dir};
use gpu_sim::{BufferId, DeviceSpec, Gpu};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Edge of the transformed cube.
pub const N: usize = 128;
/// Offered rate of the modelled open loop, transforms per modelled second.
pub const RATE_RPS: f64 = 35.0;
/// Arrivals in the modelled open loop.
const MODEL_ARRIVALS: usize = 200_000;
/// Normwise relative error allowed against single-threaded `cpu-fft`, per
/// algorithm in [`ALGOS`] order.
const TOLERANCE: [f64; 3] = [1e-5, 1e-5, 1e-5];

enum Plan {
    Five(FiveStepFft),
    Six(SixStepFft),
    Cufft(CufftLikeFft),
}

/// One card with the three plans and their device buffers.
pub struct Card {
    gpu: Gpu,
    plans: Vec<(Plan, BufferId, BufferId)>,
}

/// Card and plan construction — the workload's set-up.
pub fn setup() -> Card {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let five = FiveStepFft::new(&mut gpu, N, N, N);
    let six = SixStepFft::new(&mut gpu, N, N, N);
    let cufft = CufftLikeFft::new(&mut gpu, N, N, N);
    let b5 = five.alloc_buffers(&mut gpu).expect("128³ fits the GTS");
    let b6 = six.alloc_buffers(&mut gpu).expect("128³ fits the GTS");
    let bc = cufft.alloc_buffers(&mut gpu).expect("128³ fits the GTS");
    Card {
        gpu,
        plans: vec![
            (Plan::Five(five), b5.0, b5.1),
            (Plan::Six(six), b6.0, b6.1),
            (Plan::Cufft(cufft), bc.0, bc.1),
        ],
    }
}

fn volume(seed: u64) -> Vec<Complex32> {
    let mut rng = SplitMix64::new(seed);
    (0..N * N * N)
        .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect()
}

/// Host nanoseconds of one transform's three public calls.
#[derive(Clone, Copy, Default)]
struct Phases {
    upload: u64,
    execute: u64,
    download: u64,
    /// Allocations made inside the three calls (counted only when on).
    allocs: alloc::Allocs,
}

impl Card {
    /// Transforms `vol` with plan `a`. With `spans`, records the op, its
    /// three calls and the kernels `execute` launched.
    fn transform(
        &mut self,
        a: usize,
        vol: &[Complex32],
        mut spans: Option<(&mut Spans, &Rc<RefCell<KernelSink>>)>,
        op: u64,
    ) -> (Vec<Complex32>, RunReport, Phases) {
        let (plan, v, w) = &self.plans[a];
        let (v, w) = (*v, *w);
        let gpu = &mut self.gpu;
        let root = spans.as_mut().map(|(s, _)| s.begin(ALGOS[a], op));
        let mut ph = Phases::default();

        let t = Instant::now();
        let up = spans.as_mut().map(|(s, _)| s.begin("bifft.upload", op));
        let a0 = alloc::read();
        match plan {
            Plan::Five(p) => p.upload(gpu, v, vol),
            Plan::Six(p) => p.upload(gpu, v, vol),
            Plan::Cufft(_) => gpu.mem_mut().upload(v, 0, vol),
        }
        ph.allocs += alloc::read() - a0;
        if let (Some((s, _)), Some(id)) = (spans.as_mut(), up) {
            s.end(id);
        }
        ph.upload = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let ex = spans.as_mut().map(|(s, sink)| {
            let id = s.begin("bifft.execute", op);
            sink.borrow_mut().mark(s.now_ns());
            id
        });
        let a0 = alloc::read();
        let report = match plan {
            Plan::Five(p) => p.execute(gpu, v, w, Direction::Forward),
            Plan::Six(p) => p.execute(gpu, v, w, Direction::Forward),
            Plan::Cufft(p) => p.execute(gpu, v, w, Direction::Forward),
        };
        ph.allocs += alloc::read() - a0;
        if let (Some((s, sink)), Some(id)) = (spans.as_mut(), ex) {
            for k in sink.borrow_mut().take() {
                s.child(k.name, op, k.start_ns, k.end_ns);
            }
            s.end(id);
        }
        ph.execute = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let dl = spans.as_mut().map(|(s, _)| s.begin("bifft.download", op));
        let a0 = alloc::read();
        let out = match plan {
            Plan::Five(p) => p.download(gpu, v),
            Plan::Six(p) => p.download(gpu, v),
            Plan::Cufft(_) => {
                let mut out = vec![Complex32::ZERO; vol.len()];
                gpu.mem().download(v, 0, &mut out);
                out
            }
        };
        ph.allocs += alloc::read() - a0;
        if let (Some((s, _)), Some(id)) = (spans.as_mut(), dl) {
            s.end(id);
        }
        ph.download = t.elapsed().as_nanos() as u64;
        if let (Some((s, _)), Some(id)) = (spans.as_mut(), root) {
            s.end(id);
        }
        (out, report, ph)
    }
}

/// What one phase (untraced or traced) of rounds produced.
#[derive(Default)]
struct Phase {
    ops: u64,
    op_ns: Vec<f64>,
    /// [`host::scale`] taken before each transform.
    scale: Vec<f64>,
    /// Host ns per algorithm: upload, execute, download, transforms.
    per_algo: [[u64; 4]; 3],
    /// Modelled step list of the first transform per algorithm.
    model: Vec<Option<RunReport>>,
    /// Largest relative error per algorithm.
    max_err: [f64; 3],
    failed: u64,
    oracle_ms: Vec<f64>,
    allocs_first_round: Option<alloc::Allocs>,
}

impl Phase {
    /// Host figures over rounds of one transform per algorithm, each
    /// transform scaled by the calibration taken just before it. A run holds
    /// too few transforms for a p99 with ten samples beyond it, and the
    /// slowest single transform swings with the host; the median transform
    /// of the slowest algorithm stands in for p99.
    fn host(&self) -> Host {
        let rounds: Vec<HostPass> = self
            .op_ns
            .chunks(ALGOS.len())
            .zip(self.scale.chunks(ALGOS.len()))
            .map(|(ns, scale)| {
                let op_ms: Vec<f64> = ns.iter().zip(scale).map(|(n, s)| n * s / 1e6).collect();
                HostPass {
                    ops: ns.len(),
                    host_s: op_ms.iter().sum::<f64>() / 1e3,
                    op_ms,
                    scale: 1.0,
                }
            })
            .collect();
        let mut host = host_figures(&rounds, PassTail::Median);
        let raw: Vec<f64> = self
            .op_ns
            .chunks(ALGOS.len())
            .map(|ns| ns.len() as f64 / (ns.iter().sum::<f64>() / 1e9))
            .collect();
        host.raw_ops_per_s = percentile(&raw, 0.5);
        host.p99_ms = (0..ALGOS.len())
            .map(|a| {
                let ms: Vec<f64> = rounds.iter().map(|r| r.op_ms[a]).collect();
                percentile(&ms, 0.5)
            })
            .fold(0.0, f64::max);
        host
    }
}

/// Kernel name, modelled seconds and bytes of each step — what must repeat
/// bit for bit.
fn fingerprint(r: &RunReport) -> Vec<(&'static str, u64, u64, u64)> {
    r.steps
        .iter()
        .map(|k| {
            (
                k.name,
                k.timing.time_s.to_bits(),
                k.stats.loads,
                k.stats.stores,
            )
        })
        .collect()
}

/// Runs whole rounds (one transform per algorithm over one seeded volume)
/// until `seconds` of wall time have passed, at least `min_rounds`.
fn run_phase(
    card: &mut Card,
    seed: u64,
    seconds: f64,
    min_rounds: u64,
    mut traced: Option<(&mut Spans, &Rc<RefCell<KernelSink>>)>,
    out: &mut Outcome,
) -> Phase {
    let oracle = CpuFft3d::with_threads(N, N, N, 1);
    let mut ph = Phase {
        model: vec![None, None, None],
        ..Phase::default()
    };
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let vol = volume(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let counting = traced.is_some() && ph.allocs_first_round.is_none();
        let mut allocs = alloc::Allocs::default();
        alloc::enable(counting);
        let mut outs = Vec::with_capacity(3);
        for (a, algo) in ALGOS.iter().enumerate() {
            let op = round * 3 + a as u64;
            ph.scale.push(host::scale());
            let t = Instant::now();
            let sp = traced.as_mut().map(|(s, k)| (&mut **s, *k));
            let (o, report, p) = card.transform(a, &vol, sp, op);
            ph.op_ns.push(t.elapsed().as_nanos() as f64);
            let acc = &mut ph.per_algo[a];
            acc[0] += p.upload;
            acc[1] += p.execute;
            acc[2] += p.download;
            acc[3] += 1;
            allocs += p.allocs;
            match &ph.model[a] {
                None => ph.model[a] = Some(report),
                Some(first) if fingerprint(first) != fingerprint(&report) => {
                    out.problem(format!("{algo}: modelled steps differ between rounds"))
                }
                Some(_) => {}
            }
            outs.push(o);
        }
        alloc::enable(false);
        if counting {
            ph.allocs_first_round = Some(allocs);
        }
        ph.ops += 3;
        // Outside the timed calls: one single-threaded oracle per volume.
        let t = Instant::now();
        let mut want = vol;
        oracle.execute(&mut want, Direction::Forward);
        ph.oracle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (a, o) in outs.iter().enumerate() {
            let err = rel_l2_error_f32(o, &want);
            ph.max_err[a] = ph.max_err[a].max(err);
            if err.is_nan() || err > TOLERANCE[a] {
                ph.failed += 1;
                out.problem(format!(
                    "{} round {round}: relative error {err:e} over {:e}",
                    ALGOS[a], TOLERANCE[a]
                ));
            }
        }
        round += 1;
    }
    ph
}

/// Modelled service seconds of one transform: PCIe upload, kernels, PCIe
/// download on the card's link.
fn service_s(spec: &DeviceSpec, r: &RunReport) -> f64 {
    let bytes = (N * N * N * 8) as u64;
    transfer_time(spec.pcie, Dir::H2D, bytes, 1).time_s
        + r.total_time_s()
        + transfer_time(spec.pcie, Dir::D2H, bytes, 1).time_s
}

/// In-order single-server latencies of the seeded arrival stream at
/// `rate`, op `k` running algorithm `k % 3`.
fn model_open_loop(seed: u64, rate: f64, service: &[f64; 3]) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x0a11_0ca7_e5ce_d01e);
    let (mut t, mut free) = (0.0f64, 0.0f64);
    let mut lat = Vec::with_capacity(MODEL_ARRIVALS);
    for k in 0..MODEL_ARRIVALS {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        free = free.max(t) + service[k % 3];
        lat.push(free - t);
    }
    lat
}

/// Largest deviation, in percent, of the analytic 256³ five-step step
/// times from Table 7 over the three cards.
pub fn paper_err_pct() -> f64 {
    let mut worst = 0.0f64;
    for (spec, p) in DeviceSpec::all_cards().iter().zip(TABLE7) {
        let est = FiveStepFft::estimate(spec, 256, 256, 256);
        let paper_ms = [p.0, p.2, p.0, p.2, p.4];
        for ((_, t), want) in est.iter().zip(paper_ms) {
            worst = worst.max((t.time_s * 1e3 - want).abs() / want * 100.0);
        }
    }
    worst
}

pub fn run(ctx: &Ctx, card: &mut Card) -> Outcome {
    let mut out = Outcome::default();
    let spec = *card.gpu.spec();
    out.note(format!(
        "paper-kernel: {N}³ forward transforms on one {} ({} plans, 1 thread, cpu-fft oracle on 1 thread); \
         modelled latency from an open loop of {MODEL_ARRIVALS} arrivals at {RATE_RPS} transforms/s; \
         goodput and model_max_rps at saturation (3 transforms per summed service time)",
        spec.name,
        ALGOS.len()
    ));
    out.note(format!(
        "paper-kernel: device bytes {} MiB (3 plans x 2 buffers), host volume {} MiB",
        (3 * 2 * N * N * N * 8) >> 20,
        (N * N * N * 8) >> 20
    ));
    let untraced_s = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let base = run_phase(card, ctx.seed, untraced_s, 2, None, &mut out);
    let host = base.host();
    let base_ops = host.ops_per_s;

    let model: Vec<&RunReport> = base
        .model
        .iter()
        .map(|m| m.as_ref().expect("every algorithm ran"))
        .collect();
    let service = [
        service_s(&spec, model[0]),
        service_s(&spec, model[1]),
        service_s(&spec, model[2]),
    ];
    let lat = model_open_loop(ctx.seed, RATE_RPS, &service);
    let payload = 2.0 * (N * N * N * 8) as f64;

    out.attempted = base.ops;
    out.failed = base.failed;
    out.set("host_ops_per_s", base_ops);
    out.set("host_op_p50_ms", host.p50_ms);
    out.set("host_op_p99_ms", host.p99_ms);
    out.note(format!(
        "paper-kernel: host_ops_per_s is the median over {} rounds ({:.3} transforms per unscaled \
         host second); host_op_p50_ms over {} transforms, host_op_p99_ms the slowest \
         algorithm's median (too few transforms for a true p99)",
        base.op_ns.len() / ALGOS.len(),
        host.raw_ops_per_s,
        host.samples
    ));
    out.set("model_p50_ms", percentile(&lat, 0.50) * 1e3);
    out.set("model_p99_ms", percentile(&lat, 0.99) * 1e3);
    // The card saturated: one transform of each algorithm back to back.
    let saturated_rps = ALGOS.len() as f64 / service.iter().sum::<f64>();
    out.set("model_goodput_gbs", saturated_rps * payload / 1e9);
    out.set("model_max_rps", saturated_rps);
    out.set("model_gflops", model[0].gflops());
    out.set("model_paper_err_pct", paper_err_pct());
    out.note(format!(
        "paper-kernel: largest relative error five-step {:e}, six-step {:e}, cufft-like {:e} (tolerances {:?})",
        base.max_err[0], base.max_err[1], base.max_err[2], TOLERANCE
    ));
    out.set("max_rel_err", base.max_err.into_iter().fold(0.0, f64::max));
    out.set("host_peak_rss_mb", crate::peak_rss_mb());

    if !ctx.traced {
        return out;
    }
    let epoch = Instant::now();
    let sink = Rc::new(RefCell::new(KernelSink::new(epoch)));
    card.gpu.set_sink(sink.clone());
    let mut spans = Spans::new(epoch);
    let traced = run_phase(
        card,
        ctx.seed,
        ctx.seconds / 2.0,
        1,
        Some((&mut spans, &sink)),
        &mut out,
    );
    card.gpu.clear_sink();
    out.attempted += traced.ops;
    out.failed += traced.failed;
    for (algo, (b, t)) in ALGOS.iter().zip(base.model.iter().zip(&traced.model)) {
        if b.as_ref().map(fingerprint) != t.as_ref().map(fingerprint) {
            out.problem(format!(
                "{algo}: modelled steps differ between the untraced and traced runs"
            ));
        }
    }
    let traced_ops = traced.host().ops_per_s;
    out.set("trace.host_ops_per_s", traced_ops);
    out.set("trace.untraced_host_ops_per_s", base_ops);
    out.set("trace.overhead_ratio", base_ops / traced_ops);
    if let Some(a) = traced.allocs_first_round {
        out.set("alloc.per_transform", a.calls as f64 / 3.0);
    }
    out.set("cpu_fft.oracle_ms", percentile(&traced.oracle_ms, 0.5));
    out.set("gpu_sim.launch_fixed_us", crate::probes::launch_fixed_us());

    let totals = spans.total_ns();
    let mut transforms_by_kernel: BTreeMap<&str, u64> = BTreeMap::new();
    for (a, m) in model.iter().enumerate() {
        let n = traced.per_algo[a][3];
        for k in &m.steps {
            transforms_by_kernel.insert(k.name, n);
        }
    }
    for k in KERNELS {
        let per = transforms_by_kernel.get(k).copied().unwrap_or(0);
        if let (Some(&ns), true) = (totals.get(*k), per > 0) {
            out.set(format!("gpu_sim.{k}.host_ms"), ns as f64 / per as f64 / 1e6);
        }
    }
    for m in &model {
        let mut bytes: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
        for k in &m.steps {
            let e = bytes.entry(k.name).or_default();
            e.0 += k.stats.load_bytes() + k.stats.store_bytes();
            e.1 += k.timing.time_s;
        }
        for (name, (b, s)) in bytes {
            out.set(format!("gpu_sim.{name}.model_gbs"), b as f64 / s / 1e9);
        }
    }
    // Per-algorithm execute self time: the execute spans minus their kernels.
    let self_by_algo = execute_self_ns(&spans);
    for (a, name) in ALGOS.iter().enumerate() {
        let [up, ex, dl, n] = traced.per_algo[a];
        let n = n.max(1) as f64;
        out.set(format!("bifft.{name}.upload_ms"), up as f64 / n / 1e6);
        out.set(format!("bifft.{name}.download_ms"), dl as f64 / n / 1e6);
        out.set(
            format!("bifft.{name}.execute_self_ms"),
            self_by_algo[a] as f64 / n / 1e6,
        );
        out.set(
            format!("gpu_sim.{name}.sim_gb_per_host_s"),
            model[a].total_bytes() as f64 * n / (ex as f64 / 1e9) / 1e9,
        );
    }
    if let Err(e) = spans.check_balance() {
        out.problem(e);
    }
    out.spans = Some(spans);
    out
}

/// Self ns of the `bifft.execute` spans, summed per algorithm (the parent
/// span's name is the algorithm).
fn execute_self_ns(spans: &Spans) -> [u64; 3] {
    let own = spans.self_ns();
    let mut out = [0u64; 3];
    for (s, o) in spans.spans().iter().zip(own) {
        if s.name != "bifft.execute" {
            continue;
        }
        if let Some(p) = s.parent {
            if let Some(a) = ALGOS.iter().position(|&n| n == spans.spans()[p].name) {
                out[a] += o;
            }
        }
    }
    out
}
