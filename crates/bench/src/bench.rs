//! `bifft-bench` — the benchmark-regression harness.
//!
//! Runs the paper grid (in-core algorithms x volume sizes x the three
//! evaluation cards), derives per-step roofline metrics and pattern audits,
//! and writes a schema-versioned `BENCH_<timestamp>.json`. `--check` mode
//! re-runs the grid and compares it against a committed baseline file,
//! exiting non-zero when any gated metric breaks its rule (most allow
//! [`CHECK_TOLERANCE`] of drift) — the CI gate that keeps the perf
//! trajectory honest.
//!
//! The document has seven sections: the kernel grid `runs` (each run
//! nesting its per-kernel `steps`), multi-GPU `scaling`, deterministic
//! fft-serve load runs (`serving`), the same loads replayed over TCP
//! through fft-gate (`gateway`), their latency-attribution verdicts
//! (`attribution`), multi-tenant QoS runs (`tenancy`) and pipeline-DAG runs
//! (`pipeline`). Each section is one ordered field table. An entry names
//! the JSON key (the point struct's field, so the value kind is that
//! field's type: string, unsigned, `f64` or bool) and the field's role: an
//! identity that matches a baseline point to its candidate, a figure
//! recorded only for trend reading, or a gated figure with its drift rules
//! and the label its failure message prints. [`to_json`], [`parse_bench`]
//! and [`check`] all walk those tables, so gating one more metric of a
//! section is one more table entry. DESIGN.md §10 lists what each section
//! gates.
//!
//! The file format is the same hand-rolled JSON the rest of the repo uses
//! (shortest-round-trip `f64`, fixed key order), read back through the
//! workspace JSON codec (`fft_math::json`) and checked field by field
//! against the tables.

use bifft::multi_gpu::MultiGpuFft3d;
use bifft::plan::{Algorithm, Fft3d};
use bifft::PatternAudit;
use fft_gate::server::{GateConfig, GateServer};
use fft_gate::{control, run_open_loop_net};
use fft_math::json::{self, need, need_arr, need_bool, need_str, Value};
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use fft_serve::loadgen::{
    open_loop_templates, run_open_loop, OfferedLoad, SubmitTemplate, Workload,
};
use fft_serve::pipeline::StageKind;
use fft_serve::qos::{QosConfig, TenantId, TenantPolicy};
use fft_serve::service::{ServeConfig, ServeConfigBuilder};
use fft_serve::FftService;
use gpu_sim::analysis::kernel_roofline;
use gpu_sim::{CheckReport, DeviceSpec, Gpu};
use std::fmt::Write as _;

/// Schema tag written into (and required of) every bench file.
pub const BENCH_SCHEMA: &str = "bifft-bench-v7";

/// Tolerance of `--check`: how far a gated metric may drift from the
/// baseline before the gate fails, relative or absolute by the field's rule
/// (simulated timings are deterministic, so the slack only absorbs
/// intentional small model recalibrations).
pub const CHECK_TOLERANCE: f64 = 0.02;

/// Fairness floor of the tenancy gate: a baseline whose share-weighted
/// Jain index met this bound pins the candidate to keep meeting it.
pub const FAIRNESS_FLOOR: f64 = 0.95;

/// One kernel's record inside a [`BenchRun`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchStep {
    /// Kernel name.
    pub name: String,
    /// Modelled time, seconds.
    pub time_s: f64,
    /// Effective bandwidth, GB/s.
    pub gbs: f64,
    /// Fraction of the card's peak bandwidth.
    pub bw_frac: f64,
    /// Arithmetic intensity, nominal flops per useful byte.
    pub intensity: f64,
    /// Roofline side: `"mem"` or `"comp"`.
    pub bound: String,
    /// Occupancy fraction (resident threads over the SM maximum).
    pub occupancy: f64,
    /// Annotated expected pattern pair (`"D*A"`), `"-"` when unannotated.
    pub expected: String,
    /// Observed pattern pair from the sampled address streams.
    pub observed: String,
    /// Audit verdict for this step.
    pub ok: bool,
}

/// One `(card, algorithm, n)` record of the grid.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchRun {
    /// Card short key (`gt`, `gts`, `gtx`).
    pub card: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Cube edge.
    pub n: usize,
    /// Total modelled device time, seconds.
    pub wall_s: f64,
    /// Achieved nominal GFLOPS.
    pub gflops: f64,
    /// Whole-run effective bandwidth, GB/s.
    pub overall_gbs: f64,
    /// Whether the pattern audit found every annotated step conformant.
    pub audit_clean: bool,
    /// Number of steps observed pairing two far-family patterns.
    pub forbidden_steps: u64,
    /// Per-kernel records in execution order.
    pub steps: Vec<BenchStep>,
}

/// One multi-GPU scaling point.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScalingPoint {
    /// Card count.
    pub gpus: usize,
    /// Cube edge.
    pub n: usize,
    /// Wall time of the sharded transform, seconds.
    pub wall_s: f64,
    /// Host-staged bytes exchanged between cards.
    pub bytes_exchanged: u64,
}

/// One deterministic fft-serve load-generator run.
///
/// The field is `serve_gpus` rather than `gpus`, and the later sections
/// prefix their keys, so that the on-disk format stays as it was.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServingPoint {
    /// Workload mix name (`rows` or `mixed`).
    pub workload: String,
    /// Cards in the fleet.
    pub serve_gpus: usize,
    /// Stream lanes per card.
    pub streams: usize,
    /// Open-loop requests offered.
    pub requests: u64,
    /// Load-generator seed.
    pub seed: u64,
    /// Offered arrival rate, requests per simulated second.
    pub offered_rps: f64,
    /// Completed requests per simulated second.
    pub achieved_rps: f64,
    /// In-deadline payload bytes (both directions) over makespan, GB/s.
    pub goodput_gbs: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Whether the run met every serving SLO (latency tail, error budget).
    pub slo_ok: bool,
}

/// One network-gateway run: a seeded serving workload replayed over real
/// TCP through `fft-gate` with concurrent clients. All fields are
/// timing-independent (the paced bridge makes the replay deterministic),
/// so the committed baseline regenerates reproducibly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GatewayPoint {
    /// Workload mix name (`rows` or `mixed`).
    pub gw_workload: String,
    /// Cards in the fleet behind the gateway.
    pub gw_gpus: usize,
    /// Concurrent TCP client connections replaying the schedule.
    pub gw_clients: usize,
    /// Open-loop requests offered over the wire.
    pub gw_requests: u64,
    /// Load-generator seed.
    pub gw_seed: u64,
    /// Submits the gateway admitted.
    pub gw_accepted: u64,
    /// Submits rejected with a typed wire error.
    pub gw_rejected: u64,
    /// Whether the report fetched over the wire is byte-identical to the
    /// in-process run of the same schedule.
    pub report_match: bool,
    /// Goodput of the gateway run, GB/s.
    pub gw_goodput_gbs: f64,
}

/// One latency-attribution verdict: a serving workload's time ledger
/// collapsed to its shares and invariants. Derived from the same
/// deterministic run shape as the serving section, so the committed
/// baseline regenerates byte-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttributionPoint {
    /// Workload mix name (`rows` or `mixed`).
    pub att_workload: String,
    /// Cards in the fleet.
    pub att_gpus: usize,
    /// Open-loop requests offered.
    pub att_requests: u64,
    /// Load-generator seed.
    pub att_seed: u64,
    /// Whether every completed request's ledger category sum equals its
    /// e2e latency within the attribution tolerance.
    pub att_conservation_ok: bool,
    /// Largest conservation error seen across the run, seconds.
    pub att_worst_err_s: f64,
    /// Share of attributed time spent queued for admission + dispatch.
    pub att_queue_share: f64,
    /// Share spent in host-to-device staging copies.
    pub att_h2d_share: f64,
    /// Share spent in device compute.
    pub att_compute_share: f64,
    /// Share spent in device-to-host copies.
    pub att_d2h_share: f64,
    /// Everything else: admission, batch hold, planning, staging,
    /// finalize, network.
    pub att_other_share: f64,
    /// Mean end-to-end latency over completed requests, milliseconds.
    pub att_e2e_ms_mean: f64,
    /// Category driving the p95 tail — the largest body-vs-tail mean
    /// delta.
    pub att_tail_driver: String,
}

/// One multi-tenant QoS run: a serving workload spread uniformly across
/// equal-share tenants, each under a token-bucket rate quota, with lane
/// preemption enabled. Deterministic like the serving section, so the
/// committed baseline regenerates byte-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenancyPoint {
    /// Workload name (`rows` / `mixed`).
    pub ten_workload: String,
    /// Fleet size.
    pub ten_gpus: usize,
    /// Tenants the workload is spread across (equal shares).
    pub ten_tenants: u32,
    /// Offered requests.
    pub ten_requests: u64,
    /// Load-generator seed.
    pub ten_seed: u64,
    /// Requests admitted past the quota gate.
    pub ten_admitted: u64,
    /// Requests bounced by a tenant's token-bucket rate quota.
    pub ten_quota_rejected: u64,
    /// Dispatched batches aborted at a stream-safe point for a
    /// higher-priority arrival.
    pub ten_preemptions: u64,
    /// Share-weighted Jain fairness index over per-tenant goodput.
    pub ten_fairness_index: f64,
    /// Whole-run goodput, GB/s.
    pub ten_goodput_gbs: f64,
}

/// One pipeline-serving run: the `pipeline` workload mix (a third of the
/// draws are convolution / docking-sweep DAGs) through the service, paired
/// with a staged replay of the same schedule as the PCIe comparator.
/// Deterministic like the serving section, so the committed baseline
/// regenerates byte-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelinePoint {
    /// Workload name (always `pipeline`).
    pub pipe_workload: String,
    /// Fleet size.
    pub pipe_gpus: usize,
    /// Stream lanes per card.
    pub pipe_streams: usize,
    /// Offered submissions (singles and DAGs together).
    pub pipe_requests: u64,
    /// Load-generator seed.
    pub pipe_seed: u64,
    /// Pipeline DAGs completed.
    pub pipe_count: u64,
    /// Pipeline stages executed.
    pub pipe_stages: u64,
    /// Stages executed per simulated second of makespan.
    pub pipe_stages_per_s: f64,
    /// Fraction of intermediate operand fetches served from a
    /// device-resident slot, hits over hits+misses.
    pub pipe_resident_hit_frac: f64,
    /// Resident slots spilled to host under memory pressure.
    pub pipe_evictions: u64,
    /// PCIe bytes the DAG execution saved against the staged replay of the
    /// same schedule — every pipeline decomposed into independent
    /// single-transform requests, pointwise/reduce stages free of PCIe
    /// charge.
    pub pipe_saved_bytes: u64,
}

/// One benchmark document: every section the schema carries, in render
/// order. Which fields `--check` matches on and gates, and by what rule,
/// is declared once per section in this module's field tables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchFile {
    /// Whether this was the `--quick` (64³-only) grid.
    pub quick: bool,
    /// Grid records.
    pub runs: Vec<BenchRun>,
    /// Multi-GPU scaling points.
    pub scaling: Vec<ScalingPoint>,
    /// Serving-layer load runs.
    pub serving: Vec<ServingPoint>,
    /// Network-gateway runs over real TCP.
    pub gateway: Vec<GatewayPoint>,
    /// Latency-attribution verdicts of the serving workloads.
    pub attribution: Vec<AttributionPoint>,
    /// Multi-tenant QoS runs.
    pub tenancy: Vec<TenancyPoint>,
    /// Pipeline-serving runs with the staged-replay PCIe comparator.
    pub pipeline: Vec<PipelinePoint>,
}

/// The three cards with their short CLI keys, Table 1 order.
pub fn cards() -> [(&'static str, DeviceSpec); 3] {
    [
        ("gt", DeviceSpec::gt8800()),
        ("gts", DeviceSpec::gts8800()),
        ("gtx", DeviceSpec::gtx8800()),
    ]
}

/// Deterministic test volume (same convention as the profile driver).
fn signal(len: usize) -> Vec<Complex32> {
    (0..len)
        .map(|i| Complex32::new((i as f32 * 0.173).sin(), (i as f32 * 0.311).cos()))
        .collect()
}

/// Runs one `(card, algorithm, n)` cell of the grid: a forward transform
/// with per-step roofline metrics and the pattern audit, optionally under
/// the validation layer (the checker findings are `Some` when `check` is
/// set).
///
/// # Panics
/// Panics when the plan cannot be built (the grid only uses supported
/// sizes).
pub fn bench_run_checked(
    spec: DeviceSpec,
    card_key: &str,
    algo: Algorithm,
    n: usize,
    check: bool,
) -> (BenchRun, Option<CheckReport>) {
    let mut gpu = Gpu::new(spec);
    let plan = Fft3d::builder(n, n, n)
        .algorithm(algo)
        .checked(check)
        .build(&mut gpu)
        .unwrap_or_else(|e| panic!("bench grid: cannot plan {n}^3: {e}"));
    let host = signal(n * n * n);
    let (_, rep) = plan
        .transform(&mut gpu, &host, Direction::Forward)
        .expect("bench volume matches the plan");
    let audit = PatternAudit::of_report(&rep);
    let spec = *gpu.spec();
    let steps = rep
        .steps
        .iter()
        .zip(&audit.steps)
        .map(|(s, a)| {
            let roof = kernel_roofline(&spec, s);
            BenchStep {
                name: s.name.to_string(),
                time_s: roof.time_s,
                gbs: roof.achieved_gbs,
                bw_frac: roof.bandwidth_fraction,
                intensity: roof.arithmetic_intensity,
                bound: if roof.memory_bound { "mem" } else { "comp" }.to_string(),
                occupancy: roof.occupancy_fraction,
                expected: a.expected_label(),
                observed: a.observed.label(),
                ok: a.ok,
            }
        })
        .collect();
    (
        BenchRun {
            card: card_key.to_string(),
            algorithm: rep.algorithm.to_string(),
            n,
            wall_s: rep.total_time_s(),
            gflops: rep.gflops(),
            overall_gbs: rep.overall_gbs(),
            audit_clean: audit.clean(),
            forbidden_steps: audit.forbidden_count() as u64,
            steps,
        },
        gpu.check_report(),
    )
}

/// Runs one multi-GPU scaling point on the GTS card.
fn scaling_point(gpus: usize, n: usize, check: bool) -> (ScalingPoint, Option<CheckReport>) {
    let spec = DeviceSpec::gts8800();
    let mut plan =
        MultiGpuFft3d::new(&spec, gpus, n, n, n).unwrap_or_else(|e| panic!("bench scaling: {e}"));
    if check {
        plan.check_enable();
    }
    let host = signal(n * n * n);
    let (_, rep) = plan
        .transform(&host, Direction::Forward)
        .expect("scaling volume matches the plan");
    (
        ScalingPoint {
            gpus,
            n,
            wall_s: rep.wall_s,
            bytes_exchanged: rep.bytes_exchanged,
        },
        plan.check_report(),
    )
}

/// Brings up the fleet `cfg` describes and drains one seeded open-loop run
/// through it.
fn drained_run(
    cfg: ServeConfigBuilder,
    workload: &Workload,
    requests: u64,
    rate_rps: f64,
    seed: u64,
) -> (FftService, OfferedLoad) {
    let mut svc = cfg
        .build_service()
        .unwrap_or_else(|e| panic!("bench: cannot bring fleet up: {e}"));
    let load = run_open_loop(&mut svc, workload, requests, rate_rps, seed);
    svc.drain();
    (svc, load)
}

/// Drains `load`'s seeded open-loop run on a GTS fleet: the one
/// in-process run the serving and attribution sections and the gateway's
/// comparator all read.
fn served(
    &(workload_name, gpus, streams, requests, rate_rps, seed): &Load,
    check: bool,
) -> (FftService, OfferedLoad) {
    let cfg = ServeConfig::builder()
        .gpus(gpus)
        .streams(streams)
        .check_hazards(check);
    let workload = workload_name.parse().expect("LOADS names a workload");
    drained_run(cfg, &workload, requests, rate_rps, seed)
}

/// One fft-serve load point: `load`'s drained run, reported through the
/// service's own percentile/goodput accounting.
fn serving_point(
    &(workload_name, gpus, streams, requests, _, seed): &Load,
    (svc, offered): &(FftService, OfferedLoad),
) -> (ServingPoint, Option<CheckReport>) {
    let crep = svc.check_report();
    let r = svc.report();
    (
        ServingPoint {
            workload: workload_name.to_string(),
            serve_gpus: gpus,
            streams,
            requests,
            seed,
            offered_rps: offered.offered_rps,
            achieved_rps: r.achieved_rps,
            goodput_gbs: r.goodput_gbs,
            p50_ms: r.latency.p50_s * 1e3,
            p95_ms: r.latency.p95_s * 1e3,
            p99_ms: r.latency.p99_s * 1e3,
            slo_ok: r.slo.ok,
        },
        crep,
    )
}

/// One attribution point: the drained run [`serving_point`] reads, read
/// back through the attribution ledger instead of the latency
/// percentiles. Collapses the per-request ledgers to the conservation
/// verdict, the headline category shares, and the p95 tail driver.
fn attribution_point(
    &(workload_name, gpus, _, requests, _, seed): &Load,
    svc: &FftService,
) -> AttributionPoint {
    use fft_serve::telemetry::attribution;
    let ledgers = svc.ledgers();
    let audit = svc.attribution_audit();
    let lines = attribution::budget(&ledgers);
    let share = |name: &str| {
        lines
            .iter()
            .find(|l| l.category == name)
            .map_or(0.0, |l| l.share)
    };
    let (queue, h2d, compute, d2h) = (share("queue"), share("h2d"), share("compute"), share("d2h"));
    let other = lines
        .iter()
        .filter(|l| !matches!(l.category, "queue" | "h2d" | "compute" | "d2h"))
        .map(|l| l.share)
        .sum();
    // Conservation makes each ledger's category sum its e2e latency, so
    // the mean e2e falls out of the budget totals.
    let e2e_ms_mean = if ledgers.is_empty() {
        0.0
    } else {
        lines.iter().map(|l| l.total_s).sum::<f64>() / ledgers.len() as f64 * 1e3
    };
    let tail = attribution::tail_split(&ledgers);
    AttributionPoint {
        att_workload: workload_name.to_string(),
        att_gpus: gpus,
        att_requests: requests,
        att_seed: seed,
        att_conservation_ok: audit.ok(),
        att_worst_err_s: audit.worst_err_s,
        att_queue_share: queue,
        att_h2d_share: h2d,
        att_compute_share: compute,
        att_d2h_share: d2h,
        att_other_share: other,
        att_e2e_ms_mean: e2e_ms_mean,
        att_tail_driver: tail.driver.label().to_string(),
    }
}

/// Runs one tenancy point: `load`'s workload spread across `tenants`
/// equal-share tenants, each under a token-bucket rate quota of
/// `rate_rps / tenants` (so Poisson clustering occasionally overruns a
/// bucket), with lane preemption enabled. Collapses the run to the
/// admission counts and the share-weighted fairness index.
fn tenancy_point(
    &(workload_name, gpus, streams, requests, rate_rps, seed): &Load,
    tenants: u32,
) -> TenancyPoint {
    let mut workload: Workload = workload_name.parse().expect("LOADS names a workload");
    workload.tenants = tenants;
    let mut qos = QosConfig {
        preemption: true,
        ..QosConfig::default()
    };
    for t in 0..u64::from(tenants) {
        qos.tenants.insert(
            TenantId(t),
            TenantPolicy {
                rate_rps: Some(rate_rps / f64::from(tenants)),
                // A shallow bucket so Poisson clustering visibly overruns
                // the quota — the committed baseline then pins a nonzero
                // rejection count, keeping the admission gate honest.
                burst: 2.0,
                ..TenantPolicy::default()
            },
        );
    }
    let cfg = ServeConfig::builder().gpus(gpus).streams(streams).qos(qos);
    let r = drained_run(cfg, &workload, requests, rate_rps, seed)
        .0
        .report();
    TenancyPoint {
        ten_workload: workload_name.to_string(),
        ten_gpus: gpus,
        ten_tenants: tenants,
        ten_requests: requests,
        ten_seed: seed,
        ten_admitted: r.admitted,
        ten_quota_rejected: r.rejected_quota,
        ten_preemptions: r.preemptions,
        ten_fairness_index: r.fairness_index,
        ten_goodput_gbs: r.goodput_gbs,
    }
}

/// Replays a recorded schedule with every pipeline DAG decomposed into its
/// transform stages as independent single-transform requests, and returns
/// the total PCIe bytes the replay moved. Pointwise and reduce stages run
/// free of PCIe charge (a stageless client could fold them on the host), so
/// the comparator is a lower bound on what staged submission would really
/// pay — the saved-bytes figure it yields is conservative.
fn staged_replay_bytes(schedule: &[(f64, SubmitTemplate)], gpus: usize, streams: usize) -> u64 {
    let mut svc = ServeConfig::builder()
        .gpus(gpus)
        .streams(streams)
        .build_service()
        .unwrap_or_else(|e| panic!("bench pipeline: cannot bring staged fleet up: {e}"));
    for (at_s, template) in schedule {
        match template {
            SubmitTemplate::Single(spec) => {
                let _ = svc.submit(spec.materialize(), *at_s);
            }
            SubmitTemplate::Pipeline(pipe) => {
                for stage in &pipe.stages {
                    let direction = match stage.kind {
                        StageKind::Forward => Direction::Forward,
                        StageKind::Inverse => Direction::Inverse,
                        _ => continue,
                    };
                    let spec = fft_serve::SeededSpec {
                        shape: fft_serve::Shape::Volume {
                            nx: pipe.dims.0,
                            ny: pipe.dims.1,
                            nz: pipe.dims.2,
                        },
                        direction,
                        algorithm: None,
                        priority: pipe.priority,
                        deadline_s: None,
                        tenant: pipe.tenant,
                        seed: pipe.input_seeds[0],
                    };
                    let _ = svc.submit(spec.materialize(), *at_s);
                }
            }
        }
    }
    svc.drain();
    let r = svc.report();
    r.h2d_bytes + r.d2h_bytes
}

/// Runs one pipeline point: the `pipeline` workload mix (whatever `load`
/// names) through the service (DAG admission, residency ledger, WFQ over
/// whole DAGs), then the staged replay of the same schedule for the PCIe
/// comparator.
fn pipeline_point(
    &(_, gpus, streams, requests, rate_rps, seed): &Load,
    check: bool,
) -> (PipelinePoint, Option<CheckReport>) {
    let workload = Workload::pipeline();
    let cfg = ServeConfig::builder()
        .gpus(gpus)
        .streams(streams)
        .check_hazards(check);
    let (svc, _) = drained_run(cfg, &workload, requests, rate_rps, seed);
    let crep = svc.check_report();
    let r = svc.report();
    let piped_bytes = r.h2d_bytes + r.d2h_bytes;
    let schedule = open_loop_templates(&workload, requests, rate_rps, seed);
    let staged_bytes = staged_replay_bytes(&schedule, gpus, streams);
    let fetches = r.resident_hits + r.resident_misses;
    (
        PipelinePoint {
            pipe_workload: "pipeline".to_string(),
            pipe_gpus: gpus,
            pipe_streams: streams,
            pipe_requests: requests,
            pipe_seed: seed,
            pipe_count: r.pipelines,
            pipe_stages: r.pipeline_stages,
            pipe_stages_per_s: if r.makespan_s > 0.0 {
                r.pipeline_stages as f64 / r.makespan_s
            } else {
                0.0
            },
            pipe_resident_hit_frac: if fetches > 0 {
                r.resident_hits as f64 / fetches as f64
            } else {
                0.0
            },
            pipe_evictions: r.resident_evictions,
            pipe_saved_bytes: staged_bytes.saturating_sub(piped_bytes),
        },
        crep,
    )
}

/// Runs one gateway point: boots `fft-gate` on an ephemeral port, replays
/// `load`'s seeded open-loop schedule over `clients` concurrent TCP
/// connections, and pins the wire-fetched report against `local`, the
/// drained in-process run of the same schedule.
///
/// # Panics
/// Panics when the gateway cannot be booted or a connection fails — a
/// network fault on loopback is a broken harness, not a benchmark result.
fn gateway_point(
    &(workload_name, gpus, streams, requests, rate_rps, seed): &Load,
    local: &FftService,
    clients: usize,
) -> GatewayPoint {
    let workload: Workload = workload_name.parse().expect("LOADS names a workload");
    let cfg = GateConfig {
        serve: ServeConfig::builder()
            .gpus(gpus)
            .streams(streams)
            .build()
            .unwrap_or_else(|e| panic!("bench gateway: bad config: {e}")),
        window: 8,
    };
    let (addr, handle) =
        GateServer::spawn("127.0.0.1:0", cfg).unwrap_or_else(|e| panic!("bench gateway: {e}"));
    let addr = addr.to_string();
    let load = run_open_loop_net(&addr, &workload, requests, rate_rps, seed, clients)
        .unwrap_or_else(|e| panic!("bench gateway: load run: {e}"));
    let mut ctl = control(&addr).unwrap_or_else(|e| panic!("bench gateway: control: {e}"));
    ctl.drain()
        .unwrap_or_else(|e| panic!("bench gateway: drain: {e}"));
    let wire_report = ctl
        .report()
        .unwrap_or_else(|e| panic!("bench gateway: report: {e}"));
    ctl.shutdown()
        .unwrap_or_else(|e| panic!("bench gateway: shutdown: {e}"));
    handle.join().expect("gateway thread");

    let local = local.report();
    GatewayPoint {
        gw_workload: workload_name.to_string(),
        gw_gpus: gpus,
        gw_clients: clients,
        gw_requests: requests,
        gw_seed: seed,
        gw_accepted: load.accepted,
        gw_rejected: load.rejected,
        report_match: wire_report == local.to_json(),
        gw_goodput_gbs: local.goodput_gbs,
    }
}

/// One serving-derived load point: `(workload, gpus, streams, requests,
/// rate, seed)`.
type Load = (&'static str, usize, usize, u64, f64, u64);

/// Serving-derived load points. The quick grid runs the first; each serving-derived section adds
/// its own column (8 gateway clients, [`TENANTS`]) or ignores the workload
/// (pipeline always runs the `pipeline` mix).
const LOADS: [Load; 2] = [
    ("mixed", 2, 2, 96, 4000.0, 42),
    ("rows", 4, 2, 192, 8000.0, 42),
];

/// Equal-share tenants of each [`LOADS`] entry's tenancy point.
const TENANTS: [u32; 2] = [3, 4];

/// Runs the whole grid. `quick` restricts to 64³, one scaling point and
/// one serving load (the CI configuration); the full grid covers
/// {64, 128, 256}³, four scaling points and both loads. Returns the
/// artefact, the printable roofline/audit report and, with `check` set,
/// every cell's validation-layer findings merged (`None` otherwise).
/// Checking is purely functional — it does not perturb the modelled
/// timings, so checked and unchecked grids gate identically against a
/// baseline.
pub fn run_grid_checked(quick: bool, check: bool) -> (BenchFile, String, Option<CheckReport>) {
    let sizes: &[usize] = if quick { &[64] } else { &[64, 128, 256] };
    let scaling_grid: &[(usize, usize)] = if quick {
        &[(2, 64)]
    } else {
        &[(2, 64), (4, 64), (2, 128), (4, 128)]
    };
    let loads = if quick { &LOADS[..1] } else { &LOADS[..] };
    let mut file = BenchFile {
        quick,
        ..BenchFile::default()
    };
    let mut report = String::new();
    let mut merged: Option<CheckReport> = None;
    for (key, spec) in cards() {
        for &n in sizes {
            for algo in Algorithm::IN_CORE {
                let run = merge(&mut merged, bench_run_checked(spec, key, algo, n, check));
                report.push_str(&render_run(&spec, &run));
                file.runs.push(run);
            }
        }
    }
    file.scaling = scaling_grid
        .iter()
        .map(|&(gpus, n)| merge(&mut merged, scaling_point(gpus, n, check)))
        .collect();
    for s in &file.scaling {
        report.push_str(&format!(
            "scaling: {} GPUs at {}^3: {:.4} ms wall, {} MB exchanged\n",
            s.gpus,
            s.n,
            s.wall_s * 1e3,
            s.bytes_exchanged / (1024 * 1024)
        ));
    }
    // One drained in-process run per load feeds the serving and
    // attribution sections and the gateway's comparator.
    let runs: Vec<_> = loads.iter().map(|load| served(load, check)).collect();
    file.serving = loads
        .iter()
        .zip(&runs)
        .map(|(load, run)| merge(&mut merged, serving_point(load, run)))
        .collect();
    for s in &file.serving {
        report.push_str(&format!(
            "serving: {} on {} GPUs x{} streams: {:.3} GB/s goodput, p50 {:.3} / p95 {:.3} / p99 {:.3} ms ({:.0} of {:.0} req/s) slo {}\n",
            s.workload, s.serve_gpus, s.streams, s.goodput_gbs, s.p50_ms, s.p95_ms, s.p99_ms,
            s.achieved_rps, s.offered_rps,
            if s.slo_ok { "ok" } else { "VIOLATED" }
        ));
    }
    file.gateway = loads
        .iter()
        .zip(&runs)
        .map(|(load, (svc, _))| gateway_point(load, svc, 8))
        .collect();
    for g in &file.gateway {
        report.push_str(&format!(
            "gateway: {} on {} GPUs over {} TCP clients: {} accepted / {} rejected, {:.3} GB/s goodput, report {}\n",
            g.gw_workload, g.gw_gpus, g.gw_clients, g.gw_accepted, g.gw_rejected,
            g.gw_goodput_gbs,
            if g.report_match { "byte-identical" } else { "DIVERGED" }
        ));
    }
    // Attribution verdicts re-read the serving runs through the ledger.
    file.attribution = loads
        .iter()
        .zip(&runs)
        .map(|(load, (svc, _))| attribution_point(load, svc))
        .collect();
    drop(runs);
    for a in &file.attribution {
        report.push_str(&format!(
            "attribution: {} on {} GPUs: conservation {} (worst err {:.1e} s), e2e mean {:.3} ms, tail driven by {}; shares queue {:.2} / h2d {:.2} / compute {:.2} / d2h {:.2} / other {:.2}\n",
            a.att_workload, a.att_gpus,
            if a.att_conservation_ok { "ok" } else { "UNBALANCED" },
            a.att_worst_err_s, a.att_e2e_ms_mean, a.att_tail_driver,
            a.att_queue_share, a.att_h2d_share, a.att_compute_share,
            a.att_d2h_share, a.att_other_share
        ));
    }
    // Tenancy runs: the serving loads under multi-tenant QoS.
    file.tenancy = loads
        .iter()
        .zip(TENANTS)
        .map(|(load, tenants)| tenancy_point(load, tenants))
        .collect();
    for t in &file.tenancy {
        report.push_str(&format!(
            "tenancy: {} on {} GPUs x{} tenants: fairness {:.3}, {} admitted / {} quota-rejected, {} preemption(s), {:.3} GB/s goodput\n",
            t.ten_workload, t.ten_gpus, t.ten_tenants, t.ten_fairness_index,
            t.ten_admitted, t.ten_quota_rejected, t.ten_preemptions, t.ten_goodput_gbs
        ));
    }
    file.pipeline = loads
        .iter()
        .map(|load| merge(&mut merged, pipeline_point(load, check)))
        .collect();
    for p in &file.pipeline {
        report.push_str(&format!(
            "pipeline: {} on {} GPUs x{} streams: {} DAGs / {} stages ({:.0} stages/s), resident hit {:.2}, {} eviction(s), {:.2} MB PCIe saved vs staged\n",
            p.pipe_workload, p.pipe_gpus, p.pipe_streams, p.pipe_count, p.pipe_stages,
            p.pipe_stages_per_s, p.pipe_resident_hit_frac, p.pipe_evictions,
            p.pipe_saved_bytes as f64 / (1024.0 * 1024.0)
        ));
    }
    (file, report, merged)
}

/// Folds a point's checker findings into `merged` and returns the point.
fn merge<P>(merged: &mut Option<CheckReport>, (point, rep): (P, Option<CheckReport>)) -> P {
    if let Some(rep) = rep {
        merged.get_or_insert_with(CheckReport::default).merge(rep);
    }
    point
}

/// Renders one grid record: header plus the per-kernel roofline table (the
/// lines CI prints into its log).
fn render_run(spec: &DeviceSpec, run: &BenchRun) -> String {
    let mut out = format!(
        "== {} {}^3 on {} ({}): {:.4} ms, {:.1} GFLOPS, {:.1} GB/s, audit {}{}\n",
        run.algorithm,
        run.n,
        run.card,
        spec.name,
        run.wall_s * 1e3,
        run.gflops,
        run.overall_gbs,
        if run.audit_clean { "clean" } else { "MISMATCH" },
        if run.forbidden_steps > 0 {
            format!(" ({} far*far steps)", run.forbidden_steps)
        } else {
            String::new()
        },
    );
    out.push_str(&format!(
        "{:<18} {:>9} {:>7} {:>6} {:>8} {:>6} {:>5} {:>7} {:>7}\n",
        "kernel", "time ms", "GB/s", "bw%", "fl/byte", "bound", "occ%", "expect", "observe"
    ));
    for s in &run.steps {
        out.push_str(&format!(
            "{:<18} {:>9.4} {:>7.1} {:>6.1} {:>8.2} {:>6} {:>5.0} {:>7} {:>7}{}\n",
            s.name,
            s.time_s * 1e3,
            s.gbs,
            s.bw_frac * 100.0,
            s.intensity,
            s.bound,
            s.occupancy * 100.0,
            s.expected,
            s.observed,
            if s.ok { "" } else { "  MISMATCH" },
        ));
    }
    out
}

/// How `--check` treats one field of a section's table.
#[derive(Clone, Copy, Debug)]
enum Role {
    /// Matches a baseline point to its candidate; the point's id prints
    /// the value through this pattern (`{}` stands for the value).
    Id(&'static str),
    /// Recorded for trend reading, never compared.
    Recorded,
    /// Gated by every rule listed; a failure prints the label.
    Gated(&'static [Rule], &'static str),
}

/// A rule a gated field must keep from baseline to candidate.
#[derive(Clone, Copy, Debug)]
enum Rule {
    /// May fall at most the tolerance, relative (throughput, bandwidth).
    RelDrop,
    /// May rise at most the tolerance, relative (time, latency).
    RelRise,
    /// May move at most the tolerance, absolute, either way (time shares,
    /// fairness: a shifted profile is a finding, not an improvement).
    AbsDrift,
    /// May fall at most the tolerance, absolute (fractions).
    AbsDrop,
    /// A baseline at or above [`FAIRNESS_FLOOR`] pins the candidate there.
    Floor,
    /// Must stay equal.
    Exact,
    /// A baseline `true` must stay `true`; the label is the whole verdict.
    StaysTrue,
}

impl Rule {
    /// The failure detail when candidate `c` breaks this rule against
    /// baseline `b` (both as rendered), `None` while the rule holds.
    fn breach(self, b: &str, c: &str, tol: f64) -> Option<String> {
        // Strings and bools read as NaN, so a numeric rule on one never
        // fails; the table-wide test rejects such an entry.
        let num = |v: &str| v.parse::<f64>().unwrap_or(f64::NAN);
        let (x, y) = (num(b), num(c));
        let broken = match self {
            Rule::RelDrop => y < x * (1.0 - tol),
            Rule::RelRise => y > x * (1.0 + tol),
            Rule::AbsDrift => (y - x).abs() > tol,
            Rule::AbsDrop => y < x - tol,
            Rule::Floor => x >= FAIRNESS_FLOOR && y < FAIRNESS_FLOOR,
            Rule::Exact => b != c,
            Rule::StaysTrue => b == "true" && c != "true",
        };
        broken.then(|| match self {
            Rule::RelDrop | Rule::RelRise => {
                format!(" regressed {b} -> {c} ({:+.1}%)", (y / x - 1.0) * 100.0)
            }
            Rule::AbsDrift => format!(" shifted {x:.3} -> {y:.3} ({:+.3})", y - x),
            Rule::AbsDrop => format!(" fell {x:.3} -> {y:.3} ({:+.3})", y - x),
            Rule::Floor => format!(" {y:.3} fell below the {FAIRNESS_FLOOR} floor"),
            Rule::Exact => format!(
                " moved from {} to {}",
                b.trim_matches('"'),
                c.trim_matches('"')
            ),
            Rule::StaysTrue => String::new(),
        })
    }
}

/// A point field's type, one of the four value kinds: rendered to JSON text
/// and read back from a parsed [`Value`].
trait Scalar: Sized {
    fn render(&self) -> String;
    /// `None` when the value is of another kind.
    fn read(v: &Value) -> Option<Self>;
}

impl Scalar for String {
    fn render(&self) -> String {
        format!("\"{self}\"")
    }
    fn read(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

macro_rules! scalar {
    ($($t:ty => $read:expr),*) => {$(
        impl Scalar for $t {
            fn render(&self) -> String {
                self.to_string()
            }
            fn read(v: &Value) -> Option<Self> {
                $read(v)
            }
        }
    )*};
}
scalar!(bool => Value::as_bool, f64 => Value::as_f64, u32 => int, u64 => int, usize => int);

/// An integer field: exact `u64` bits in range of the field's type.
fn int<T: TryFrom<u64>>(v: &Value) -> Option<T> {
    match *v {
        Value::Int(i) => i.try_into().ok(),
        _ => None,
    }
}

/// One entry of a section's field table.
struct Field<T> {
    key: &'static str,
    role: Role,
    get: fn(&T) -> String,
    /// Stores the value; `false` when it is of another kind.
    set: fn(&mut T, &Value) -> bool,
}

/// A section: the array `key` of points `T` in an owner `O` (the document,
/// or a run for its steps), their field table in render order, and the
/// nested section each point carries, if any.
struct Table<O: 'static, T: 'static> {
    key: &'static str,
    rows: fn(&O) -> &Vec<T>,
    rows_mut: fn(&mut O) -> &mut Vec<T>,
    child: Option<&'static dyn Section<T>>,
    fields: &'static [Field<T>],
}

/// Declares a [`Table`] whose array key is the owner's field `key` and
/// whose JSON keys are the point struct's field names.
macro_rules! table {
    ($key:ident, $child:expr, { $($name:ident: $role:expr,)* }) => {
        Table {
            key: stringify!($key),
            rows: |o| &o.$key,
            rows_mut: |o| &mut o.$key,
            child: $child,
            fields: &[$(Field {
                key: stringify!($name),
                role: $role,
                get: |p| p.$name.render(),
                set: |p, v| Scalar::read(v).map(|x| p.$name = x).is_some(),
            }),*],
        }
    };
}

/// What [`to_json`], [`parse_bench`] and [`check`] need of a section,
/// whatever its point type.
trait Section<O> {
    /// Appends `"key": [...]`, one point a line, indented `indent + 2`.
    fn render(&self, owner: &O, out: &mut String, indent: usize);
    /// Reads the array `key` of the owner's object `doc` into `owner`.
    fn parse(&self, doc: &Value, owner: &mut O) -> Result<(), String>;
    /// Appends a failure for every baseline point the candidate lacks and
    /// every rule a gated field breaks.
    fn check(&self, base: &O, cand: &O, parent: &str, tol: f64, failures: &mut Vec<String>);
}

impl<O, T> Table<O, T> {
    /// The point's id: the section key and its identity values, after the
    /// parent point's id in a nested section.
    fn id(&self, row: &T, parent: &str) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .filter_map(|f| match f.role {
                Role::Id(pattern) => {
                    Some(pattern.replacen("{}", (f.get)(row).trim_matches('"'), 1))
                }
                _ => None,
            })
            .collect();
        let sep = if parent.is_empty() { "" } else { ": " };
        format!("{parent}{sep}{} {}", self.key, parts.join("/"))
    }
}

impl<O, T: Default> Section<O> for Table<O, T> {
    fn render(&self, owner: &O, out: &mut String, indent: usize) {
        let rows = (self.rows)(owner);
        let _ = writeln!(out, "\"{}\": [", self.key);
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(out, "{:w$}{{", "", w = indent + 2);
            for (j, f) in self.fields.iter().enumerate() {
                let sep = if j > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}\"{}\": {}", f.key, (f.get)(row));
            }
            if let Some(child) = self.child {
                out.push_str(", ");
                child.render(row, out, indent + 2);
            }
            out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
        }
        let _ = write!(out, "{:indent$}]", "");
    }

    fn parse(&self, doc: &Value, owner: &mut O) -> Result<(), String> {
        for point in need_arr(doc, self.key)? {
            let mut row = T::default();
            for f in self.fields {
                let v = need(point, f.key).map_err(|e| format!("{}: {e}", self.key))?;
                if !(f.set)(&mut row, v) {
                    return Err(format!("{}: bad {} '{}'", self.key, f.key, v.encode()));
                }
            }
            if let Some(child) = self.child {
                child.parse(point, &mut row)?;
            }
            (self.rows_mut)(owner).push(row);
        }
        Ok(())
    }

    fn check(&self, base: &O, cand: &O, parent: &str, tol: f64, failures: &mut Vec<String>) {
        let ids = || self.fields.iter().filter(|f| matches!(f.role, Role::Id(_)));
        // A section without identity fields is recorded only.
        if ids().next().is_none() {
            return;
        }
        for b in (self.rows)(base) {
            let id = self.id(b, parent);
            let Some(c) = (self.rows)(cand)
                .iter()
                .find(|c| ids().all(|f| (f.get)(c) == (f.get)(b)))
            else {
                failures.push(format!("{id}: missing from candidate run"));
                continue;
            };
            for f in self.fields {
                if let Role::Gated(rules, label) = f.role {
                    let (bv, cv) = ((f.get)(b), (f.get)(c));
                    let details = rules.iter().filter_map(|r| r.breach(&bv, &cv, tol));
                    failures.extend(details.map(|d| format!("{id}: {label}{d}")));
                }
            }
            if let Some(child) = self.child {
                child.check(b, c, &id, tol, failures);
            }
        }
    }
}

use Role::{Gated, Id, Recorded};
use Rule::{AbsDrift, AbsDrop, Exact, Floor, RelDrop, RelRise, StaysTrue};

const STEPS: Table<BenchRun, BenchStep> = table!(steps, None, {
    name: Id("{}"),
    time_s: Recorded,
    gbs: Gated(&[RelDrop], "gbs"),
    bw_frac: Recorded,
    intensity: Recorded,
    bound: Recorded,
    occupancy: Recorded,
    expected: Recorded,
    observed: Recorded,
    ok: Recorded,
});

const RUNS: Table<BenchFile, BenchRun> = table!(runs, Some(&STEPS), {
    card: Id("{}"),
    algorithm: Id("{}"),
    n: Id("{}^3"),
    wall_s: Gated(&[RelRise], "wall_s"),
    gflops: Recorded,
    overall_gbs: Gated(&[RelDrop], "overall_gbs"),
    audit_clean: Gated(&[StaysTrue], "pattern audit went from clean to MISMATCH"),
    forbidden_steps: Recorded,
});

// Scaling points derive from the kernel metrics the runs already gate.
const SCALING: Table<BenchFile, ScalingPoint> = table!(scaling, None, {
    gpus: Recorded,
    n: Recorded,
    wall_s: Recorded,
    bytes_exchanged: Recorded,
});

const SERVING: Table<BenchFile, ServingPoint> = table!(serving, None, {
    workload: Id("{}"),
    serve_gpus: Id("{}gpu"),
    streams: Id("{}streams"),
    requests: Id("{}req"),
    seed: Id("seed{}"),
    offered_rps: Recorded,
    achieved_rps: Recorded,
    goodput_gbs: Gated(&[RelDrop], "goodput"),
    p50_ms: Recorded,
    p95_ms: Recorded,
    p99_ms: Recorded,
    slo_ok: Gated(&[StaysTrue], "SLO verdict went from ok to VIOLATED"),
});

const GATEWAY: Table<BenchFile, GatewayPoint> = table!(gateway, None, {
    gw_workload: Id("{}"),
    gw_gpus: Id("{}gpu"),
    gw_clients: Id("{}clients"),
    gw_requests: Id("{}req"),
    gw_seed: Id("seed{}"),
    gw_accepted: Recorded,
    gw_rejected: Recorded,
    report_match: Gated(&[StaysTrue], "wire report DIVERGED from the in-process run (same seed)"),
    gw_goodput_gbs: Gated(&[RelDrop], "goodput"),
});

const ATTRIBUTION: Table<BenchFile, AttributionPoint> = table!(attribution, None, {
    att_workload: Id("{}"),
    att_gpus: Id("{}gpu"),
    att_requests: Id("{}req"),
    att_seed: Id("seed{}"),
    att_conservation_ok: Gated(&[StaysTrue], "time ledger went from conserving to UNBALANCED"),
    att_worst_err_s: Recorded,
    att_queue_share: Gated(&[AbsDrift], "queue share"),
    att_h2d_share: Gated(&[AbsDrift], "h2d share"),
    att_compute_share: Gated(&[AbsDrift], "compute share"),
    att_d2h_share: Gated(&[AbsDrift], "d2h share"),
    att_other_share: Gated(&[AbsDrift], "other share"),
    att_e2e_ms_mean: Gated(&[RelRise], "mean e2e latency"),
    att_tail_driver: Gated(&[Exact], "p95 tail driver"),
});

const TENANCY: Table<BenchFile, TenancyPoint> = table!(tenancy, None, {
    ten_workload: Id("{}"),
    ten_gpus: Id("{}gpu"),
    ten_tenants: Id("{}tenants"),
    ten_requests: Id("{}req"),
    ten_seed: Id("seed{}"),
    ten_admitted: Recorded,
    ten_quota_rejected: Recorded,
    ten_preemptions: Recorded,
    ten_fairness_index: Gated(&[AbsDrift, Floor], "fairness index"),
    ten_goodput_gbs: Gated(&[RelDrop], "goodput"),
});

const PIPELINE: Table<BenchFile, PipelinePoint> = table!(pipeline, None, {
    pipe_workload: Id("{}"),
    pipe_gpus: Id("{}gpu"),
    pipe_streams: Id("{}streams"),
    pipe_requests: Id("{}req"),
    pipe_seed: Id("seed{}"),
    pipe_count: Recorded,
    pipe_stages: Recorded,
    pipe_stages_per_s: Gated(&[RelDrop], "stage throughput"),
    pipe_resident_hit_frac: Gated(&[AbsDrop], "resident-hit fraction"),
    pipe_evictions: Recorded,
    pipe_saved_bytes: Gated(&[RelDrop], "PCIe bytes saved vs staged replay"),
});

/// The document's sections in render order.
const SECTIONS: [&dyn Section<BenchFile>; 7] = [
    &RUNS,
    &SCALING,
    &SERVING,
    &GATEWAY,
    &ATTRIBUTION,
    &TENANCY,
    &PIPELINE,
];

/// Serialises a bench artefact to the schema-versioned JSON format.
pub fn to_json(file: &BenchFile) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"quick\": {}",
        file.quick
    );
    for section in SECTIONS {
        out.push_str(",\n  ");
        section.render(file, &mut out, 2);
    }
    out.push_str("\n}\n");
    out
}

/// Reads a bench JSON file back into a [`BenchFile`]: parses it with the
/// workspace JSON codec, then walks the section tables over the parsed
/// document.
///
/// # Errors
/// Returns a description of the first syntax error, missing or mistyped
/// field, including a schema-version mismatch.
pub fn parse_bench(text: &str) -> Result<BenchFile, String> {
    let doc = json::parse(text)?;
    let schema = need_str(&doc, "schema")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema '{schema}' is not '{BENCH_SCHEMA}'"));
    }
    let mut file = BenchFile {
        quick: need_bool(&doc, "quick")?,
        ..BenchFile::default()
    };
    for section in SECTIONS {
        section.parse(&doc, &mut file)?;
    }
    Ok(file)
}

/// Compares a fresh grid against a baseline. Returns the list of regression
/// descriptions — empty means the gate passes. Every baseline point must
/// have a candidate with the same identity fields, and every gated field
/// must keep its rules; improvements never fail except where a rule gates
/// drift in either direction.
pub fn check(baseline: &BenchFile, candidate: &BenchFile, tol: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for section in SECTIONS {
        section.check(baseline, candidate, "", tol, &mut failures);
    }
    failures
}

/// CLI entry point shared by the `bench` binaries; returns the process exit
/// code (0 ok, 1 regression or runtime failure, 2 usage error).
///
/// ```text
/// bench [--quick] [--out PATH]            # run grid, write BENCH_<ts>.json
/// bench [--quick] --check BASELINE.json   # run grid, gate against baseline
/// bench --quick --check-hazards           # run grid under the checker
/// ```
///
/// `--check-hazards` runs every cell and scaling point under the
/// cuda-memcheck/racecheck-style validation layer and fails (exit 1) on
/// any diagnostic. It composes with `--check`: the timings are unaffected.
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut check_hazards = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check-hazards" => check_hazards = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("bench: --out needs PATH");
                    return 2;
                }
            },
            "--check" => match it.next() {
                Some(p) => check_path = Some(p.clone()),
                None => {
                    eprintln!("bench: --check needs BASELINE.json");
                    return 2;
                }
            },
            other => {
                eprintln!("bench: unknown argument {other}");
                eprintln!(
                    "usage: bench [--quick] [--out PATH] [--check BASELINE.json] [--check-hazards]"
                );
                return 2;
            }
        }
    }

    let (file, report, hazards) = run_grid_checked(quick, check_hazards);
    print!("{report}");

    if check_hazards {
        match hazards {
            Some(rep) if rep.clean() => eprintln!(
                "bench: check-hazards: clean ({} kernels, {} ops tracked)",
                rep.kernels_checked, rep.ops_tracked
            ),
            Some(rep) => {
                eprintln!("{rep}");
                eprintln!(
                    "bench: check-hazards: {} diagnostic(s)",
                    rep.access.len() + rep.hazards.len()
                );
                return 1;
            }
            None => {
                eprintln!("bench: check-hazards: no report collected");
                return 1;
            }
        }
    }

    if let Some(path) = &check_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench: cannot read baseline {path}: {e}");
                return 1;
            }
        };
        let baseline = match parse_bench(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench: baseline {path}: {e}");
                return 1;
            }
        };
        let failures = check(&baseline, &file, CHECK_TOLERANCE);
        if let Some(p) = &out_path {
            if let Err(e) = std::fs::write(p, to_json(&file)) {
                eprintln!("bench: write {p}: {e}");
                return 1;
            }
            println!("wrote {p}");
        }
        if failures.is_empty() {
            println!(
                "check ok: {} runs within {:.0}% of {path}",
                file.runs.len(),
                CHECK_TOLERANCE * 100.0
            );
            0
        } else {
            eprintln!("check FAILED against {path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            1
        }
    } else {
        let path = out_path.unwrap_or_else(|| {
            let ts = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            format!("BENCH_{ts}.json")
        });
        if let Err(e) = std::fs::write(&path, to_json(&file)) {
            eprintln!("bench: write {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 64³ is the smallest volume whose audit is clean: below that the FFT
    // rows are shorter than a DRAM row, so even contiguous stores cannot
    // reach the row-density floor and step5's X*X demotes to D*D.
    fn tiny_file() -> BenchFile {
        let grid_run =
            bench_run_checked(DeviceSpec::gts8800(), "gts", Algorithm::FiveStep, 64, false).0;
        let load = ("rows", 2, 1, 24, 4000.0, 5);
        let run = served(&load, false);
        BenchFile {
            quick: true,
            runs: vec![grid_run],
            scaling: vec![scaling_point(2, 16, false).0],
            serving: vec![serving_point(&load, &run).0],
            gateway: vec![gateway_point(&load, &run.0, 3)],
            attribution: vec![attribution_point(&load, &run.0)],
            tenancy: vec![tenancy_point(&load, 2)],
            pipeline: vec![pipeline_point(&load, false).0],
        }
    }

    #[test]
    fn json_roundtrips_through_the_scanner() {
        let file = tiny_file();
        let parsed = parse_bench(&to_json(&file)).unwrap();
        assert_eq!(parsed, file, "exact f64 + field roundtrip");
        assert_eq!(parsed.runs[0].steps.len(), 5);
        assert_eq!(parsed.runs[0].steps[0].expected, "D*A");
        assert!(parsed.runs[0].audit_clean);
        assert_eq!(parsed.scaling[0].gpus, 2);
        assert_eq!(parsed.serving[0].workload, "rows");
        assert!(parsed.serving[0].goodput_gbs > 0.0);
        assert!(parsed.serving[0].slo_ok, "the tiny run meets its SLOs");
        assert_eq!(parsed.gateway[0].gw_clients, 3);
        assert!(
            parsed.gateway[0].report_match,
            "the wire replay must match the in-process run"
        );
        assert_eq!(
            parsed.gateway[0].gw_accepted + parsed.gateway[0].gw_rejected,
            parsed.gateway[0].gw_requests
        );
        let a = &parsed.attribution[0];
        assert!(a.att_conservation_ok, "tiny run's ledger must balance");
        assert!(a.att_worst_err_s.abs() < 1e-9);
        let total = a.att_queue_share
            + a.att_h2d_share
            + a.att_compute_share
            + a.att_d2h_share
            + a.att_other_share;
        assert!(
            (total - 1.0).abs() < 1e-9,
            "shares partition all time: {total}"
        );
        assert!(a.att_e2e_ms_mean > 0.0);
        assert!(!a.att_tail_driver.is_empty());
        let t = &parsed.tenancy[0];
        assert_eq!(t.ten_tenants, 2);
        assert_eq!(
            t.ten_admitted + t.ten_quota_rejected,
            t.ten_requests,
            "every offered request is admitted or quota-bounced in the tiny run"
        );
        assert!(t.ten_fairness_index > 0.0 && t.ten_fairness_index <= 1.0);
        assert!(t.ten_goodput_gbs > 0.0);
        let p = &parsed.pipeline[0];
        assert_eq!(p.pipe_workload, "pipeline");
        assert!(p.pipe_count > 0, "the mix draws DAGs at 35%");
        assert!(p.pipe_stages >= p.pipe_count * 4, "every DAG has 4+ stages");
        assert!(p.pipe_stages_per_s > 0.0);
        assert!(
            p.pipe_resident_hit_frac > 0.0 && p.pipe_resident_hit_frac <= 1.0,
            "intermediates stayed on the card: {}",
            p.pipe_resident_hit_frac
        );
        assert!(
            p.pipe_saved_bytes > 0,
            "DAG execution moves strictly fewer PCIe bytes than the staged replay"
        );
    }

    #[test]
    fn committed_baseline_rerenders_byte_for_byte() {
        // Pins the on-disk format: parsing the committed baseline and
        // rendering it again reproduces the file exactly.
        let text = include_str!("../baselines/bench-quick.json");
        let file = parse_bench(text).unwrap();
        assert_eq!(file.runs.len(), 9);
        assert_eq!(file.runs.iter().map(|r| r.steps.len()).sum::<usize>(), 48);
        assert_eq!(to_json(&file), text);
    }

    #[test]
    fn malformed_bool_is_a_parse_error() {
        let text = include_str!("../baselines/bench-quick.json");
        for key in [
            "audit_clean",
            "ok",
            "slo_ok",
            "report_match",
            "att_conservation_ok",
        ] {
            let needle = format!("\"{key}\": true");
            assert!(text.contains(&needle), "{key}");
            let bad = text.replacen(&needle, &format!("\"{key}\": ture"), 1);
            let err = parse_bench(&bad).unwrap_err();
            assert!(err.contains(key) && err.contains("ture"), "{err}");
        }
    }

    /// `(baseline, candidate, breaks)` probes of a rule at
    /// [`CHECK_TOLERANCE`]: values just past the threshold in the bad
    /// direction break it; values inside tolerance or in the good direction
    /// do not.
    fn probes(rule: Rule) -> &'static [(&'static str, &'static str, bool)] {
        match rule {
            RelDrop => &[
                ("1000", "979", true),
                ("1000", "981", false),
                ("1000", "1500", false),
            ],
            RelRise => &[
                ("1000", "1021", true),
                ("1000", "1019", false),
                ("1000", "500", false),
            ],
            AbsDrift => &[
                ("0.5", "0.521", true),
                ("0.5", "0.479", true),
                ("0.5", "0.519", false),
                ("0.5", "0.481", false),
            ],
            AbsDrop => &[
                ("0.5", "0.479", true),
                ("0.5", "0.481", false),
                ("0.5", "0.9", false),
            ],
            // Both sides of the floor stay within the drift tolerance.
            Floor => &[
                ("0.955", "0.945", true),
                ("0.955", "0.951", false),
                ("0.9", "0.89", false),
            ],
            Exact => &[("1", "2", true), ("1", "1", false)],
            StaysTrue => &[
                ("true", "false", true),
                ("true", "true", false),
                ("false", "true", false),
                ("false", "false", false),
            ],
        }
    }

    /// Probes every rule of every gated entry of `table` on one default
    /// point; returns how many probes ran.
    fn probe_table<O: Default, T: Default>(table: &Table<O, T>) -> usize {
        let mut probed = 0;
        for f in table.fields {
            let Role::Gated(rules, label) = f.role else {
                continue;
            };
            let quoted = (f.get)(&T::default()).starts_with('"');
            for &rule in rules {
                for &(b, c, breaks) in probes(rule) {
                    let owner = |raw: &str| {
                        let mut row = T::default();
                        let raw = if quoted {
                            format!("\"{raw}\"")
                        } else {
                            raw.to_string()
                        };
                        let v = json::parse(&raw).unwrap();
                        assert!((f.set)(&mut row, &v), "{}: {raw}", f.key);
                        let mut owner = O::default();
                        (table.rows_mut)(&mut owner).push(row);
                        owner
                    };
                    let mut failures = Vec::new();
                    table.check(&owner(b), &owner(c), "", CHECK_TOLERANCE, &mut failures);
                    let what = format!("{} {rule:?} {b} -> {c}: {failures:?}", f.key);
                    if breaks {
                        let id = table.id(&T::default(), "");
                        assert_eq!(failures.len(), 1, "{what}");
                        assert!(failures[0].starts_with(&format!("{id}: ")), "{what}");
                        assert!(failures[0].contains(label), "{what}");
                    } else {
                        assert!(failures.is_empty(), "{what}");
                    }
                    probed += 1;
                }
            }
        }
        probed
    }

    #[test]
    fn every_gated_entry_trips_exactly_past_its_threshold() {
        let probed = [
            probe_table(&RUNS),
            probe_table(&STEPS),
            probe_table(&SERVING),
            probe_table(&GATEWAY),
            probe_table(&ATTRIBUTION),
            probe_table(&TENANCY),
            probe_table(&PIPELINE),
        ];
        assert!(probed.iter().all(|&n| n > 0), "{probed:?}");
        // Scaling points are recorded only.
        assert_eq!(probe_table(&SCALING), 0);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let good = to_json(&tiny_file());
        let text = good.replace(BENCH_SCHEMA, "bifft-bench-v0");
        let err = parse_bench(&text).unwrap_err();
        assert!(err.contains("bifft-bench-v0"), "{err}");
        // Trailing garbage and mistyped values are no bench document either.
        let err = parse_bench(&format!("{good}}}}} not json [[[\n")).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        let err = parse_bench(&good.replacen("\"gpus\": 2", "\"gpus\": \"2\"", 1)).unwrap_err();
        assert_eq!(err, "scaling: bad gpus '\"2\"'");
        let err = parse_bench(&good.replacen("\"n\": 64", "\"n\": 64.5", 1)).unwrap_err();
        assert_eq!(err, "runs: bad n '64.5'");
    }

    #[test]
    fn extreme_doubles_round_trip_bit_exactly() {
        // `Display` spells 1e-70 and subnormals out in full (no exponent).
        let mut file = BenchFile::default();
        file.scaling.push(ScalingPoint {
            wall_s: 1e-70,
            ..ScalingPoint::default()
        });
        file.attribution.push(AttributionPoint {
            att_worst_err_s: -5e-324,
            att_e2e_ms_mean: f64::MAX,
            ..AttributionPoint::default()
        });
        let back = parse_bench(&to_json(&file)).unwrap();
        assert_eq!(back.scaling[0].wall_s.to_bits(), 1e-70f64.to_bits());
        let a = &back.attribution[0];
        assert_eq!(a.att_worst_err_s.to_bits(), (-5e-324f64).to_bits());
        assert_eq!(a.att_e2e_ms_mean, f64::MAX);
    }

    #[test]
    fn check_passes_identity_and_catches_inflated_baseline() {
        let file = tiny_file();
        assert!(check(&file, &file, CHECK_TOLERANCE).is_empty());

        // Inflate one step's bandwidth 10% in the baseline: the candidate
        // now reads as a regression and the diff names the step.
        let mut inflated = file.clone();
        inflated.runs[0].steps[2].gbs *= 1.10;
        let failures = check(&inflated, &file, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains(&file.runs[0].steps[2].name),
            "{failures:?}"
        );
        assert!(failures[0].contains("regressed"), "{failures:?}");

        // Inflating the overall figure trips its own check.
        let mut inflated = file.clone();
        inflated.runs[0].overall_gbs *= 1.10;
        let failures = check(&inflated, &file, CHECK_TOLERANCE);
        assert!(
            failures.iter().any(|f| f.contains("overall_gbs")),
            "{failures:?}"
        );

        // A record missing from the candidate fails loudly.
        let empty = BenchFile {
            quick: true,
            runs: vec![],
            scaling: vec![],
            serving: vec![],
            gateway: vec![],
            attribution: vec![],
            tenancy: vec![],
            pipeline: vec![],
        };
        let failures = check(&file, &empty, CHECK_TOLERANCE);
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn gateway_divergence_and_goodput_regression_fail_the_gate() {
        let file = tiny_file();
        assert!(file.gateway[0].report_match, "baseline replay matches");
        // A diverged wire report is an instant failure.
        let mut diverged = file.clone();
        diverged.gateway[0].report_match = false;
        let failures = check(&file, &diverged, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("DIVERGED"), "{failures:?}");
        // A baseline that never matched does not gate the candidate.
        assert!(check(&diverged, &diverged, CHECK_TOLERANCE).is_empty());
        // Gateway goodput regressions gate like serving ones.
        let mut inflated = file.clone();
        inflated.gateway[0].gw_goodput_gbs *= 1.10;
        let failures = check(&inflated, &file, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("gateway rows"), "{failures:?}");
    }

    #[test]
    fn serving_goodput_regression_fails_the_gate() {
        let file = tiny_file();
        // Inflate the baseline's goodput 10%: the candidate reads as a
        // serving regression and the diff names the serving point.
        let mut inflated = file.clone();
        inflated.serving[0].goodput_gbs *= 1.10;
        let failures = check(&inflated, &file, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("serving rows"), "{failures:?}");
        assert!(failures[0].contains("goodput regressed"), "{failures:?}");
        // Within tolerance passes.
        let mut nudged = file.clone();
        nudged.serving[0].goodput_gbs *= 1.01;
        assert!(check(&nudged, &file, CHECK_TOLERANCE).is_empty());
    }

    #[test]
    fn tenancy_fairness_drift_and_floor_fail_the_gate() {
        let file = tiny_file();
        assert!(check(&file, &file, CHECK_TOLERANCE).is_empty());

        // Drift beyond tolerance fails in either direction.
        let mut shifted = file.clone();
        shifted.tenancy[0].ten_fairness_index =
            (file.tenancy[0].ten_fairness_index - 2.0 * CHECK_TOLERANCE).max(0.0);
        let failures = check(&file, &shifted, CHECK_TOLERANCE);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("fairness index shifted")),
            "{failures:?}"
        );

        // A baseline at the floor pins the candidate to stay there, even
        // when the drift itself is inside tolerance.
        let mut base = file.clone();
        base.tenancy[0].ten_fairness_index = FAIRNESS_FLOOR + 0.005;
        let mut cand = file.clone();
        cand.tenancy[0].ten_fairness_index = FAIRNESS_FLOOR - 0.005;
        let failures = check(&base, &cand, CHECK_TOLERANCE);
        assert!(
            failures.iter().any(|f| f.contains("below the 0.95 floor")),
            "{failures:?}"
        );

        // Tenancy goodput regressions gate like serving ones.
        let mut inflated = file.clone();
        inflated.tenancy[0].ten_goodput_gbs *= 1.10;
        let failures = check(&inflated, &file, CHECK_TOLERANCE);
        assert!(
            failures.iter().any(|f| f.contains("tenancy rows")),
            "{failures:?}"
        );
    }

    #[test]
    fn pipeline_regressions_fail_the_gate() {
        let file = tiny_file();
        assert!(check(&file, &file, CHECK_TOLERANCE).is_empty());

        // Inflated baseline stage throughput reads as a candidate
        // regression and the diff names the pipeline point.
        let mut inflated = file.clone();
        inflated.pipeline[0].pipe_stages_per_s *= 1.10;
        let failures = check(&inflated, &file, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("pipeline pipeline"), "{failures:?}");
        assert!(
            failures[0].contains("stage throughput regressed"),
            "{failures:?}"
        );

        // A resident-hit fraction falling beyond tolerance is a residency
        // regression even while throughput holds.
        let mut cold = file.clone();
        cold.pipeline[0].pipe_resident_hit_frac =
            (file.pipeline[0].pipe_resident_hit_frac - 2.0 * CHECK_TOLERANCE).max(0.0);
        let failures = check(&file, &cold, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("resident-hit fraction fell"),
            "{failures:?}"
        );

        // Shrinking the PCIe savings trips its own check.
        let mut leaky = file.clone();
        leaky.pipeline[0].pipe_saved_bytes =
            (file.pipeline[0].pipe_saved_bytes as f64 * 0.5) as u64;
        let failures = check(&file, &leaky, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("PCIe bytes saved"), "{failures:?}");

        // A pipeline point missing from the candidate fails loudly.
        let mut gone = file.clone();
        gone.pipeline.clear();
        let failures = check(&file, &gone, CHECK_TOLERANCE);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("pipeline") && f.contains("missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn slo_violation_fails_the_gate() {
        let file = tiny_file();
        assert!(file.serving[0].slo_ok, "baseline meets its SLOs");
        let mut violated = file.clone();
        violated.serving[0].slo_ok = false;
        let failures = check(&file, &violated, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("SLO verdict"), "{failures:?}");
        // A baseline that already violated does not gate the candidate.
        assert!(check(&violated, &violated, CHECK_TOLERANCE).is_empty());
    }

    #[test]
    fn attribution_regressions_fail_the_gate() {
        let file = tiny_file();
        assert!(check(&file, &file, CHECK_TOLERANCE).is_empty());

        // Losing conservation is an instant failure.
        let mut unbalanced = file.clone();
        unbalanced.attribution[0].att_conservation_ok = false;
        unbalanced.attribution[0].att_worst_err_s = 3.2e-6;
        let failures = check(&file, &unbalanced, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("UNBALANCED"), "{failures:?}");
        // A baseline that never conserved does not gate the candidate.
        assert!(check(&unbalanced, &unbalanced, CHECK_TOLERANCE).is_empty());

        // A share drifting beyond tolerance fails in either direction.
        let mut shifted = file.clone();
        shifted.attribution[0].att_queue_share += 2.0 * CHECK_TOLERANCE;
        shifted.attribution[0].att_compute_share -= 2.0 * CHECK_TOLERANCE;
        let failures = check(&file, &shifted, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("queue share shifted"), "{failures:?}");
        assert!(
            failures[1].contains("compute share shifted"),
            "{failures:?}"
        );

        // A moved tail driver fails even with identical numbers.
        let mut moved = file.clone();
        moved.attribution[0].att_tail_driver = "h2d".to_string();
        let failures = check(&file, &moved, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("tail driver moved"), "{failures:?}");

        // Mean e2e regressions gate like the latency metrics do.
        let mut slower = file.clone();
        slower.attribution[0].att_e2e_ms_mean *= 1.10;
        let failures = check(&file, &slower, CHECK_TOLERANCE);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("e2e latency regressed"),
            "{failures:?}"
        );
    }

    #[test]
    fn audit_mismatch_fails_the_gate() {
        let file = tiny_file();
        let mut broken = file.clone();
        broken.runs[0].audit_clean = false;
        let failures = check(&file, &broken, CHECK_TOLERANCE);
        assert!(failures.iter().any(|f| f.contains("audit")), "{failures:?}");
    }
}
