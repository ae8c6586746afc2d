//! Serve-side observability: request-lifecycle tracing, a windowed metrics
//! registry, SLO monitoring and the exporters over all three.
//!
//! Everything here rides the service's deterministic virtual clock — the
//! telemetry layer *observes* the discrete-event simulation without ever
//! perturbing it (no stage records or tick samples change a dispatch
//! decision or a timestamp), so a telemetry-enabled run is bit-identical
//! to a blind one and two same-seed runs export bit-identical documents.
//!
//! - `books` — the one event fold: the service emits one event per
//!   transition and the fold writes every surface below from it, plus the
//!   completion records, tenant statistics and report tallies;
//! - [`lifecycle`] — per-request stage waterfalls (`submitted → admitted →
//!   batched → dispatched → h2d → compute → d2h → completed`), written by
//!   the fold and cross-linked to the sim-prof span of the dispatch;
//! - [`registry`] — dependency-free counters, gauges and fixed-bound
//!   histograms with deterministic (BTreeMap) iteration order;
//! - [`timeline`] — the registry sampled on a fixed virtual-time tick into
//!   a windowed time series;
//! - [`slo`] — latency/error/goodput objectives with long- and
//!   short-window burn rates and a machine-readable verdict;
//! - [`export`] — the `bifft-metrics-v1` JSON document, Prometheus text
//!   exposition (plus its parser, for round-trip tests) and the merged
//!   Chrome trace (per-card kernel tracks + per-request waterfall tracks);
//! - [`attribution`] — the per-request time ledger: e2e latency decomposed
//!   into exclusive, exhaustive categories with a conservation invariant,
//!   aggregated into shape/algorithm/priority/card profiles and the
//!   `bifft-attr-v3` document `fft-prof` analyzes.

pub mod attribution;
pub(crate) mod books;
pub mod export;
pub mod lifecycle;
pub mod registry;
pub mod slo;
pub mod timeline;

pub use attribution::{
    audit, collect, parse_attr_json, render_attr_json, AttrSummary, Audit, BudgetLine, Category,
    Ledger, ATTR_SCHEMA, CATEGORIES, CONSERVATION_TOLERANCE_S,
};
pub use export::{
    chrome_trace, metrics_json, parse_prometheus, prometheus_text, validate_metrics,
    validate_metrics_json, METRICS_SCHEMA,
};
pub use lifecycle::{LifecycleLog, Stage, Waterfall};
pub use registry::{Histogram, MetricsRegistry};
pub use slo::{SloPolicy, SloReport, SloVerdict};
pub use timeline::{Sample, Timeline};

/// Canonical metric names, shared by the event fold (which increments them),
/// the SLO monitor (which reads them) and the exporters (which render
/// them). Counters end in `_total` per Prometheus convention.
pub mod names {
    /// Requests submitted (admitted + rejected).
    pub const SUBMITTED: &str = "serve_submitted_total";
    /// Requests admitted into the queue.
    pub const ADMITTED: &str = "serve_admitted_total";
    /// Requests completed.
    pub const COMPLETED: &str = "serve_completed_total";
    /// Admitted requests that failed at dispatch.
    pub const FAILED: &str = "serve_failed_total";
    /// Completions past their deadline.
    pub const TIMEOUTS: &str = "serve_timeouts_total";
    /// Rejections: the bounded queue was full (backpressure).
    pub const REJECTED_QUEUE_FULL: &str = "serve_rejected_queue_full_total";
    /// Rejections: the deadline was infeasible at admission (shedding).
    pub const REJECTED_DEADLINE: &str = "serve_rejected_deadline_total";
    /// Rejections: malformed shape or payload.
    pub const REJECTED_UNSUPPORTED: &str = "serve_rejected_unsupported_total";
    /// Rejections: a rows payload larger than a lane's staging slot.
    pub const REJECTED_OVERSIZED: &str = "serve_rejected_oversized_total";
    /// Rejections: a volume not even the whole fleet could allocate.
    pub const REJECTED_UNALLOCATABLE: &str = "serve_rejected_unallocatable_total";
    /// Rejections: the tenant was over its admission quota.
    pub const REJECTED_QUOTA: &str = "serve_rejected_quota_total";
    /// Lane preemptions: dispatched batches aborted at a stream-safe point
    /// and requeued to free a lane for a higher-priority arrival.
    pub const PREEMPTIONS: &str = "serve_preemptions_total";
    /// Coalesced launches dispatched.
    pub const LAUNCHES: &str = "serve_launches_total";
    /// Requests carried by those launches.
    pub const BATCHED_REQUESTS: &str = "serve_batched_requests_total";
    /// Payload bytes completed (one direction).
    pub const PAYLOAD_BYTES: &str = "serve_payload_bytes_total";
    /// In-deadline payload bytes, both directions (the goodput numerator).
    pub const GOOD_BYTES: &str = "serve_good_bytes_total";
    /// Completions whose latency exceeded the SLO p95 target.
    pub const LATENCY_OVER_SLO: &str = "serve_latency_over_slo_total";
    /// Plan-cache hits across the fleet (mirrored from the cards).
    pub const PLAN_HITS: &str = "serve_plan_cache_hits_total";
    /// Plan-cache misses across the fleet (mirrored from the cards).
    pub const PLAN_MISSES: &str = "serve_plan_cache_misses_total";
    /// Validator out-of-bounds accesses (occurrences, `--check-hazards`).
    pub const CHECK_OOB: &str = "serve_check_oob_total";
    /// Validator uninitialised reads (occurrences).
    pub const CHECK_UNINIT: &str = "serve_check_uninit_total";
    /// Validator use-after-free accesses (occurrences).
    pub const CHECK_USE_AFTER_FREE: &str = "serve_check_use_after_free_total";
    /// Validator cross-stream hazards.
    pub const CHECK_HAZARDS: &str = "serve_check_hazards_total";
    /// Kernel launches the validator checked.
    pub const CHECK_KERNELS: &str = "serve_check_kernels_total";
    /// Interval ops the validator replayed.
    pub const CHECK_OPS: &str = "serve_check_ops_total";
    /// Gauge: requests waiting in the submission queue.
    pub const QUEUE_DEPTH: &str = "serve_queue_depth";
    /// Gauge: in-deadline GB/s over elapsed time so far.
    pub const GOODPUT_GBS: &str = "serve_goodput_gbs";
    /// Gauge: fleet plan-cache hit rate in `[0, 1]`.
    pub const PLAN_HIT_RATE: &str = "serve_plan_cache_hit_rate";
    /// Histogram: requests coalesced per launch.
    pub const BATCH_SIZE_HIST: &str = "serve_batch_size";
    /// Histogram: completion latency, milliseconds.
    pub const LATENCY_MS_HIST: &str = "serve_latency_ms";
    /// Lifecycle stamps/annotations dropped (unknown request id or a
    /// backwards stamp) — should stay 0 on a healthy service.
    pub const LIFECYCLE_DROPPED: &str = "serve_lifecycle_dropped_total";
    /// Cumulative attributed time per ledger category, microseconds, in
    /// [`super::attribution::CATEGORIES`] order. One counter per category
    /// (`serve_attr_<category>_us_total`), incremented at completion.
    pub const ATTR_US: [&str; 12] = [
        "serve_attr_admission_us_total",
        "serve_attr_queue_us_total",
        "serve_attr_batch_us_total",
        "serve_attr_plan_us_total",
        "serve_attr_staging_us_total",
        "serve_attr_h2d_us_total",
        "serve_attr_compute_us_total",
        "serve_attr_d2h_us_total",
        "serve_attr_finalize_us_total",
        "serve_attr_network_us_total",
        "serve_attr_preempted_us_total",
        "serve_attr_resident_us_total",
    ];
    /// Gauge name for card `i`'s compute-engine utilization.
    pub fn card_compute_util(i: usize) -> String {
        format!("serve_card{i}_compute_utilization")
    }
    /// Gauge name for card `i`'s copy-engine utilization.
    pub fn card_copy_util(i: usize) -> String {
        format!("serve_card{i}_copy_utilization")
    }
}

/// The service's telemetry bundle: one registry, one tick-sampled
/// timeline, one lifecycle log.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Counters, gauges and histograms.
    pub registry: MetricsRegistry,
    /// The registry sampled on the virtual-time tick.
    pub timeline: Timeline,
    /// Per-request stage waterfalls.
    pub lifecycle: LifecycleLog,
}

impl Telemetry {
    /// A fresh bundle sampling every `tick_s` simulated seconds, with the
    /// service's standard histograms declared.
    pub fn new(tick_s: f64) -> Self {
        let mut registry = MetricsRegistry::new();
        registry.declare_histogram(names::BATCH_SIZE_HIST, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        registry.declare_histogram(
            names::LATENCY_MS_HIST,
            &[0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0],
        );
        // Pre-register the drop counter and the attribution counters at 0
        // so a run with no traffic still exports them (and CI's
        // --validate-metrics can require their presence).
        registry.set_counter(names::LIFECYCLE_DROPPED, 0);
        registry.set_counter(names::PREEMPTIONS, 0);
        for name in names::ATTR_US {
            registry.set_counter(name, 0);
        }
        Telemetry {
            registry,
            timeline: Timeline::new(tick_s),
            lifecycle: LifecycleLog::default(),
        }
    }
}
