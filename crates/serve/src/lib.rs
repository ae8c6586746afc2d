//! fft-serve — FFT-as-a-service on the simulated GPU fleet.
//!
//! The paper's kernel answers "how fast is one transform"; this crate
//! answers the production question layered on top: how many transforms per
//! second can a fleet of these cards serve, at what latency, under what
//! admission policy. It is a deterministic discrete-event serving stack
//! over the PR 2 stream/event machinery:
//!
//! - [`request`] — typed requests (shape, direction, algorithm hint,
//!   priority, deadline), rejections and completions;
//! - [`queue`] — the bounded priority submission queue (backpressure);
//! - [`batcher`] — adaptive micro-batching: same-shape requests coalesce
//!   into one batched launch, batch size tracking queue depth under a
//!   latency budget, with an EWMA service-time estimator;
//! - [`scheduler`] — cards, stream lanes and the per-card plan cache;
//! - [`service`] — admission control, placement (stream lanes for 1-D
//!   rows, whole cards for volumes and DAGs, the whole fleet for sharded
//!   volumes), one `dispatch` routine for every kind, and graceful drain;
//! - [`qos`] — multi-tenant quotas, weighted-fair queueing state and lane
//!   preemption policy;
//! - [`loadgen`] — seeded open-loop (Poisson) and closed-loop generators;
//! - [`report`] — latency percentiles, goodput, queue/batch statistics,
//!   per-card utilization, rendered as deterministic JSON;
//! - [`telemetry`] — the one event fold that writes request-lifecycle
//!   waterfalls, the windowed metrics registry and the report's books;
//!   SLO burn-rate monitoring, the per-request time-attribution ledger and
//!   the metrics/Prometheus/Chrome exporters;
//! - [`cli`] — the `fft-serve` binary;
//! - [`prof`] — the `fft-prof` binary (attribution show/diff forensics).
//!
//! Everything is seeded and virtual-time: the same workload seed produces
//! bit-identical report JSON, which is what lets CI gate on serving
//! behaviour at all.

#![warn(missing_docs)]

pub mod batcher;
pub mod cli;
pub mod loadgen;
pub mod pipeline;
pub mod prof;
pub mod qos;
pub mod queue;
pub mod report;
pub mod request;
pub mod scheduler;
pub mod service;
pub mod telemetry;

pub use loadgen::{
    open_loop_templates, run_closed_loop, run_open_loop, OfferedLoad, SubmitTemplate, Workload,
};
pub use pipeline::{
    Operand, PipelineRequest, PipelineStage, PointwiseOp, ReduceOp, SeededPipeline, StageKind,
};
pub use qos::{jain_index, QosConfig, QuotaKind, TenantId, TenantPolicy};
pub use report::{LatencyStats, ServeReport};
pub use request::{
    Completion, PollStatus, Priority, Rejection, RequestId, RequestSpec, SeededSpec, Shape, Ticket,
};
pub use service::{FftService, ServeConfig, ServeConfigBuilder};
pub use telemetry::{
    metrics_json, parse_attr_json, prometheus_text, render_attr_json, validate_metrics_json,
    AttrSummary, Audit, Ledger, LifecycleLog, MetricsRegistry, SloPolicy, SloReport, Stage,
    Telemetry, ATTR_SCHEMA, METRICS_SCHEMA,
};
