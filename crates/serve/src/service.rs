//! The service itself: admission, the virtual-time event loop, dispatch
//! routing and graceful drain.
//!
//! `FftService` is a discrete-event simulation driven by the caller's
//! clock: every [`FftService::submit`] carries an arrival time in simulated
//! seconds, the service dispatches whatever fits onto lanes that are free
//! *at that instant*, and [`FftService::drain`] advances virtual time
//! through the remaining lane-free events until the queue empties. Because
//! the simulated GPUs are deterministic, the whole pipeline is too: the
//! same request sequence produces bit-identical [`ServeReport`]s.
//!
//! Placement picks a lane, a whole card or the fleet for the unit at the
//! queue head; one `dispatch` then runs any unit there and books it.
//! Routing rules:
//! - 1-D row batches go to the card with the shortest expected completion
//!   (EWMA service-time estimate plus a cold-plan penalty) among cards with
//!   a free stream lane (overlapped H2D/compute/D2H via the PR 2 engine
//!   model);
//! - volumes that fit one card run on its synchronous timeline, occupying
//!   every lane (a volume plan owns card-wide buffers);
//! - volumes that do not fit any card route to the PR 2 multi-GPU sharder
//!   and occupy the whole fleet;
//! - pipeline DAGs wait in the same queue, ranked by the same key, and go
//!   to a card with every lane idle once they reach the queue head.
//!
//! Multi-tenant QoS ([`crate::qos`]): admission enforces per-tenant token
//! buckets and in-flight caps, dispatch order within a priority class is
//! weighted-fair over configured shares, and (when enabled) a dispatched
//! low-priority rows batch is aborted at its next stream-safe point when a
//! higher-priority arrival needs the lane, requeued, and the wasted device
//! time charged to its tenant.

use crate::batcher::{form_batch, key_of, key_of_spec, BatchKey, BatchLimits, Estimator};
use crate::pipeline::{PipelineRequest, PipelineStage, SeededPipeline, StageKind};
use crate::qos::jain_index;
use crate::qos::{QosBook, QosConfig, TenantId};
use crate::queue::{Pending, SubmitQueue, Work};
use crate::report::{LatencyStats, ServeReport, TenantReport};
use crate::request::{
    seeded_payload, Completion, PollStatus, Priority, Rejection, RequestId, RequestSpec,
    SeededSpec, Shape, ShapeKey, Ticket,
};
use crate::scheduler::{Card, Outcome, Phases};
use crate::telemetry::books::{Books, Event};
use crate::telemetry::{self, names, slo, SloPolicy, SloReport, Stage, Telemetry};
use bifft::batch::Fft1dBatchGpu;
use bifft::multi_gpu::MultiGpuFft3d;
use bifft::plan::{Algorithm, FftError};
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{AccessKind, CheckReport, DeviceSpec};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Everything the service needs to come up.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The simulated card model.
    pub spec: DeviceSpec,
    /// Cards in the fleet (a power of two, so the sharder can split
    /// oversized volumes across all of them).
    pub n_gpus: usize,
    /// Stream lanes per card; `0` runs one synchronous lane per card (the
    /// serial baseline — no copy/compute overlap).
    pub streams_per_card: usize,
    /// Bound on the submission queue; fulls reject with backpressure.
    pub queue_capacity: usize,
    /// Most requests one launch may coalesce.
    pub max_batch_requests: usize,
    /// Most payload elements one launch may coalesce (also the staging-slot
    /// size allocated per lane).
    pub max_batch_elems: usize,
    /// Keep transformed payloads in completions (tests want them; load
    /// generators usually don't).
    pub keep_outputs: bool,
    /// Run every card under the PR 4 memcheck/racecheck-style validator.
    pub check_hazards: bool,
    /// Record per-card sim-prof traces for the merged Chrome export
    /// ([`FftService::chrome_trace`]).
    pub record_trace: bool,
    /// Multi-tenant QoS: per-tenant shares, admission quotas and the lane
    /// preemption switch. The default config (one unlimited tenant, no
    /// preemption) reproduces single-tenant behaviour exactly.
    pub qos: QosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spec: DeviceSpec::gts8800(),
            n_gpus: 2,
            streams_per_card: 2,
            queue_capacity: 64,
            max_batch_requests: 8,
            max_batch_elems: 1 << 20,
            keep_outputs: false,
            check_hazards: false,
            record_trace: false,
            qos: QosConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Starts a [`ServeConfigBuilder`] from the defaults — the canonical
    /// construction path since the wire redesign. `build()` validates and
    /// returns typed errors, so an impossible fleet is caught before any
    /// card is touched:
    ///
    /// ```
    /// # use fft_serve::service::ServeConfig;
    /// let cfg = ServeConfig::builder().gpus(2).streams(4).build().unwrap();
    /// assert_eq!(cfg.n_gpus, 2);
    /// assert!(ServeConfig::builder().gpus(3).build().is_err());
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    /// Checks the invariants [`FftService::new`] requires.
    ///
    /// # Errors
    /// [`FftError::BadPlanConfig`] naming the offending parameter: zero or
    /// non-power-of-two fleet, zero queue/batch bounds, or an invalid QoS
    /// config.
    pub fn validate(&self) -> Result<(), FftError> {
        if self.n_gpus == 0 || !self.n_gpus.is_power_of_two() {
            return Err(FftError::BadPlanConfig {
                param: "n_gpus",
                value: self.n_gpus,
                reason: "fleet size must be a nonzero power of two".to_string(),
            });
        }
        for (param, value) in [
            ("queue_capacity", self.queue_capacity),
            ("max_batch_requests", self.max_batch_requests),
            ("max_batch_elems", self.max_batch_elems),
        ] {
            if value == 0 {
                return Err(FftError::BadPlanConfig {
                    param,
                    value,
                    reason: "must be at least 1".to_string(),
                });
            }
        }
        if let Err(reason) = self.qos.validate() {
            return Err(FftError::BadPlanConfig {
                param: "qos",
                value: 0,
                reason,
            });
        }
        Ok(())
    }
}

/// Builder for [`ServeConfig`] ([`ServeConfig::builder`]): the typed-error
/// replacement for struct-literal construction, shared by `fft-serve`,
/// `fft-gate`, the load generators and the bench harness.
#[derive(Clone, Debug)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the simulated card model (default: the GTS 8800).
    pub fn spec(mut self, spec: DeviceSpec) -> Self {
        self.cfg.spec = spec;
        self
    }

    /// Sets the fleet size (must be a nonzero power of two).
    pub fn gpus(mut self, n: usize) -> Self {
        self.cfg.n_gpus = n;
        self
    }

    /// Sets the stream lanes per card (`0` = one synchronous lane).
    pub fn streams(mut self, n: usize) -> Self {
        self.cfg.streams_per_card = n;
        self
    }

    /// Sets the submission-queue bound.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.cfg.queue_capacity = n;
        self
    }

    /// Sets the most requests one launch may coalesce.
    pub fn batch_requests(mut self, n: usize) -> Self {
        self.cfg.max_batch_requests = n;
        self
    }

    /// Sets the most payload elements one launch may coalesce (also the
    /// per-lane staging-slot size).
    pub fn batch_elems(mut self, n: usize) -> Self {
        self.cfg.max_batch_elems = n;
        self
    }

    /// Keeps transformed payloads in completions.
    pub fn keep_outputs(mut self, keep: bool) -> Self {
        self.cfg.keep_outputs = keep;
        self
    }

    /// Runs every card under the memcheck/racecheck-style validator.
    pub fn check_hazards(mut self, check: bool) -> Self {
        self.cfg.check_hazards = check;
        self
    }

    /// Records per-card sim-prof traces for the merged Chrome export.
    pub fn record_trace(mut self, record: bool) -> Self {
        self.cfg.record_trace = record;
        self
    }

    /// Sets the multi-tenant QoS config (shares, quotas, preemption).
    pub fn qos(mut self, qos: QosConfig) -> Self {
        self.cfg.qos = qos;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    /// [`FftError::BadPlanConfig`] per [`ServeConfig::validate`].
    pub fn build(self) -> Result<ServeConfig, FftError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Validates the config and brings the fleet up in one call.
    ///
    /// # Errors
    /// Everything [`ServeConfigBuilder::build`] and [`FftService::new`]
    /// can return.
    pub fn build_service(self) -> Result<FftService, FftError> {
        FftService::new(self.build()?)
    }
}

/// A batch stops growing once its estimated service time exceeds this many
/// simulated seconds.
const LATENCY_BUDGET_S: f64 = 10e-3;

/// The telemetry sampling tick, simulated seconds.
const TICK_S: f64 = 1e-3;

/// Expected extra service time of a dispatch whose card has not memoised
/// the 1-D plan yet (placement's cold-plan penalty; roughly a plan build
/// on the simulated card).
const COLD_PLAN_PENALTY_S: f64 = 50e-6;

/// Where one dispatched unit runs: stream lane `(card, lane)`, a whole
/// card, or every card of the fleet (an oversized volume, sharded).
#[derive(Clone, Copy)]
enum Place {
    Lane(usize, usize),
    Card(usize),
    Fleet,
}

/// One dispatched-but-uncommitted lane batch. The device-side work was
/// already modeled at dispatch (the outcome's phase times are fixed), but
/// the lifecycle stamps and completion records are deferred to the batch's
/// completion instant — so a preemption can abort the batch at a
/// stream-safe point and requeue its members with their waterfalls still
/// open.
struct InFlight {
    /// Dispatch sequence number (commit tie-break at equal completions).
    seq: u64,
    /// Card and lane the batch runs on.
    ci: usize,
    li: usize,
    /// When the batch was dispatched, simulated seconds.
    dispatched_s: f64,
    /// The engine model's phase times and outputs.
    outcome: Outcome,
    /// Member requests, batch order.
    members: Vec<Pending>,
}

/// The FFT-as-a-service front end over a fleet of simulated cards. It
/// keeps only scheduling state; every transition is one event folded into
/// `books`, which every report, metric and waterfall reads.
pub struct FftService {
    cfg: ServeConfig,
    cards: Vec<Card>,
    queue: SubmitQueue,
    limits: BatchLimits,
    estimator: Estimator<BatchKey>,
    /// EWMA per-stage-kind service model for pipeline DAGs — admission
    /// costs the *whole* DAG against a deadline, never just its first
    /// stage.
    stage_estimator: Estimator<StageKind>,
    sharded: BTreeMap<(usize, usize, usize), MultiGpuFft3d>,
    /// Volume dims even the whole fleet could not allocate, with the error
    /// that proved it — admission rejects these outright from then on.
    fleet_oversized: BTreeMap<(usize, usize, usize), FftError>,
    next_id: u64,
    now_s: f64,
    /// Per-tenant quota buckets, WFQ virtual time and in-flight slots.
    qos: QosBook,
    /// Dispatched rows batches whose completion instant has not been
    /// reached yet (commit happens in [`FftService::advance_to`]).
    in_flight: Vec<InFlight>,
    dispatch_seq: u64,
    /// Safe point of the most recent preemption; until the clock reaches
    /// it the service won't preempt again (no cascades while the freed
    /// lane is still in its abort window).
    preempt_reserved_s: Option<f64>,
    /// Each card's compute and copy-engine utilization gauge names, built
    /// once.
    util_gauges: Vec<(String, String)>,
    books: Books,
}

impl FftService {
    /// Brings the fleet up.
    ///
    /// # Errors
    /// [`FftError::BadPlanConfig`] for unusable config (zero cards,
    /// non-power-of-two fleet, zero queue/batch bounds) and
    /// [`FftError::Alloc`] when a card cannot hold its staging slots.
    pub fn new(cfg: ServeConfig) -> Result<Self, FftError> {
        cfg.validate()?;
        let mut cards = Vec::with_capacity(cfg.n_gpus);
        for i in 0..cfg.n_gpus {
            let mut card = Card::new(
                &cfg.spec,
                i,
                cfg.streams_per_card,
                cfg.max_batch_elems,
                cfg.check_hazards,
            )?;
            if cfg.record_trace {
                card.enable_trace();
            }
            cards.push(card);
        }
        let limits = BatchLimits {
            max_requests: cfg.max_batch_requests,
            max_elems: cfg.max_batch_elems,
            latency_budget_s: LATENCY_BUDGET_S,
        };
        let n = cfg.n_gpus;
        Ok(FftService {
            books: Books::new(TICK_S, n, SloPolicy::default().latency_p95_ms),
            util_gauges: (0..n)
                .map(|i| (names::card_compute_util(i), names::card_copy_util(i)))
                .collect(),
            qos: QosBook::new(cfg.qos.clone()),
            queue: SubmitQueue::new(cfg.queue_capacity),
            cfg,
            cards,
            limits,
            estimator: Estimator::new(),
            stage_estimator: Estimator::new(),
            sharded: BTreeMap::new(),
            fleet_oversized: BTreeMap::new(),
            next_id: 0,
            now_s: 0.0,
            in_flight: Vec::new(),
            dispatch_seq: 0,
            preempt_reserved_s: None,
        })
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Requests waiting in the submission queue (pipelines included — a
    /// waiting DAG is one entry, one unit of depth and of capacity).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Moves virtual time forward to `t_s` (backwards moves are ignored)
    /// and dispatches whatever becomes placeable — the hook wall-clock
    /// drivers (the gateway's live mode) use so queued work keeps draining
    /// between submissions.
    pub fn advance(&mut self, t_s: f64) {
        self.advance_to(t_s);
        self.pump();
        self.refresh_gauges();
    }

    /// Completions recorded so far, in record order: rows batches commit
    /// at their completion instant, whole-card volume dispatches at their
    /// dispatch instant.
    pub fn completions(&self) -> &[Completion] {
        &self.books.completions
    }

    /// Admitted requests that failed at dispatch (a volume not even the
    /// whole fleet could allocate, a DAG whose live set outgrows its card),
    /// with the error.
    pub fn failures(&self) -> &[(RequestId, FftError)] {
        &self.books.failures
    }

    /// Submits one request arriving at `at_s` simulated seconds.
    ///
    /// Admission control runs first: malformed shapes reject as
    /// [`Rejection::Unsupported`], rows payloads bigger than a staging slot
    /// as [`Rejection::Oversized`], volumes a previous attempt proved
    /// unallocatable as [`Rejection::Unallocatable`], a full queue as
    /// [`Rejection::QueueFull`] (backpressure — the caller decides whether
    /// to retry later), a deadline the backlog estimator says cannot be
    /// met as [`Rejection::DeadlineInfeasible`] (shedding work that would
    /// only be thrown away), and a tenant over its token-bucket rate or
    /// in-flight quota as [`Rejection::QuotaExceeded`]. Admitted requests
    /// get a weighted-fair virtual finish time and dispatch eagerly onto
    /// any lane free at `at_s`.
    ///
    /// Admission hands back a [`Ticket`] — the id it carries doubles as the
    /// wire correlation id, and [`FftService::poll`] resolves it to the
    /// request's current state.
    ///
    /// # Errors
    /// The [`Rejection`] taxonomy above; a rejected request leaves its
    /// rejection counter and a terminal lifecycle waterfall, nothing more.
    pub fn submit(&mut self, mut spec: RequestSpec, at_s: f64) -> Result<Ticket, Rejection> {
        let payload = std::mem::take(&mut spec.payload);
        self.submit_transform(spec, Some(payload.len()), at_s, || payload)
    }

    /// [`FftService::submit`] for a seeds-only template: every admission
    /// check runs on the template, and its payload is materialized only
    /// once it is admitted — so a hostile wire template naming a
    /// multi-gigabyte shape rejects without allocating a sample.
    pub(crate) fn submit_seeded(&mut self, t: &SeededSpec, at_s: f64) -> Result<Ticket, Rejection> {
        self.submit_transform(t.header(), None, at_s, || seeded_payload(t.shape, t.seed))
    }

    /// The single-transform admission path: `spec` without its payload,
    /// the length of the payload a full spec carried, and the payload
    /// itself, built only once the request is admitted.
    fn submit_transform(
        &mut self,
        spec: RequestSpec,
        payload_len: Option<usize>,
        at_s: f64,
        payload: impl FnOnce() -> Vec<Complex32>,
    ) -> Result<Ticket, Rejection> {
        // Attribution profile keys: rows always run the coalesced 1-D
        // kernel; volumes run their hint or the default algorithm.
        let algo_label = match spec.shape {
            Shape::Rows1d { .. } => "batch-1d",
            Shape::Volume { .. } => spec.algorithm.unwrap_or_default().name(),
        };
        let label = spec.shape.label();
        let id = self.open(at_s, spec.tenant, label, spec.priority, algo_label);
        if let Err(r) = self.check_spec(&spec, payload_len) {
            return Err(self.reject(id, r));
        }
        // The deadline estimate: the earliest free lane, then this request
        // behind every queued one sharing its batch key.
        let deadline = spec.deadline_s.map(|deadline_s| {
            let key = key_of_spec(&spec);
            let same_key = self.queue.iter().filter(|p| key_of(p) == Some(key));
            let elems: usize = same_key.map(|p| p.spec().shape.elems()).sum();
            let wait_s = (self.earliest_free_s() - self.now_s).max(0.0);
            let est_s = self.estimator.estimate_s(key, elems + spec.shape.elems());
            (wait_s + est_s, deadline_s)
        });
        self.admit(id, spec.tenant, deadline, spec.shape.elems(), || {
            Work::Transform(RequestSpec {
                payload: payload(),
                ..spec
            })
        })
    }

    /// Resolves a ticket (or a raw wire correlation id via
    /// [`Ticket::correlation`]) to the request's current state without
    /// advancing time: still queued, done (completion attached), failed at
    /// dispatch, or never issued by this service.
    pub fn poll(&self, ticket: Ticket) -> PollStatus {
        let (id, books) = (ticket.id, &self.books);
        if let Some(&i) = books.completion_index.get(&id) {
            return PollStatus::Done(books.completions[i].clone());
        }
        if let Some((_, err)) = books.failures.iter().find(|(f, _)| *f == id) {
            return PollStatus::Failed(err.clone());
        }
        // Admitted but not terminal: queued, or in flight on a card — still
        // Queued from the client's view. Rejected at admission or never
        // issued: unknown.
        match books.telemetry.lifecycle.get(id) {
            Some(w) if w.stage_s(Stage::Admitted).is_some() && w.terminal().is_none() => {
                PollStatus::Queued
            }
            _ => PollStatus::Unknown,
        }
    }

    /// Submits one pipeline request — a dependency-ordered DAG of
    /// forward/inverse transforms, pointwise products and reductions over
    /// one or more input volumes — arriving at `at_s` simulated seconds.
    ///
    /// Admission is [`FftService::submit`]'s, in the same order, except
    /// that malformed DAGs (bad dims, dangling operands, an unserviceable
    /// stage combination) reject as [`Rejection::UnsupportedStage`] (stable
    /// wire code 7) and the deadline is costed over the **whole DAG**
    /// through the per-stage-kind EWMA model, never just its first stage.
    ///
    /// The admitted pipeline is one queue entry and one schedulable unit:
    /// one WFQ virtual finish time over `elems × stages`, one whole-card
    /// placement, and every intermediate held in a device-resident slot
    /// between stages so only the inputs and the final value cross PCIe.
    ///
    /// # Errors
    /// The [`Rejection`] taxonomy above; a rejected pipeline leaves its
    /// rejection counter and a terminal lifecycle waterfall, nothing more.
    pub fn submit_pipeline(
        &mut self,
        pipe: PipelineRequest,
        at_s: f64,
    ) -> Result<Ticket, Rejection> {
        let id = self.open(at_s, pipe.tenant, pipe.label(), pipe.priority, "pipeline");
        if let Err(detail) = pipe.validate() {
            return Err(self.reject(id, Rejection::UnsupportedStage(detail)));
        }
        let deadline = pipe
            .deadline_s
            .map(|d| (self.dag_estimate_s(&pipe.stages, pipe.elems()), d));
        self.admit(id, pipe.tenant, deadline, pipe.cost_elems(), || {
            Work::Pipeline(pipe)
        })
    }

    /// [`FftService::submit_pipeline`] for a seeds-only template: admission
    /// runs entirely on the template — dims envelope, DAG structure, queue,
    /// deadline, quota — and the input volumes are materialized only
    /// *after* every check passes. A hostile sub-KiB template naming
    /// multi-gigabyte dims therefore rejects without a single payload
    /// allocation; for admitted templates the expansion is the same
    /// [`SeededPipeline::materialize`] a client would run, so reports stay
    /// byte-identical between the seeded and the full-payload entry points.
    ///
    /// # Errors
    /// The same [`Rejection`] taxonomy as [`FftService::submit_pipeline`].
    pub fn submit_seeded_pipeline(
        &mut self,
        pipe: SeededPipeline,
        at_s: f64,
    ) -> Result<Ticket, Rejection> {
        let id = self.open(at_s, pipe.tenant, pipe.label(), pipe.priority, "pipeline");
        // The envelope check bounds each axis to 512 before the product
        // below, so it cannot overflow.
        if let Err(detail) = pipe.validate() {
            return Err(self.reject(id, Rejection::UnsupportedStage(detail)));
        }
        let elems = pipe.dims.0 * pipe.dims.1 * pipe.dims.2;
        let deadline = pipe
            .deadline_s
            .map(|d| (self.dag_estimate_s(&pipe.stages, elems), d));
        self.admit(id, pipe.tenant, deadline, elems * pipe.stages.len(), || {
            Work::Pipeline(pipe.materialize())
        })
    }

    /// The admission preamble every submission shares: advances the clock
    /// to `at_s`, issues the id (rejected submissions get one too, so ids
    /// stay monotone for admitted ones) and books the submission.
    fn open(
        &mut self,
        at_s: f64,
        tenant: TenantId,
        shape: String,
        priority: Priority,
        algorithm: &'static str,
    ) -> RequestId {
        self.advance_to(at_s);
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let submitted = Event::Submitted {
            id,
            tenant,
            shape,
            priority,
            algorithm,
        };
        self.books.apply(self.now_s, submitted);
        id
    }

    /// The admission tail every submission shares once its own validation
    /// passed: a full queue rejects, then the deadline (`deadline` pairs
    /// the kind's own estimate with the budget), then quota — last, so a
    /// submission bounced for any other reason never consumes the tenant's
    /// tokens or an in-flight slot. An admitted unit gets its WFQ virtual
    /// finish time over `cost` elements and joins the queue; `work` runs
    /// only then, so a seeded pipeline materializes its payload only once
    /// it is admitted.
    fn admit(
        &mut self,
        id: RequestId,
        tenant: TenantId,
        deadline: Option<(f64, f64)>,
        cost: usize,
        work: impl FnOnce() -> Work,
    ) -> Result<Ticket, Rejection> {
        let late = deadline.filter(|(estimated_s, deadline_s)| estimated_s > deadline_s);
        let bounced = if !self.queue.has_room() {
            Err(Rejection::QueueFull {
                capacity: self.queue.capacity(),
            })
        } else if let Some((estimated_s, deadline_s)) = late {
            Err(Rejection::DeadlineInfeasible {
                estimated_s,
                deadline_s,
            })
        } else {
            let quota = self.qos.admit(tenant, self.now_s);
            quota.map_err(|kind| Rejection::QuotaExceeded { tenant, kind })
        };
        if let Err(r) = bounced {
            return Err(self.reject(id, r));
        }
        let vft = self.qos.assign_vft(tenant, self.now_s, cost as f64);
        self.books.apply(self.now_s, Event::Admitted { id, tenant });
        self.queue.push(Pending {
            id,
            work: work(),
            arrival_s: self.now_s,
            vft,
        });
        self.pump();
        self.refresh_gauges();
        Ok(Ticket {
            id,
            at_s: self.now_s,
        })
    }

    /// Books one rejection and returns `r` for the `Err`.
    fn reject(&mut self, id: RequestId, r: Rejection) -> Rejection {
        self.books
            .apply(self.now_s, Event::Rejected { id, why: &r });
        r
    }

    /// The transform-specific admission checks, in order: the shape
    /// envelope (before any product of the dims is formed), the length of
    /// a full spec's payload (`payload_len`; a seeded one has none yet),
    /// rows payloads bigger than a staging slot, and volumes a previous
    /// attempt proved even the whole fleet cannot allocate.
    fn check_spec(&self, spec: &RequestSpec, payload_len: Option<usize>) -> Result<(), Rejection> {
        validate_shape(spec).map_err(Rejection::Unsupported)?;
        // Every axis is at most 512 now, so only a rows count can overflow
        // the product; it saturates.
        let elems = match spec.shape {
            Shape::Rows1d { n, rows } => n.saturating_mul(rows),
            volume => volume.elems(),
        };
        if let Some(got) = payload_len.filter(|&got| got != elems) {
            let mismatch = FftError::VolumeMismatch {
                expected: elems,
                got,
            };
            return Err(Rejection::Unsupported(mismatch));
        }
        match spec.shape {
            // A single rows request must fit a lane's staging slot on its
            // own: the batcher's element cap only bounds coalescing, so an
            // oversized head request would otherwise dispatch unchecked and
            // overrun the slot mid-upload.
            Shape::Rows1d { .. } if elems > self.cfg.max_batch_elems => Err(Rejection::Oversized {
                elems,
                limit_elems: self.cfg.max_batch_elems,
            }),
            Shape::Volume { nx, ny, nz } => match self.fleet_oversized.get(&(nx, ny, nz)) {
                Some(err) => Err(Rejection::Unallocatable(err.clone())),
                None => Ok(()),
            },
            Shape::Rows1d { .. } => Ok(()),
        }
    }

    /// Moves the service clock to `t_s`, committing every in-flight rows
    /// batch whose completion instant falls inside the move (in
    /// `(completion, dispatch-seq)` order) and sampling every telemetry
    /// tick boundary crossed with the pre-advance registry state
    /// (discrete-event semantics: a sample at tick `t` reflects the last
    /// event before `t`).
    fn advance_to(&mut self, t_s: f64) {
        loop {
            let next = (self.in_flight.iter().enumerate())
                .map(|(i, f)| (i, f.outcome.phases.completion_s, f.seq))
                .filter(|&(_, at, _)| at <= t_s)
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)));
            // The next commit inside the move, else the move's end.
            let at = next.map_or(t_s, |(_, at, _)| at);
            if at > self.now_s {
                let t = &mut self.books.telemetry;
                t.timeline.advance(at, &t.registry);
                self.now_s = at;
            }
            let Some((i, _, _)) = next else { break };
            let f = self.in_flight.remove(i);
            self.complete(&f.members, f.dispatched_s, Some(f.ci), f.outcome);
        }
        // A preemption reservation expires once the clock reaches its safe
        // point: the freed lane is genuinely free from here on.
        if self.preempt_reserved_s.is_some_and(|s| self.now_s >= s) {
            self.preempt_reserved_s = None;
        }
    }

    /// Earliest instant any lane in the fleet is (or becomes) free.
    fn earliest_free_s(&self) -> f64 {
        self.cards
            .iter()
            .map(Card::earliest_free_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Expected completion of a DAG: every stage's EWMA estimate, plus the
    /// wait for the earliest instant any card has *every* lane free — a
    /// DAG dispatches only onto a fully idle card, so the earliest free
    /// lane would be systematically optimistic under mixed load.
    fn dag_estimate_s(&self, stages: &[PipelineStage], elems: usize) -> f64 {
        let card_free_s = self.cards.iter().map(Card::all_free_s);
        let wait_s = (card_free_s.fold(f64::INFINITY, f64::min) - self.now_s).max(0.0);
        let est = &self.stage_estimator;
        wait_s
            + stages
                .iter()
                .map(|st| est.estimate_s(st.kind, elems))
                .sum::<f64>()
    }

    /// Dispatches everything placeable at the current instant.
    fn pump(&mut self) {
        self.pump_pipes();
        let mut skip: Vec<BatchKey> = Vec::new();
        loop {
            // The head of the first key not skipped: its key and elements.
            let Some((key, head_elems)) = self.queue.iter().find_map(|p| {
                let k = key_of(p).filter(|k| !skip.contains(k))?;
                Some((k, p.spec().shape.elems()))
            }) else {
                break;
            };
            let place = match key.shape {
                ShapeKey::Rows1d { n } => {
                    // Shortest expected completion among cards with a lane
                    // free right now: every candidate could start at `now`,
                    // so the discriminator is the EWMA service estimate
                    // plus a cold-plan penalty for cards that have not
                    // memoised this length; ties break on the earliest
                    // lane-free horizon, then index.
                    let est = self.estimator.estimate_s(key, head_elems);
                    let expected_done = |ci: usize| {
                        let plan_s = if self.cards[ci].has_rows_plan(n) {
                            0.0
                        } else {
                            COLD_PLAN_PENALTY_S
                        };
                        self.now_s + plan_s + est
                    };
                    let cand = (0..self.cards.len())
                        .filter_map(|i| self.cards[i].free_lane_at(self.now_s).map(|l| (i, l)))
                        .min_by(|&(a, _), &(b, _)| {
                            expected_done(a)
                                .total_cmp(&expected_done(b))
                                .then(
                                    self.cards[a]
                                        .earliest_free_s()
                                        .total_cmp(&self.cards[b].earliest_free_s()),
                                )
                                .then(a.cmp(&b))
                        });
                    match cand {
                        Some((ci, li)) => Place::Lane(ci, li),
                        // The freed lane may already be usable (the safe
                        // point can coincide with `now`).
                        None if self.try_preempt_for(&key) => continue,
                        None => {
                            skip.push(key);
                            continue;
                        }
                    }
                }
                // Volumes own card-wide plan buffers: they need a card
                // with every lane idle.
                ShapeKey::Volume { .. } => match self.idle_card() {
                    Some(ci) => Place::Card(ci),
                    None => {
                        skip.push(key);
                        continue;
                    }
                },
            };
            let batch = form_batch(&mut self.queue, &self.limits, &self.estimator, key);
            self.books
                .apply(self.now_s, Event::Batched { unit: &batch });
            if !self.dispatch(place, batch) {
                skip.push(key);
            }
        }
        // Singles the pipelines had to yield to are placed now; give the
        // deferred pipelines the cards that are still fully idle.
        self.pump_pipes();
    }

    /// The lowest-index card with every lane idle right now.
    fn idle_card(&self) -> Option<usize> {
        (0..self.cards.len()).find(|&i| self.cards[i].all_free_s() <= self.now_s)
    }

    /// Dispatches waiting pipelines while the queue head is one and some
    /// card is fully idle (a DAG's plans and slot buffers are card-wide,
    /// like a volume's). Singles and DAGs share one ranked queue, so a
    /// stream of low-priority DAGs cannot claim every idle card ahead of a
    /// waiting high-priority transform; `pump` re-runs this after the
    /// singles pass, so cards the singles left fully idle go back to DAGs.
    fn pump_pipes(&mut self) {
        while let Some(id) = self
            .queue
            .head()
            .filter(|p| p.transform().is_none())
            .map(|p| p.id)
        {
            let Some(ci) = self.idle_card() else { break };
            let dag = self.queue.drain_selected(&[id]);
            self.books.apply(self.now_s, Event::Batched { unit: &dag });
            self.dispatch(Place::Card(ci), dag);
        }
    }

    /// Attempts to free a stream lane for the blocked head of `key` by
    /// aborting a strictly lower-priority in-flight rows batch at its next
    /// stream-safe point (an H2D or kernel boundary the dispatch already
    /// recorded). The victim's members are requeued with their original
    /// stamps and virtual finish times, and the wasted lane-hold time
    /// (dispatch to safe point) is charged to each member's tenant and
    /// waterfall. Returns whether a preemption happened.
    fn try_preempt_for(&mut self, key: &BatchKey) -> bool {
        if !self.cfg.qos.preemption || self.cfg.streams_per_card == 0 {
            return false;
        }
        if let Some(t) = self.preempt_reserved_s {
            if self.now_s < t {
                return false;
            }
            self.preempt_reserved_s = None;
        }
        let Some(head_priority) = self
            .queue
            .iter()
            .filter(|p| key_of(p) == Some(*key))
            .map(Pending::priority)
            .min()
        else {
            return false;
        };
        let fleet_free_s = self.earliest_free_s();
        // Victim: among in-flight batches whose most important member is
        // still strictly below the blocked head and whose next safe point
        // beats simply waiting for the fleet, abort the least important
        // one, then the one with the most lane time left, then the latest
        // dispatch.
        let victim = self.in_flight.iter().enumerate().filter_map(|(idx, f)| {
            let batch_priority = f.members.iter().map(Pending::priority).min()?;
            let ph = &f.outcome.phases;
            let safe_s = [ph.h2d_done_s, ph.compute_done_s]
                .into_iter()
                .find(|&t| t >= self.now_s && t < ph.completion_s)?;
            let eligible = batch_priority > head_priority && safe_s < fleet_free_s;
            eligible.then_some((idx, batch_priority, ph.completion_s - safe_s, safe_s, f.seq))
        });
        let best = victim.max_by(|a, b| {
            let by_priority = a.1.cmp(&b.1);
            by_priority.then(a.2.total_cmp(&b.2)).then(a.4.cmp(&b.4))
        });
        let Some((idx, _, _, safe_s, _)) = best else {
            return false;
        };
        let (ci, li) = (self.in_flight[idx].ci, self.in_flight[idx].li);
        if self.cards[ci].preempt_lane(li, safe_s).is_err() {
            // The card cannot stage a fresh buffer pair; leave the batch
            // running rather than risk the aborted transfers' memory.
            return false;
        }
        let victim = self.in_flight.remove(idx);
        let wasted_s = safe_s - victim.dispatched_s;
        let unit = &victim.members;
        self.books
            .apply(self.now_s, Event::Preempted { unit, wasted_s });
        // Back into the queue with the original stamps intact: the
        // `submitted`/`admitted` records and the WFQ virtual finish time
        // survive; only `Batched`/`Dispatched` move forward when the
        // request is re-batched.
        for p in victim.members {
            self.queue.requeue(p);
        }
        self.preempt_reserved_s = Some(safe_s);
        true
    }

    /// Runs one unit — a coalesced transform batch or one DAG, `members`
    /// in batch order — at `place`, then books it: the EWMA estimator
    /// learns from it (under the batch key, or for a DAG under each stage
    /// kind) and the launch is counted. A lane batch parks in `in_flight`
    /// until its completion instant, so it stays preemptible; whole-card
    /// and fleet units complete now. A volume batch that does not fit its
    /// card goes to the sharder when the whole fleet is idle, else back
    /// into the queue — the one case that returns false.
    fn dispatch(&mut self, place: Place, members: Vec<Pending>) -> bool {
        let outcome = match self.run(place, &members) {
            Ok(Some(o)) => o,
            Ok(None) if self.cards.iter().all(|c| c.all_free_s() <= self.now_s) => {
                return self.dispatch(Place::Fleet, members);
            }
            Ok(None) => {
                for p in members {
                    self.queue.requeue(p);
                }
                return false;
            }
            // Work admission could not rule out (a volume not even the
            // fleet can allocate, a DAG whose live set outgrows its card)
            // fails instead of panicking.
            Err(err) => {
                for p in &members {
                    self.qos.release(p.tenant());
                }
                let (unit, err) = (&members, &err);
                self.books.apply(self.now_s, Event::Failed { unit, err });
                return true;
            }
        };
        match &members[0].work {
            Work::Transform(spec) => {
                let key = key_of_spec(spec);
                let elems = members.iter().map(|p| p.spec().shape.elems()).sum();
                let service_s = outcome.phases.completion_s - self.now_s;
                self.estimator.observe(key, elems, service_s);
            }
            Work::Pipeline(pipe) => {
                let mut prev = self.now_s;
                for (st, &done) in pipe.stages.iter().zip(&outcome.stage_done_s) {
                    self.stage_estimator
                        .observe(st.kind, pipe.elems(), done - prev);
                    prev = done;
                }
            }
        }
        let size = members.len();
        self.books.apply(self.now_s, Event::Launched { size });
        match place {
            Place::Lane(ci, li) => {
                self.in_flight.push(InFlight {
                    seq: self.dispatch_seq,
                    ci,
                    li,
                    dispatched_s: self.now_s,
                    outcome,
                    members,
                });
                self.dispatch_seq += 1;
            }
            Place::Card(ci) => self.complete(&members, self.now_s, Some(ci), outcome),
            Place::Fleet => self.complete(&members, self.now_s, None, outcome),
        }
        true
    }

    /// The device side of [`FftService::dispatch`]: runs `members` on the
    /// lane, card or fleet `place` names. Each card routine marks its own
    /// occupancy; the fleet path occupies every card itself. `Ok(None)`:
    /// the volume does not fit the card.
    fn run(&mut self, place: Place, members: &[Pending]) -> Result<Option<Outcome>, FftError> {
        let (now, keep) = (self.now_s, self.cfg.keep_outputs);
        let spec = match &members[0].work {
            Work::Transform(spec) => spec,
            Work::Pipeline(pipe) => {
                let Place::Card(ci) = place else {
                    unreachable!("a DAG runs on one whole card")
                };
                let card = &mut self.cards[ci];
                let (dims, stages, inputs) = (pipe.dims, &pipe.stages, &pipe.inputs);
                return card
                    .dispatch_pipeline(dims, stages, inputs, now, keep)
                    .map(Some);
            }
        };
        let payloads: Vec<&[Complex32]> = members
            .iter()
            .map(|p| p.spec().payload.as_slice())
            .collect();
        let dir = spec.direction;
        let algo = spec.algorithm.unwrap_or_default();
        match (place, spec.shape) {
            (Place::Lane(ci, li), Shape::Rows1d { n, .. }) => self.cards[ci]
                .dispatch_rows(li, n, &payloads, dir, now, keep)
                .map(Some),
            (Place::Card(ci), Shape::Volume { nx, ny, nz }) => {
                let card = &mut self.cards[ci];
                card.dispatch_volumes((nx, ny, nz), algo, &payloads, dir, now, keep)
            }
            (Place::Fleet, Shape::Volume { nx, ny, nz }) => {
                self.run_sharded((nx, ny, nz), &payloads, dir).map(Some)
            }
            _ => unreachable!("rows run on a lane, volumes on a card or the fleet"),
        }
    }

    /// Runs a volume batch through the multi-GPU sharder over the whole
    /// fleet and occupies every card until it is done. A fleet that cannot
    /// allocate the volume fails the batch, and admission rejects the
    /// shape outright from then on.
    fn run_sharded(
        &mut self,
        dims: (usize, usize, usize),
        payloads: &[&[Complex32]],
        dir: Direction,
    ) -> Result<Outcome, FftError> {
        let plan = match self.sharded.entry(dims) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let (nx, ny, nz) = dims;
                let mut plan = MultiGpuFft3d::new(&self.cfg.spec, self.cfg.n_gpus, nx, ny, nz)
                    .inspect_err(|err| {
                        if let FftError::Alloc(_) = err {
                            self.fleet_oversized.insert(dims, err.clone());
                        }
                    })?;
                if self.cfg.check_hazards {
                    plan.check_enable();
                }
                e.insert(plan)
            }
        };
        let started = self.now_s;
        let mut t = started;
        let mut each = Vec::with_capacity(payloads.len());
        let mut outputs = self.cfg.keep_outputs.then(Vec::new);
        for payload in payloads {
            let (out, rep) = plan.transform(payload, dir)?;
            t += rep.wall_s;
            // The sharder reports one wall time per transform, not per
            // phase: the waterfall degenerates to dispatch + one slice, but
            // stays monotone and complete.
            each.push(Phases {
                plan_ready_s: started,
                h2d_start_s: started,
                h2d_done_s: t,
                compute_done_s: t,
                completion_s: t,
            });
            if let Some(o) = &mut outputs {
                o.push(out);
            }
        }
        for card in &mut self.cards {
            card.gpu.wait_until(t);
            card.occupy_all(t);
        }
        let moved = payloads.iter().map(|p| p.len() as u64 * 8).sum();
        Ok(Outcome {
            phases: *each.last().expect("volume batch is nonempty"),
            each,
            span: format!("multi_gpu_{}x{}x{}", dims.0, dims.1, dims.2),
            outputs,
            h2d_bytes: moved,
            d2h_bytes: moved,
            ..Outcome::default()
        })
    }

    /// Books one finished unit and frees each member's in-flight slot.
    fn complete(&mut self, unit: &[Pending], dispatched_s: f64, card: Option<usize>, o: Outcome) {
        for p in unit {
            self.qos.release(p.tenant());
        }
        let completed = Event::Completed {
            unit,
            dispatched_s,
            card,
            outcome: o,
        };
        self.books.apply(self.now_s, completed);
    }

    /// Runs virtual time forward until the queue is empty and every lane is
    /// idle — the graceful-shutdown path. Returns the final simulated time.
    pub fn drain(&mut self) -> f64 {
        loop {
            self.pump();
            self.refresh_gauges();
            if self.queue.depth() == 0 {
                break;
            }
            let next = self
                .cards
                .iter()
                .flat_map(|c| c.lanes().iter().map(|l| l.busy_until_s))
                .filter(|&t| t > self.now_s)
                .fold(f64::INFINITY, f64::min);
            if !next.is_finite() {
                debug_assert!(false, "queue stuck with an idle fleet");
                break;
            }
            self.advance_to(next);
        }
        let end = self
            .cards
            .iter()
            .map(Card::all_free_s)
            .fold(self.now_s, f64::max);
        self.advance_to(end);
        self.refresh_gauges();
        self.sync_check_counters();
        let t = &mut self.books.telemetry;
        t.timeline.seal(end, &t.registry);
        end
    }

    /// Refreshes the sampled gauges (queue depth, per-card utilization,
    /// plan-cache hit rate, running goodput) and mirrors the externally
    /// maintained plan-cache counters into the registry.
    fn refresh_gauges(&mut self) {
        let depth = self.queue.depth() as f64;
        let now = self.now_s;
        let (hits, misses) = (self.cards.iter().map(Card::cache_stats))
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        let goodput = self.books.goodput_gbs();
        let dropped = self.books.telemetry.lifecycle.dropped();
        let reg = &mut self.books.telemetry.registry;
        reg.set_counter(names::LIFECYCLE_DROPPED, dropped);
        reg.set_gauge(names::QUEUE_DEPTH, depth);
        reg.set_gauge(names::GOODPUT_GBS, goodput);
        let lookups = (hits + misses).max(1);
        reg.set_gauge(names::PLAN_HIT_RATE, hits as f64 / lookups as f64);
        reg.set_counter(names::PLAN_HITS, hits);
        reg.set_counter(names::PLAN_MISSES, misses);
        for (card, (compute, copy)) in self.cards.iter().zip(&self.util_gauges) {
            reg.set_gauge(compute, card.utilization(now));
            reg.set_gauge(copy, card.copy_utilization(now));
        }
    }

    /// Mirrors the fleet-merged validator diagnostics (when `check_hazards`
    /// is on) into registry counters.
    fn sync_check_counters(&mut self) {
        let Some(rep) = self.check_report() else {
            return;
        };
        let (mut oob, mut uninit, mut uaf) = (0u64, 0u64, 0u64);
        for d in &rep.access {
            let n = d.occurrences as u64;
            match d.kind {
                AccessKind::OutOfBounds => oob += n,
                AccessKind::UninitRead => uninit += n,
                AccessKind::UseAfterFree => uaf += n,
            }
        }
        let reg = &mut self.books.telemetry.registry;
        reg.set_counter(names::CHECK_OOB, oob);
        reg.set_counter(names::CHECK_UNINIT, uninit);
        reg.set_counter(names::CHECK_USE_AFTER_FREE, uaf);
        reg.set_counter(names::CHECK_HAZARDS, rep.hazards.len() as u64);
        reg.set_counter(names::CHECK_KERNELS, rep.kernels_checked as u64);
        reg.set_counter(names::CHECK_OPS, rep.ops_tracked as u64);
    }

    /// Builds the end-of-run summary. Call after [`FftService::drain`] —
    /// requests still queued are not in the report.
    pub fn report(&self) -> ServeReport {
        let books = &self.books;
        let count = |name| books.telemetry.registry.counter(name);
        let mut residency = crate::scheduler::ResidencyStats::default();
        for c in &self.cards {
            residency.absorb(c.residency_stats());
        }
        let mut r = ServeReport {
            submitted: count(names::SUBMITTED),
            admitted: count(names::ADMITTED),
            rejected_queue_full: count(names::REJECTED_QUEUE_FULL),
            rejected_deadline: count(names::REJECTED_DEADLINE),
            rejected_unsupported: count(names::REJECTED_UNSUPPORTED),
            rejected_oversized: count(names::REJECTED_OVERSIZED),
            rejected_unallocatable: count(names::REJECTED_UNALLOCATABLE),
            rejected_quota: count(names::REJECTED_QUOTA),
            preemptions: count(names::PREEMPTIONS),
            resident_hits: residency.hits,
            resident_misses: residency.misses,
            resident_evictions: residency.evictions,
            failed: books.failures.len() as u64,
            queue_max_depth: self.queue.max_depth(),
            queue_mean_depth: self.queue.mean_depth(),
            completed: count(names::COMPLETED),
            timeouts: count(names::TIMEOUTS),
            latency: self.latency_stats(),
            makespan_s: books.makespan_s(),
            goodput_gbs: books.goodput_gbs(),
            ..books.tally.clone()
        };
        if r.makespan_s > 0.0 {
            r.achieved_rps = r.completed as f64 / r.makespan_s;
        }
        for (card, c) in r.cards.iter_mut().zip(&self.cards) {
            let stats = c.cache_stats();
            card.utilization = c.utilization(r.makespan_s);
            card.copy_utilization = c.copy_utilization(r.makespan_s);
            card.plan_hits = stats.hits;
            card.plan_misses = stats.misses;
        }
        r.slo = self.slo_report();
        r.budget = telemetry::attribution::budget(&self.ledgers());
        let share = |t: TenantId| self.cfg.qos.policy(t).share;
        let active = books.tenants.iter().filter(|(_, b)| b.row.submitted > 0);
        let weighted: Vec<f64> = active
            .map(|(&t, b)| b.row.good_bytes as f64 / share(t))
            .collect();
        r.fairness_index = jain_index(&weighted);
        let p95_ms = SloPolicy::default().latency_p95_ms;
        r.tenants = (books.tenants.iter())
            .map(|(&t, b)| {
                let p95_s = LatencyStats::from_latencies(b.latencies_s.clone()).p95_s;
                TenantReport {
                    tenant: t.0,
                    share: share(t),
                    p95_s,
                    p95_ok: b.row.completed == 0 || p95_s * 1e3 <= p95_ms,
                    ..b.row.clone()
                }
            })
            .collect();
        r
    }

    /// The telemetry bundle (registry, timeline, lifecycle log), read-only.
    pub fn telemetry(&self) -> &Telemetry {
        &self.books.telemetry
    }

    /// The telemetry bundle, writable — how the gateway registers its
    /// `gate_*` counters in the same registry the exporters render.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.books.telemetry
    }

    /// The configuration the fleet was brought up with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Latency percentiles over every completion so far.
    fn latency_stats(&self) -> LatencyStats {
        let lat = self.books.completions.iter().map(Completion::latency_s);
        LatencyStats::from_latencies(lat.collect())
    }

    /// Evaluates the default [`SloPolicy`] against the run so far.
    pub fn slo_report(&self) -> SloReport {
        let p95_ms = self.latency_stats().p95_s * 1e3;
        let (goodput, t) = (self.books.goodput_gbs(), &self.books.telemetry);
        let policy = SloPolicy::default();
        slo::evaluate(&policy, p95_ms, goodput, &t.registry, &t.timeline)
    }

    /// Renders the run's `bifft-metrics-v1` document. Call after
    /// [`FftService::drain`] for the sealed series.
    pub fn metrics_json(&self) -> String {
        let t = &self.books.telemetry;
        telemetry::metrics_json(&t.registry, &t.timeline, &self.slo_report())
    }

    /// Renders the run's metrics in Prometheus text exposition.
    pub fn prometheus_text(&self) -> String {
        telemetry::prometheus_text(&self.books.telemetry.registry, &self.slo_report())
    }

    /// Time ledgers of every completed request, in completion order.
    pub fn ledgers(&self) -> Vec<telemetry::Ledger> {
        telemetry::attribution::collect(&self.books.telemetry.lifecycle)
    }

    /// Renders the run's [`crate::ATTR_SCHEMA`] attribution document. Call after
    /// [`FftService::drain`] so every completed request is ledgered.
    pub fn attribution_json(&self) -> String {
        telemetry::attribution::render_attr_json(&self.ledgers())
    }

    /// Audits the conservation invariant (category sum == e2e latency)
    /// over every completed request's ledger.
    pub fn attribution_audit(&self) -> telemetry::Audit {
        telemetry::attribution::audit(&self.ledgers())
    }

    /// Drains the per-card sim-prof traces and merges them with the
    /// request waterfalls into one Chrome trace document, or `None` when
    /// `record_trace` was off. Draining consumes the accumulated events, so
    /// call once at end of run.
    pub fn chrome_trace(&mut self) -> Option<String> {
        let mut cards = Vec::new();
        for c in &mut self.cards {
            let i = c.index;
            cards.push((i, c.take_trace()?));
        }
        let log = &self.books.telemetry.lifecycle;
        Some(telemetry::export::chrome_trace(&cards, log))
    }

    /// Drains, then reports — graceful shutdown in one call.
    pub fn finish(mut self) -> ServeReport {
        self.drain();
        self.report()
    }

    /// Validator diagnostics merged across the fleet (cards and sharded
    /// plans), or `None` when `check_hazards` was off.
    pub fn check_report(&self) -> Option<CheckReport> {
        let mut merged: Option<CheckReport> = None;
        for c in &self.cards {
            if let Some(rep) = c.gpu.check_report() {
                merged.get_or_insert_with(CheckReport::default).merge(rep);
            }
        }
        for plan in self.sharded.values() {
            if let Some(rep) = plan.check_report() {
                merged.get_or_insert_with(CheckReport::default).merge(rep);
            }
        }
        merged
    }
}

/// The shape envelope — every malformed shape or hint admission can reject
/// without touching a card, checked axis by axis so no product of the dims
/// is formed: rows ask [`Fft1dBatchGpu::check_len`], volumes the envelope
/// of the algorithm they would run ([`Algorithm::check_shape`]). Neither
/// allocates unless it fails. The payload length and the fleet-capacity
/// rejections (oversized rows, unallocatable volumes) follow in
/// `check_spec`.
fn validate_shape(spec: &RequestSpec) -> Result<(), FftError> {
    match spec.shape {
        Shape::Rows1d { rows: 0, .. } => Err(FftError::BadPlanConfig {
            param: "rows",
            value: 0,
            reason: "a rows request must carry at least one row".to_string(),
        }),
        Shape::Rows1d { n, .. } => Fft1dBatchGpu::check_len(n),
        Shape::Volume { nx, ny, nz } => match spec.algorithm {
            Some(algorithm @ (Algorithm::OutOfCore | Algorithm::MultiGpu)) => {
                Err(FftError::UnsupportedAlgorithm {
                    algorithm,
                    reason: "the service routes oversized volumes itself; hint a single-card algorithm or none",
                })
            }
            hint => hint.unwrap_or_default().check_shape(nx, ny, nz),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{QuotaKind, TenantId, TenantPolicy};
    use crate::request::{Priority, Shape};

    fn rows_spec(n: usize, rows: usize, seed: u64) -> RequestSpec {
        RequestSpec::seeded(Shape::Rows1d { n, rows }, Direction::Forward, seed)
    }

    fn tiny_service(cfg: ServeConfig) -> FftService {
        FftService::new(cfg).unwrap()
    }

    #[test]
    fn rejects_malformed_shapes_before_queueing() {
        let mut svc = tiny_service(ServeConfig::default());
        let bad_n = svc.submit(rows_spec(48, 2, 1), 0.0);
        assert!(matches!(
            bad_n,
            Err(Rejection::Unsupported(FftError::BadPlanConfig {
                param: "n",
                ..
            }))
        ));
        let mut short = rows_spec(64, 2, 2);
        short.payload.pop();
        assert!(matches!(
            svc.submit(short, 0.0),
            Err(Rejection::Unsupported(FftError::VolumeMismatch { .. }))
        ));
        let bad_vol = RequestSpec::seeded(
            Shape::Volume {
                nx: 8,
                ny: 16,
                nz: 16,
            },
            Direction::Forward,
            3,
        );
        assert!(matches!(
            svc.submit(bad_vol, 0.0),
            Err(Rejection::Unsupported(FftError::UnsupportedSize {
                axis: 'x',
                ..
            }))
        ));
        let hinted = RequestSpec::seeded(
            Shape::Volume {
                nx: 16,
                ny: 16,
                nz: 16,
            },
            Direction::Forward,
            4,
        )
        .algorithm(Algorithm::MultiGpu);
        assert!(matches!(
            svc.submit(hinted, 0.0),
            Err(Rejection::Unsupported(
                FftError::UnsupportedAlgorithm { .. }
            ))
        ));
        let r = svc.finish();
        assert_eq!(r.submitted, 4);
        assert_eq!(r.rejected_unsupported, 4);
        assert_eq!(r.admitted, 0);
    }

    /// A volume is admitted by the envelope of the algorithm it would run:
    /// a 512-point Y is outside the default five-step plan's and inside a
    /// six-step hint's.
    #[test]
    fn volume_envelope_follows_the_hint() {
        let mut svc = tiny_service(ServeConfig::default());
        let tall = |seed| {
            let shape = Shape::Volume {
                nx: 16,
                ny: 512,
                nz: 16,
            };
            RequestSpec::seeded(shape, Direction::Forward, seed)
        };
        assert!(matches!(
            svc.submit(tall(1), 0.0),
            Err(Rejection::Unsupported(FftError::UnsupportedSize {
                axis: 'y',
                n: 512,
                max: 256,
            }))
        ));
        svc.submit(tall(2).algorithm(Algorithm::SixStep), 0.0)
            .unwrap();
        let r = svc.finish();
        assert_eq!((r.rejected_unsupported, r.completed), (1, 1));
    }

    #[test]
    fn rejects_rows_payloads_larger_than_a_staging_slot() {
        let cfg = ServeConfig {
            max_batch_elems: 1 << 12,
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        // 256 * 17 = 4352 > 4096: valid-shaped but bigger than one slot —
        // must bounce at admission, not panic mid-upload.
        let too_big = svc.submit(rows_spec(256, 17, 1), 0.0);
        assert!(matches!(
            too_big,
            Err(Rejection::Oversized {
                elems: 4352,
                limit_elems: 4096,
            })
        ));
        // Exactly one slot still fits.
        svc.submit(rows_spec(256, 16, 2), 0.0).unwrap();
        let r = svc.finish();
        assert_eq!(r.rejected_oversized, 1);
        assert_eq!(r.rejected_unsupported, 0);
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn fleet_oversized_volume_fails_gracefully_then_rejects() {
        // 1 MiB cards: a 64^3 volume (2 MiB of data) cannot fit even the
        // sharded two-card fleet. The first request must fail cleanly (no
        // panic); later ones must bounce at admission.
        let mut spec = gpu_sim::DeviceSpec::gts8800();
        spec.memory_bytes = 1 << 20;
        let cfg = ServeConfig {
            spec,
            n_gpus: 2,
            streams_per_card: 1,
            max_batch_elems: 1 << 10,
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        let req = RequestSpec::seeded(
            Shape::Volume {
                nx: 64,
                ny: 64,
                nz: 64,
            },
            Direction::Forward,
            1,
        );
        let ticket = svc.submit(req.clone(), 0.0).unwrap();
        svc.drain();
        assert!(svc.completions().is_empty());
        assert_eq!(svc.failures().len(), 1);
        assert_eq!(svc.failures()[0].0, ticket.id);
        assert!(matches!(svc.failures()[0].1, FftError::Alloc(_)));
        assert!(matches!(svc.poll(ticket), PollStatus::Failed(_)));
        assert!(matches!(
            svc.submit(req, 1.0),
            Err(Rejection::Unallocatable(FftError::Alloc(_)))
        ));
        let r = svc.report();
        assert_eq!(r.failed, 1);
        assert_eq!(r.completed, 0);
        assert_eq!(r.rejected_unallocatable, 1);
        assert_eq!(r.rejected_unsupported, 0);
    }

    #[test]
    fn queue_full_backpressure() {
        let cfg = ServeConfig {
            n_gpus: 1,
            streams_per_card: 0,
            queue_capacity: 2,
            max_batch_requests: 1,
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        // All at t=0: the first dispatches immediately (freeing its queue
        // slot), two more sit in the queue, the fourth bounces.
        for seed in 0..3 {
            svc.submit(rows_spec(256, 64, seed), 0.0).unwrap();
        }
        let err = svc.submit(rows_spec(256, 64, 3), 0.0);
        assert!(matches!(err, Err(Rejection::QueueFull { capacity: 2 })));
        let r = svc.finish();
        assert_eq!(r.rejected_queue_full, 1);
        assert_eq!(r.completed, 3);
    }

    #[test]
    fn infeasible_deadlines_are_shed_and_met_ones_kept() {
        let mut svc = tiny_service(ServeConfig {
            n_gpus: 1,
            ..ServeConfig::default()
        });
        let fine = rows_spec(256, 16, 1).deadline_s(1.0);
        svc.submit(fine, 0.0).unwrap();
        let hopeless = rows_spec(256, 16, 2).deadline_s(1e-9);
        assert!(matches!(
            svc.submit(hopeless, 0.0),
            Err(Rejection::DeadlineInfeasible { .. })
        ));
        let r = svc.finish();
        assert_eq!(r.rejected_deadline, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(r.timeouts, 0);
    }

    #[test]
    fn coalesces_backlog_and_reports_histogram() {
        let cfg = ServeConfig {
            n_gpus: 1,
            streams_per_card: 1,
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        // First submit dispatches alone; the rest arrive while the lane is
        // busy and coalesce on the next free event during drain.
        for seed in 0..5 {
            svc.submit(rows_spec(256, 16, seed), 0.0).unwrap();
        }
        let r = svc.finish();
        assert_eq!(r.completed, 5);
        assert_eq!(r.batch_histogram.get(&1), Some(&1));
        assert_eq!(r.batch_histogram.get(&4), Some(&1));
        assert!(r.queue_max_depth >= 4);
        assert!(r.mean_batch_size() > 1.0);
    }

    #[test]
    fn priorities_jump_the_queue() {
        let cfg = ServeConfig {
            n_gpus: 1,
            streams_per_card: 1,
            max_batch_requests: 1,
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        let first = svc.submit(rows_spec(256, 16, 0), 0.0).unwrap(); // dispatches now
        let normal = svc.submit(rows_spec(256, 16, 1), 0.0).unwrap();
        let high = svc
            .submit(rows_spec(256, 16, 2).priority(Priority::High), 0.0)
            .unwrap();
        svc.drain();
        let order: Vec<RequestId> = svc.completions().iter().map(|c| c.id).collect();
        assert_eq!(
            order,
            vec![first.id, high.id, normal.id],
            "high priority dispatches before the earlier normal request"
        );
    }

    #[test]
    fn placement_prefers_the_warm_card() {
        let cfg = ServeConfig {
            n_gpus: 2,
            streams_per_card: 1,
            max_batch_requests: 1,
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        // Warm card 0 with a cheap 256-length plan; the expensive 128x64
        // lands on card 1 because card 0's only lane is still busy.
        svc.submit(rows_spec(256, 1, 0), 0.0).unwrap();
        svc.submit(rows_spec(128, 64, 1), 0.0).unwrap();
        svc.drain();
        // Both cards are idle now and card 0 freed *first* (its batch was
        // far cheaper), so the old latest-horizon comparator picked the
        // cold card 0 and serialized a fresh 128 plan build in front of
        // the transform. Shortest-expected-completion picks the warm
        // card 1.
        let repeat = svc.submit(rows_spec(128, 64, 2), svc.now_s()).unwrap();
        svc.drain();
        match svc.poll(repeat) {
            PollStatus::Done(c) => assert_eq!(c.card, Some(1), "warm card serves the repeat"),
            other => panic!("expected Done, got {other:?}"),
        }
        let r = svc.report();
        assert_eq!(r.cards[1].plan_misses, 1, "no rebuild of the 128 plan");
        assert_eq!(r.cards[1].plan_hits, 1);
        assert_eq!(r.cards[0].plan_misses, 1);
    }

    #[test]
    fn preemption_aborts_requeues_and_charges_the_victim() {
        let cfg = ServeConfig {
            n_gpus: 1,
            streams_per_card: 1,
            max_batch_requests: 1,
            qos: crate::qos::QosConfig {
                preemption: true,
                ..crate::qos::QosConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        let low = svc
            .submit(rows_spec(256, 64, 0).priority(Priority::Low), 0.0)
            .unwrap();
        let high = svc
            .submit(rows_spec(256, 4, 1).priority(Priority::High), 1e-6)
            .unwrap();
        svc.drain();
        // The low batch was aborted at its first stream-safe point, the
        // high request took the lane, and the victim re-ran afterwards.
        let order: Vec<RequestId> = svc.completions().iter().map(|c| c.id).collect();
        assert_eq!(order, vec![high.id, low.id]);
        let r = svc.report();
        assert_eq!(r.preemptions, 1);
        assert!(r.preempted_s > 0.0);
        assert_eq!(r.completed, 2);
        // The victim kept its original submission stamps across the
        // requeue and its waterfall is still a monotone full pipeline.
        let wf = svc.telemetry().lifecycle.get(low.id).unwrap();
        assert_eq!(wf.stage_s(Stage::Submitted), Some(0.0));
        assert_eq!(wf.stage_s(Stage::Admitted), Some(0.0));
        assert!(wf.is_monotone());
        assert!(wf.is_complete_pipeline());
        assert_eq!(wf.preempts, 1);
        assert!(wf.preempted_s > 0.0);
        // Makespan is still last-completion minus first-arrival — the
        // preempt/requeue cycle does not corrupt the tally.
        let last = svc
            .completions()
            .iter()
            .map(|c| c.completed_s)
            .fold(0.0, f64::max);
        assert_eq!(r.makespan_s, last);
        // Conservation holds with the wasted time in its own category.
        let audit = svc.attribution_audit();
        assert!(audit.ok(), "ledger conservation: {audit:?}");
    }

    #[test]
    fn quota_rejections_bounce_before_the_queue() {
        let mut qos = crate::qos::QosConfig::default();
        qos.tenants.insert(
            TenantId(1),
            TenantPolicy {
                rate_rps: Some(10.0),
                burst: 1.0,
                ..TenantPolicy::default()
            },
        );
        let cfg = ServeConfig {
            qos,
            ..ServeConfig::default()
        };
        let mut svc = tiny_service(cfg);
        svc.submit(rows_spec(256, 4, 0).tenant(TenantId(1)), 0.0)
            .unwrap();
        let err = svc.submit(rows_spec(256, 4, 1).tenant(TenantId(1)), 0.0);
        assert!(matches!(
            err,
            Err(Rejection::QuotaExceeded {
                tenant: TenantId(1),
                kind: QuotaKind::Rate,
            })
        ));
        // The default tenant is unlimited and unaffected.
        svc.submit(rows_spec(256, 4, 2), 0.0).unwrap();
        let r = svc.finish();
        assert_eq!(r.rejected_quota, 1);
        assert_eq!(r.completed, 2);
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].tenant, 0);
        assert_eq!(r.tenants[1].tenant, 1);
        assert_eq!(r.tenants[1].submitted, 2);
        assert_eq!(r.tenants[1].admitted, 1);
        assert_eq!(r.tenants[1].rejected_quota, 1);
        assert!(r.fairness_index > 0.0);
    }

    #[test]
    fn deterministic_reports() {
        let run = || {
            let mut svc = tiny_service(ServeConfig::default());
            for seed in 0..8u64 {
                let spec = rows_spec(256, 32, seed);
                svc.submit(spec, seed as f64 * 10e-6).unwrap();
            }
            svc.finish().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn builder_validates_and_reports_typed_errors() {
        let cfg = ServeConfig::builder()
            .gpus(4)
            .streams(3)
            .queue_capacity(16)
            .batch_requests(2)
            .build()
            .unwrap();
        assert_eq!(cfg.n_gpus, 4);
        assert_eq!(cfg.streams_per_card, 3);
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.max_batch_requests, 2);
        assert!(matches!(
            ServeConfig::builder().gpus(3).build(),
            Err(FftError::BadPlanConfig {
                param: "n_gpus",
                ..
            })
        ));
        assert!(matches!(
            ServeConfig::builder().queue_capacity(0).build(),
            Err(FftError::BadPlanConfig {
                param: "queue_capacity",
                ..
            })
        ));
        // new() enforces the same invariants for configs built by hand.
        assert!(FftService::new(ServeConfig {
            n_gpus: 3,
            ..ServeConfig::default()
        })
        .is_err());
    }

    #[test]
    fn poll_tracks_a_ticket_through_its_lifecycle() {
        let cfg = ServeConfig::builder()
            .gpus(1)
            .streams(1)
            .batch_requests(1)
            .build()
            .unwrap();
        let mut svc = FftService::new(cfg).unwrap();
        let first = svc.submit(rows_spec(256, 16, 0), 0.0).unwrap(); // dispatches now
        let queued = svc.submit(rows_spec(256, 16, 1), 0.0).unwrap();
        assert_eq!(first.correlation(), first.id.0);
        assert!(matches!(svc.poll(queued), PollStatus::Queued));
        // A correlation id the service never issued.
        let forged = Ticket {
            id: RequestId(1 << 40),
            at_s: 0.0,
        };
        assert!(matches!(svc.poll(forged), PollStatus::Unknown));
        svc.drain();
        match svc.poll(queued) {
            PollStatus::Done(c) => assert_eq!(c.id, queued.id),
            other => panic!("expected Done, got {other:?}"),
        }
        // A rejected submission's id never becomes pollable.
        let rejected = svc.submit(rows_spec(48, 2, 2), svc.now_s());
        assert!(rejected.is_err());
        let ghost = Ticket {
            id: RequestId(svc.completions().len() as u64),
            at_s: 0.0,
        };
        // ghost happens to name the rejected id (ids are dense): Unknown.
        assert!(matches!(svc.poll(ghost), PollStatus::Unknown));
    }

    fn conv_pipe(seed_a: u64, seed_b: u64) -> PipelineRequest {
        crate::pipeline::SeededPipeline {
            dims: (16, 16, 16),
            input_seeds: vec![seed_a, seed_b],
            stages: crate::pipeline::convolution_stages(16 * 16 * 16),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: TenantId::default(),
        }
        .materialize()
    }

    #[test]
    fn pipeline_deadline_costs_the_whole_dag_not_its_first_stage() {
        let mut svc = tiny_service(ServeConfig::default());
        let stages = crate::pipeline::convolution_stages(16 * 16 * 16);
        let first_s = Estimator::new().estimate_s(stages[0].kind, 16 * 16 * 16);
        let dag_s = svc.dag_estimate_s(&stages, 16 * 16 * 16);
        // A deadline every individual stage meets but the DAG cannot: a
        // first-stage-only estimator admits this and blows the deadline
        // deterministically; whole-DAG costing sheds it at admission.
        let deadline = first_s * 2.0;
        assert!(
            deadline < dag_s,
            "the probe deadline must sit between one stage and the DAG"
        );
        let mut pipe = conv_pipe(1, 2);
        pipe.deadline_s = Some(deadline);
        match svc.submit_pipeline(pipe, 0.0) {
            Err(Rejection::DeadlineInfeasible {
                estimated_s,
                deadline_s,
            }) => {
                assert!(estimated_s > deadline_s);
                assert!(estimated_s >= dag_s);
            }
            other => panic!("expected DeadlineInfeasible, got {other:?}"),
        }
        // The same DAG under a full-cost deadline admits and completes.
        let mut ok = conv_pipe(1, 2);
        ok.deadline_s = Some(dag_s * 10.0);
        svc.submit_pipeline(ok, 0.0).unwrap();
        let r = svc.finish();
        assert_eq!(r.rejected_deadline, 1);
        assert_eq!(r.pipelines, 1);
    }

    #[test]
    fn pipeline_deadline_waits_for_a_whole_card_not_a_single_lane() {
        let cfg = || ServeConfig::builder().gpus(1).streams(2).build().unwrap();
        // Probe: how long one rows batch holds its lane on this fleet.
        let mut probe = tiny_service(cfg());
        probe.submit(rows_spec(256, 16, 7), 0.0).unwrap();
        probe.drain();
        let rows_t = probe.completions()[0].completed_s;
        assert!(rows_t > 0.0);

        // Main run: the same rows batch occupies lane 0; lane 1 idles. A
        // pipeline needs the *whole* card, so its wait horizon is rows_t —
        // a single-lane estimate would claim zero wait and admit this.
        let mut svc = tiny_service(cfg());
        svc.submit(rows_spec(256, 16, 7), 0.0).unwrap();
        let stages = crate::pipeline::convolution_stages(16 * 16 * 16);
        let dag_s = tiny_service(cfg()).dag_estimate_s(&stages, 16 * 16 * 16);
        let mut pipe = conv_pipe(1, 2);
        pipe.deadline_s = Some(dag_s + rows_t / 2.0);
        match svc.submit_pipeline(pipe, 0.0) {
            Err(Rejection::DeadlineInfeasible { estimated_s, .. }) => {
                assert!(
                    estimated_s >= rows_t + dag_s,
                    "the estimate charges the whole-card wait: {estimated_s} vs {rows_t}"
                );
            }
            other => panic!("expected DeadlineInfeasible, got {other:?}"),
        }
        let r = svc.finish();
        assert_eq!(r.rejected_deadline, 1);
    }

    #[test]
    fn high_priority_singles_outrank_waiting_low_priority_pipelines() {
        let cfg = ServeConfig::builder().gpus(1).streams(2).build().unwrap();
        let mut svc = tiny_service(cfg);
        // Fill the only card with a pipeline, then queue a low-priority
        // DAG and a high-priority single behind it.
        svc.submit_pipeline(conv_pipe(1, 2), 0.0).unwrap();
        let mut low = conv_pipe(3, 4);
        low.priority = Priority::Low;
        let low_t = svc.submit_pipeline(low, 1e-6).unwrap();
        let mut spec = rows_spec(256, 16, 5);
        spec.priority = Priority::High;
        let high_t = svc.submit(spec, 2e-6).unwrap();
        svc.drain();
        let done = |t: Ticket| {
            svc.completions()
                .iter()
                .find(|c| c.id == t.id)
                .expect("both complete")
                .completed_s
        };
        assert!(
            done(high_t) < done(low_t),
            "the freed card must serve the high-priority single before \
             the low-priority pipeline"
        );
    }

    /// When `pipe_first`, a DAG is admitted before an equal-priority single
    /// (else after it); both wait behind a card a first DAG occupies.
    /// Returns whether the waiting DAG dispatched before the single.
    fn dag_dispatches_first(pipe_first: bool) -> bool {
        let cfg = ServeConfig::builder().gpus(1).streams(2).build().unwrap();
        let mut svc = tiny_service(cfg);
        svc.submit_pipeline(conv_pipe(1, 2), 0.0).unwrap();
        let (dag, single) = if pipe_first {
            let dag = svc.submit_pipeline(conv_pipe(3, 4), 1e-6).unwrap();
            (dag, svc.submit(rows_spec(256, 16, 5), 2e-6).unwrap())
        } else {
            let single = svc.submit(rows_spec(256, 16, 5), 1e-6).unwrap();
            (svc.submit_pipeline(conv_pipe(3, 4), 2e-6).unwrap(), single)
        };
        assert_eq!(svc.queue_depth(), 2, "both wait behind the busy card");
        svc.drain();
        let dispatched = |t: Ticket| {
            let wf = svc.telemetry().lifecycle.get(t.id).unwrap();
            wf.stage_s(Stage::Dispatched).expect("dispatched")
        };
        dispatched(dag) < dispatched(single)
    }

    #[test]
    fn equal_priority_singles_and_dags_dispatch_in_rank_order() {
        // One tenant: vft follows admission order, so whichever of the two
        // was admitted first takes the card when it frees.
        assert!(dag_dispatches_first(true), "earlier DAG goes first");
        assert!(!dag_dispatches_first(false), "earlier single goes first");
    }

    #[test]
    fn a_waiting_dag_takes_one_unit_of_queue_capacity() {
        let cfg = ServeConfig::builder()
            .gpus(1)
            .streams(1)
            .queue_capacity(2)
            .build()
            .unwrap();
        let mut svc = tiny_service(cfg);
        // Occupies the card; the queue stays empty.
        svc.submit_pipeline(conv_pipe(1, 2), 0.0).unwrap();
        assert_eq!(svc.queue_depth(), 0);
        svc.submit_pipeline(conv_pipe(3, 4), 1e-6).unwrap();
        svc.submit(rows_spec(256, 16, 5), 2e-6).unwrap();
        assert_eq!(svc.queue_depth(), 2, "one DAG plus one single");
        assert!(matches!(
            svc.submit(rows_spec(256, 16, 6), 3e-6),
            Err(Rejection::QueueFull { capacity: 2 })
        ));
        assert!(matches!(
            svc.submit_pipeline(conv_pipe(7, 8), 4e-6),
            Err(Rejection::QueueFull { capacity: 2 })
        ));
        let r = svc.finish();
        assert_eq!(r.rejected_queue_full, 2);
        assert_eq!(r.completed, 3);
        assert_eq!(r.pipelines, 2);
    }

    #[test]
    fn poll_reports_a_waiting_dag_as_queued_then_done() {
        let cfg = ServeConfig::builder().gpus(1).streams(2).build().unwrap();
        let mut svc = tiny_service(cfg);
        svc.submit_pipeline(conv_pipe(1, 2), 0.0).unwrap();
        let waiting = svc.submit_pipeline(conv_pipe(3, 4), 1e-6).unwrap();
        assert!(matches!(svc.poll(waiting), PollStatus::Queued));
        svc.drain();
        match svc.poll(waiting) {
            PollStatus::Done(c) => {
                assert_eq!(c.id, waiting.id);
                assert_eq!(c.batch_size, 1);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn seeded_submissions_validate_the_envelope_before_materializing() {
        let mut svc = tiny_service(ServeConfig::default());
        // Hostile template: in-envelope stage list, grotesque dims. The
        // admission path must bounce it from the seeds alone — payload
        // materialization would allocate (2^23)^3 complex samples.
        let hostile = crate::pipeline::SeededPipeline {
            dims: (1 << 23, 1 << 23, 1 << 23),
            input_seeds: vec![1, 2],
            stages: crate::pipeline::convolution_stages(16 * 16 * 16),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: TenantId::default(),
        };
        match svc.submit_seeded_pipeline(hostile, 0.0) {
            Err(Rejection::UnsupportedStage(detail)) => {
                assert!(detail.contains("power of two"), "{detail}")
            }
            other => panic!("expected UnsupportedStage, got {other:?}"),
        }
        // The DAG executor runs five-step plans, so a 512-point Z is
        // outside its envelope too.
        let tall = crate::pipeline::SeededPipeline {
            dims: (16, 16, 512),
            input_seeds: vec![1, 2],
            stages: crate::pipeline::convolution_stages(16 * 16 * 512),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: TenantId::default(),
        };
        match svc.submit_seeded_pipeline(tall, 0.0) {
            Err(Rejection::UnsupportedStage(detail)) => {
                assert!(detail.contains("16..=256"), "{detail}")
            }
            other => panic!("expected UnsupportedStage, got {other:?}"),
        }
        // A valid template admits through the same entry point and runs.
        let ok = crate::pipeline::SeededPipeline {
            dims: (16, 16, 16),
            input_seeds: vec![1, 2],
            stages: crate::pipeline::convolution_stages(16 * 16 * 16),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: TenantId::default(),
        };
        svc.submit_seeded_pipeline(ok, 0.0).unwrap();
        let r = svc.finish();
        assert_eq!(r.rejected_unsupported, 2);
        assert_eq!(r.pipelines, 1);
    }

    #[test]
    fn seeded_singles_check_the_shape_before_materializing() {
        let mut svc = tiny_service(ServeConfig::builder().keep_outputs(true).build().unwrap());
        let seeded = |shape| SeededSpec {
            shape,
            direction: Direction::Forward,
            algorithm: None,
            priority: Priority::Normal,
            deadline_s: None,
            tenant: TenantId::default(),
            seed: 3,
        };
        let mut submit = |shape| svc.submit_seeded(&seeded(shape), 0.0);
        // 2^33 samples (64 GiB) if materialized: bounced as oversized.
        let rows = Shape::Rows1d {
            n: 512,
            rows: 1 << 24,
        };
        assert!(matches!(
            submit(rows),
            Err(Rejection::Oversized {
                elems: 0x2_0000_0000,
                limit_elems: 0x10_0000,
            })
        ));
        // 2^48 samples: the length envelope bounces it first.
        let long = Shape::Rows1d {
            n: 1 << 24,
            rows: 1 << 24,
        };
        assert!(matches!(
            submit(long),
            Err(Rejection::Unsupported(FftError::BadPlanConfig {
                param: "n",
                ..
            }))
        ));
        // The product of these axes overflows: the axis check runs first.
        let huge = Shape::Volume {
            nx: 1 << 24,
            ny: 1 << 24,
            nz: 1 << 24,
        };
        assert!(matches!(
            submit(huge),
            Err(Rejection::Unsupported(FftError::UnsupportedSize {
                axis: 'x',
                ..
            }))
        ));
        // A valid template transforms the payload `materialize` builds.
        let ok = seeded(Shape::Rows1d { n: 64, rows: 2 });
        let seeded_id = svc.submit_seeded(&ok, 0.0).unwrap().id;
        let full_id = svc.submit(ok.materialize(), 0.0).unwrap().id;
        svc.drain();
        let output = |id| match svc.poll(Ticket { id, at_s: 0.0 }) {
            PollStatus::Done(c) => c.output.expect("outputs kept"),
            other => panic!("expected a completion, got {other:?}"),
        };
        assert_eq!(output(seeded_id), output(full_id));
        let r = svc.report();
        assert_eq!((r.rejected_oversized, r.rejected_unsupported), (1, 2));
        assert_eq!(r.completed, 2);
    }

    #[test]
    fn malformed_dags_reject_with_the_typed_stage_error() {
        let mut svc = tiny_service(ServeConfig::default());
        let mut pipe = conv_pipe(3, 4);
        // Dangle the product's second operand off the end of the DAG.
        pipe.stages[2].src2 = Some(crate::pipeline::Operand::Stage(9));
        match svc.submit_pipeline(pipe, 0.0) {
            Err(Rejection::UnsupportedStage(detail)) => {
                assert!(!detail.is_empty(), "the rejection names the defect")
            }
            other => panic!("expected UnsupportedStage, got {other:?}"),
        }
        let r = svc.finish();
        assert_eq!(r.rejected_unsupported, 1);
        assert_eq!(r.pipelines, 0);
    }

    #[test]
    fn pipeline_attribution_conserves_and_replays_bit_identically() {
        let run = || {
            let mut svc = tiny_service(ServeConfig::default());
            for seed in 0..4u64 {
                svc.submit_pipeline(conv_pipe(seed, seed + 100), seed as f64 * 1e-4)
                    .unwrap();
            }
            // Mixed traffic: a rows request shares the fleet mid-run.
            svc.submit(rows_spec(256, 16, 9), 2e-4).unwrap();
            svc.drain();
            let audit = svc.attribution_audit();
            assert!(audit.ok(), "conservation with resident holds: {audit:?}");
            let r = svc.finish();
            assert_eq!(r.pipelines, 4);
            assert!(r.resident_hits > 0, "intermediates stayed on the card");
            assert!(r.resident_s > 0.0, "the resident category accrued time");
            r.to_json()
        };
        assert_eq!(run(), run());
    }

    /// A DAG whose live set outgrows its card mid-run (both inputs are
    /// uploaded, then the product's destination cannot be allocated and
    /// nothing unpinned is left to spill) fails cleanly: the request lands
    /// in `failures()`, the card's sim-prof span closes, the card is held
    /// until the clock the failed run reached, and its slots are freed so
    /// the next DAG runs.
    #[test]
    fn a_dag_that_fails_mid_run_closes_its_span_and_frees_its_card() {
        use crate::pipeline::{Operand, PointwiseOp};
        let mut spec = DeviceSpec::gts8800();
        // Room for the 16^3 plan, its scratch and two live volumes.
        spec.memory_bytes = 128 << 10;
        let cfg = ServeConfig::builder()
            .spec(spec)
            .gpus(1)
            .streams(0)
            .batch_elems(1024)
            .record_trace(true)
            .build()
            .unwrap();
        let mut svc = tiny_service(cfg);
        let (a, b) = (Operand::Input(0), Operand::Input(1));
        let mul = |x, y| PipelineStage::new(StageKind::Pointwise(PointwiseOp::Multiply), x).src2(y);
        let dag = |stages| {
            SeededPipeline {
                dims: (16, 16, 16),
                input_seeds: vec![1, 2],
                stages,
                priority: Priority::Normal,
                deadline_s: None,
                tenant: TenantId::default(),
            }
            .materialize()
        };
        let both_live = vec![
            mul(a, b),
            mul(a, b),
            mul(Operand::Stage(0), Operand::Stage(1)),
        ];
        let t = svc.submit_pipeline(dag(both_live), 0.0).unwrap();
        assert_eq!(svc.failures().len(), 1);
        assert_eq!(svc.failures()[0].0, t.id);
        assert!(matches!(svc.failures()[0].1, FftError::Alloc(_)));
        assert!(matches!(svc.poll(t), PollStatus::Failed(_)));
        let reached_s = svc.cards[0].gpu.clock_s();
        assert!(
            reached_s > 0.0,
            "the inputs' uploads ran before the failure"
        );
        assert_eq!(svc.cards[0].all_free_s(), reached_s);
        let trace = svc.cards[0].take_trace().unwrap();
        let count = |begin: bool| {
            let is = |e: &&gpu_sim::TraceEvent| match e {
                gpu_sim::TraceEvent::SpanBegin { .. } => begin,
                gpu_sim::TraceEvent::SpanEnd { .. } => !begin,
                _ => false,
            };
            trace.events.iter().filter(is).count()
        };
        assert_eq!(count(true), count(false), "every span closes");
        let span = trace
            .spans()
            .into_iter()
            .find(|s| s.name.starts_with("serve_pipe_"));
        assert_eq!(span.map(|s| s.end_s), Some(reached_s));
        // The failed run's slots were freed: a one-product DAG fits.
        let t2 = svc.submit_pipeline(dag(vec![mul(a, b)]), 1e-3).unwrap();
        svc.drain();
        assert!(matches!(svc.poll(t2), PollStatus::Done(_)));
        assert_eq!(svc.failures().len(), 1);
        assert!(svc.attribution_audit().ok());
        let r = svc.report();
        assert_eq!((r.admitted, r.completed, r.failed), (2, 1, 1));
    }
}
