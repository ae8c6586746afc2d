//! Typed requests, priorities and admission-rejection reasons.
//!
//! A request names *what* to transform (shape + direction + optional
//! algorithm hint), *how urgently* (priority, optional latency deadline)
//! and carries its payload. The service assigns the [`RequestId`] at
//! submission; everything else is caller-provided.

use crate::qos::{QuotaKind, TenantId};
use bifft::plan::{Algorithm, FftError};
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_math::Complex32;

/// Identifier the service assigns at submission, unique per service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// Proof of admission: what [`crate::service::FftService::submit`] hands
/// back for an accepted request.
///
/// The ticket's id doubles as the wire correlation id — `fft-gate` sends
/// it to clients verbatim, and [`crate::service::FftService::poll`] folds
/// the old scan-the-completions result lookup into one call keyed on it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ticket {
    /// The id assigned at submission — also the wire correlation id.
    pub id: RequestId,
    /// Simulated arrival time the request was admitted at, seconds.
    pub at_s: f64,
}

impl Ticket {
    /// The raw correlation id `bifft-wire-v1` frames carry.
    pub fn correlation(&self) -> u64 {
        self.id.0
    }
}

/// What [`crate::service::FftService::poll`] knows about a ticket.
#[derive(Clone, Debug)]
pub enum PollStatus {
    /// Admitted, still waiting in the queue (or bounced back off a busy
    /// fleet). Virtual time has not reached its dispatch yet.
    Queued,
    /// Finished; the completion record rides along.
    Done(Completion),
    /// Admitted but failed at dispatch (a volume even the whole fleet
    /// could not allocate), with the error that proved it.
    Failed(FftError),
    /// The service never issued this id (a forged or stale correlation id
    /// off the wire).
    Unknown,
}

/// What a request asks the service to transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `rows` contiguous `n`-point 1-D FFTs (the paper's Table 8 workload).
    /// Requests of equal `n` coalesce into one batched launch.
    Rows1d {
        /// Transform length (power of two, 4..=512).
        n: usize,
        /// Rows in this request's payload.
        rows: usize,
    },
    /// One `nx x ny x nz` 3-D FFT. Same-shape requests share a cached plan;
    /// volumes too large for one card route to the multi-GPU sharder.
    Volume {
        /// X extent.
        nx: usize,
        /// Y extent.
        ny: usize,
        /// Z extent.
        nz: usize,
    },
}

impl Shape {
    /// Payload size in complex elements.
    pub fn elems(&self) -> usize {
        match *self {
            Shape::Rows1d { n, rows } => n * rows,
            Shape::Volume { nx, ny, nz } => nx * ny * nz,
        }
    }

    /// Payload size in bytes (8 bytes per `Complex32`).
    pub fn payload_bytes(&self) -> u64 {
        self.elems() as u64 * 8
    }

    /// The coalescing key: requests with equal keys may share one launch.
    pub fn key(&self) -> ShapeKey {
        match *self {
            Shape::Rows1d { n, .. } => ShapeKey::Rows1d { n },
            Shape::Volume { nx, ny, nz } => ShapeKey::Volume { nx, ny, nz },
        }
    }

    /// Human-readable label (`"1d256x16"`, `"vol64x64x64"`).
    pub fn label(&self) -> String {
        match *self {
            Shape::Rows1d { n, rows } => format!("1d{n}x{rows}"),
            Shape::Volume { nx, ny, nz } => format!("vol{nx}x{ny}x{nz}"),
        }
    }
}

/// A [`Shape`] with the per-request multiplicity erased — the unit the
/// batcher and plan cache key on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShapeKey {
    /// Any number of `n`-point rows.
    Rows1d {
        /// Transform length.
        n: usize,
    },
    /// One `nx x ny x nz` volume.
    Volume {
        /// X extent.
        nx: usize,
        /// Y extent.
        ny: usize,
        /// Z extent.
        nz: usize,
    },
}

/// Scheduling priority; declaration order is dispatch order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Dispatched before everything else.
    High,
    /// The default.
    #[default]
    Normal,
    /// Yields to everything else.
    Low,
}

impl Priority {
    /// Stable lowercase label (attribution profile keys, wire encoding).
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// One submission: shape, direction, hints and payload.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    /// What to transform.
    pub shape: Shape,
    /// Forward or inverse (inverse left unnormalised, CUFFT convention).
    pub direction: Direction,
    /// Algorithm hint for volume requests (`None` = [`Algorithm::default`],
    /// five-step). Ignored for 1-D rows, which always use the fine-grained
    /// kernel.
    pub algorithm: Option<Algorithm>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Latency budget in seconds of simulated time, measured from arrival.
    /// Admission sheds requests whose estimated completion would bust it;
    /// completions past it count as timeouts and are excluded from goodput.
    pub deadline_s: Option<f64>,
    /// The tenant this request is billed to: its quota bucket, fair-share
    /// weight and preemption accounting (default tenant 0).
    pub tenant: TenantId,
    /// The data to transform (`shape.elems()` complex values).
    pub payload: Vec<Complex32>,
}

impl RequestSpec {
    /// A spec with a deterministic pseudo-random payload — the load
    /// generator's constructor (equal seeds give equal payloads).
    pub fn seeded(shape: Shape, direction: Direction, seed: u64) -> Self {
        RequestSpec {
            shape,
            direction,
            algorithm: None,
            priority: Priority::Normal,
            deadline_s: None,
            tenant: TenantId::default(),
            payload: seeded_payload(shape, seed),
        }
    }

    /// Sets the priority (builder style).
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Sets the latency deadline in seconds (builder style).
    pub fn deadline_s(mut self, d: f64) -> Self {
        self.deadline_s = Some(d);
        self
    }

    /// Sets the algorithm hint (builder style; volumes only).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = Some(a);
        self
    }

    /// Sets the tenant the request is billed to (builder style).
    pub fn tenant(mut self, t: TenantId) -> Self {
        self.tenant = t;
        self
    }
}

/// The `shape.elems()` pseudo-random samples `seed` expands to.
pub(crate) fn seeded_payload(shape: Shape, seed: u64) -> Vec<Complex32> {
    let mut rng = SplitMix64::new(seed);
    (0..shape.elems())
        .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect()
}

/// A [`RequestSpec`] with the payload still folded into its seed — the
/// wire-transportable form.
///
/// Seeded payloads are what make network load tests replayable: a client
/// ships this handful of scalars instead of megabytes of samples, the
/// gateway materialises the exact same payload via [`RequestSpec::seeded`],
/// and a same-seed run is bit-identical whether requests arrived in
/// process or over TCP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeededSpec {
    /// What to transform.
    pub shape: Shape,
    /// Forward or inverse.
    pub direction: Direction,
    /// Algorithm hint for volume requests.
    pub algorithm: Option<Algorithm>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Latency budget, simulated seconds from arrival.
    pub deadline_s: Option<f64>,
    /// The tenant the request is billed to.
    pub tenant: TenantId,
    /// The payload seed ([`RequestSpec::seeded`] reproduces the samples).
    pub seed: u64,
}

impl SeededSpec {
    /// Expands the template into a full [`RequestSpec`] with its payload.
    pub fn materialize(&self) -> RequestSpec {
        RequestSpec {
            payload: seeded_payload(self.shape, self.seed),
            ..self.header()
        }
    }

    /// The template's [`RequestSpec`] with the payload left empty: what
    /// admission checks before any sample exists.
    pub(crate) fn header(&self) -> RequestSpec {
        RequestSpec {
            shape: self.shape,
            direction: self.direction,
            algorithm: self.algorithm,
            priority: self.priority,
            deadline_s: self.deadline_s,
            tenant: self.tenant,
            payload: Vec::new(),
        }
    }
}

/// Why admission turned a request away.
#[derive(Clone, Debug, PartialEq)]
pub enum Rejection {
    /// The bounded submission queue is at capacity — backpressure.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The deadline cannot plausibly be met at the current backlog.
    DeadlineInfeasible {
        /// Estimated completion latency, seconds.
        estimated_s: f64,
        /// The request's budget, seconds.
        deadline_s: f64,
    },
    /// The shape or payload is invalid for this service.
    Unsupported(FftError),
    /// A rows payload larger than a lane's staging slot — valid in shape,
    /// but too big to ever dispatch on this fleet's configuration.
    Oversized {
        /// The request's payload size, complex elements.
        elems: usize,
        /// The largest rows payload a lane can stage.
        limit_elems: usize,
    },
    /// A volume that not even the whole fleet could allocate — known from a
    /// previous sharded attempt on the same shape.
    Unallocatable(FftError),
    /// The tenant is over its admission quota (token-bucket rate or
    /// in-flight cap) — per-tenant backpressure, not global.
    QuotaExceeded {
        /// The tenant whose quota bounced the request.
        tenant: TenantId,
        /// Which quota was exhausted.
        kind: QuotaKind,
    },
    /// A pipeline DAG the executor cannot run: an unknown or malformed
    /// stage (bad operand wiring, a reduce feeding a later stage, an
    /// in-place stage sharing its operand). Stable wire code 7.
    UnsupportedStage(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::DeadlineInfeasible {
                estimated_s,
                deadline_s,
            } => write!(
                f,
                "deadline infeasible: estimated {:.3} ms > budget {:.3} ms",
                estimated_s * 1e3,
                deadline_s * 1e3
            ),
            Rejection::Unsupported(e) => write!(f, "unsupported request: {e}"),
            Rejection::Oversized { elems, limit_elems } => write!(
                f,
                "payload of {elems} elems exceeds the {limit_elems}-elem staging slot"
            ),
            Rejection::Unallocatable(e) => {
                write!(f, "fleet cannot allocate this volume: {e}")
            }
            Rejection::QuotaExceeded { tenant, kind } => {
                write!(f, "{tenant} over its {kind} quota")
            }
            Rejection::UnsupportedStage(detail) => {
                write!(f, "unsupported stage kind: {detail}")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// One finished request, as the service reports it.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The id `submit` returned.
    pub id: RequestId,
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
    /// Simulated completion time, seconds.
    pub completed_s: f64,
    /// Card the request ran on (`None` for sharded multi-GPU runs, which
    /// span every card).
    pub card: Option<usize>,
    /// Requests coalesced into the same launch (1 = ran alone).
    pub batch_size: usize,
    /// Whether the deadline (if any) was missed.
    pub timed_out: bool,
    /// The transformed payload, when the service keeps outputs
    /// (`ServeConfig::keep_outputs`).
    pub output: Option<Vec<Complex32>>,
}

impl Completion {
    /// Arrival-to-completion latency, seconds.
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.arrival_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_accounting() {
        let r = Shape::Rows1d { n: 256, rows: 16 };
        assert_eq!(r.elems(), 4096);
        assert_eq!(r.payload_bytes(), 32768);
        assert_eq!(r.key(), ShapeKey::Rows1d { n: 256 });
        assert_eq!(r.label(), "1d256x16");
        let v = Shape::Volume {
            nx: 64,
            ny: 32,
            nz: 16,
        };
        assert_eq!(v.elems(), 64 * 32 * 16);
        assert_eq!(
            v.key(),
            ShapeKey::Volume {
                nx: 64,
                ny: 32,
                nz: 16
            }
        );
    }

    #[test]
    fn priorities_order_high_first() {
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
    }

    #[test]
    fn seeded_spec_materializes_the_same_payload() {
        let t = SeededSpec {
            shape: Shape::Rows1d { n: 128, rows: 3 },
            direction: Direction::Inverse,
            algorithm: None,
            priority: Priority::High,
            deadline_s: Some(0.5),
            tenant: TenantId(3),
            seed: 99,
        };
        let a = t.materialize();
        let b = t.materialize();
        assert_eq!(a.payload, b.payload);
        assert_eq!(
            a.payload,
            RequestSpec::seeded(t.shape, t.direction, 99).payload
        );
        assert_eq!(a.priority, Priority::High);
        assert_eq!(a.deadline_s, Some(0.5));
        assert_eq!(a.tenant, TenantId(3));
    }

    #[test]
    fn ticket_correlation_is_the_raw_id() {
        let t = Ticket {
            id: RequestId(17),
            at_s: 2.0,
        };
        assert_eq!(t.correlation(), 17);
    }

    #[test]
    fn seeded_payloads_are_deterministic() {
        let shape = Shape::Rows1d { n: 64, rows: 2 };
        let a = RequestSpec::seeded(shape, Direction::Forward, 7);
        let b = RequestSpec::seeded(shape, Direction::Forward, 7);
        let c = RequestSpec::seeded(shape, Direction::Forward, 8);
        assert_eq!(a.payload, b.payload);
        assert_ne!(a.payload, c.payload);
        assert_eq!(a.payload.len(), 128);
    }
}
