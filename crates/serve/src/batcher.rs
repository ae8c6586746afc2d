//! The adaptive micro-batcher.
//!
//! When a lane frees, the batcher walks the queue in dispatch order, takes
//! the head request's `(shape key, direction, algorithm)` as the batch key
//! and coalesces every queued request sharing it — up to three adaptive
//! caps: a request-count cap, a payload cap (the lane's staging buffers)
//! and a latency budget (the batch must be expected to *finish* within the
//! configured budget, so deep queues grow batches only while per-request
//! amortisation still pays).
//!
//! Batch sizes therefore track queue depth by construction: an idle service
//! dispatches singletons immediately (no waiting for peers — this is a
//! latency-first micro-batcher, not a ticking window), while a backlogged
//! service coalesces everything co-shaped that fits.

use crate::queue::{Pending, SubmitQueue};
use crate::request::ShapeKey;
use bifft::plan::Algorithm;
use fft_math::twiddle::Direction;
use std::collections::BTreeMap;

/// The full coalescing key: shape x direction x effective algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BatchKey {
    /// The shape component.
    pub shape: ShapeKey,
    /// True for forward transforms.
    pub forward: bool,
    /// The effective algorithm; only meaningful for volumes.
    pub algo: Algorithm,
}

/// Builds the batch key of one request spec; a volume without a hint
/// keys on the default algorithm.
pub fn key_of_spec(spec: &crate::request::RequestSpec) -> BatchKey {
    BatchKey {
        shape: spec.shape.key(),
        forward: spec.direction == Direction::Forward,
        algo: spec.algorithm.unwrap_or_default(),
    }
}

/// Builds the batch key of one pending request; `None` for a pipeline,
/// which never coalesces.
pub fn key_of(p: &Pending) -> Option<BatchKey> {
    p.transform().map(key_of_spec)
}

/// Caps the batcher adapts within.
#[derive(Clone, Copy, Debug)]
pub struct BatchLimits {
    /// Most requests one launch may serve.
    pub max_requests: usize,
    /// Most payload elements one launch may serve (the staging-slot size
    /// for 1-D rows).
    pub max_elems: usize,
    /// The latency budget: a batch stops growing once its estimated
    /// service time would exceed this many seconds.
    pub latency_budget_s: f64,
}

/// EWMA estimator of per-element service seconds, per key: a
/// [`BatchKey`] for batches, a [`crate::pipeline::StageKind`] for the
/// stages of a pipeline DAG.
///
/// Seeded with a pessimistic PCIe-round-trip guess so admission control is
/// conservative before the first observation; every completed batch or
/// stage then pulls the estimate toward measured reality (alpha 0.3).
/// Entirely deterministic — same request sequence, same estimates.
#[derive(Debug)]
pub struct Estimator<K> {
    per_elem_s: BTreeMap<K, f64>,
    /// Fixed per-launch overhead guess, seconds (PCIe latency both ways).
    overhead_s: f64,
}

/// Same as [`Estimator::new`] — a derived default would zero `overhead_s`
/// and silently skew every estimate.
impl<K: Ord + Copy> Default for Estimator<K> {
    fn default() -> Self {
        Estimator::new()
    }
}

/// The seed guess: 8 payload bytes each way over ~2 GB/s effective PCIe.
const SEED_PER_ELEM_S: f64 = 8.0e-9;

impl<K: Ord + Copy> Estimator<K> {
    /// A fresh estimator with the default per-launch overhead guess.
    pub fn new() -> Self {
        Estimator {
            per_elem_s: BTreeMap::new(),
            overhead_s: 20e-6,
        }
    }

    /// Expected service seconds for `elems` payload elements under `key`.
    pub fn estimate_s(&self, key: K, elems: usize) -> f64 {
        let per = self
            .per_elem_s
            .get(&key)
            .copied()
            .unwrap_or(SEED_PER_ELEM_S);
        self.overhead_s + per * elems as f64
    }

    /// Folds a measured service time into the estimate.
    pub fn observe(&mut self, key: K, elems: usize, service_s: f64) {
        if elems == 0 {
            return;
        }
        let sample = (service_s - self.overhead_s).max(0.0) / elems as f64;
        let e = self.per_elem_s.entry(key).or_insert(SEED_PER_ELEM_S);
        *e += 0.3 * (sample - *e);
    }
}

/// Forms the batch of queued transforms under `key`, in dispatch order,
/// headed by the first of them (the caller found that head and placed
/// it), and takes it out of the queue. Pipelines are skipped: they never
/// coalesce.
pub fn form_batch(
    queue: &mut SubmitQueue,
    limits: &BatchLimits,
    est: &Estimator<BatchKey>,
    key: BatchKey,
) -> Vec<Pending> {
    // Grow the member list while every cap holds.
    let mut ids = Vec::new();
    let mut elems = 0usize;
    for p in queue.iter() {
        if key_of(p) != Some(key) {
            continue;
        }
        let e = p.spec().shape.elems();
        let grown = elems + e;
        let within_caps = ids.len() < limits.max_requests
            && (ids.is_empty() || grown <= limits.max_elems)
            && (ids.is_empty() || est.estimate_s(key, grown) <= limits.latency_budget_s);
        if !within_caps {
            break;
        }
        ids.push(p.id);
        elems = grown;
    }
    debug_assert!(!ids.is_empty(), "head request always fits alone");

    queue.sample_depth();
    queue.drain_selected(&ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Pending, Work};
    use crate::request::{Priority, RequestId, RequestSpec, Shape};
    use fft_math::twiddle::Direction;

    fn limits() -> BatchLimits {
        BatchLimits {
            max_requests: 4,
            max_elems: 1 << 20,
            latency_budget_s: 1.0,
        }
    }

    fn rows_key(n: usize) -> BatchKey {
        BatchKey {
            shape: ShapeKey::Rows1d { n },
            forward: true,
            algo: Algorithm::FiveStep,
        }
    }

    fn push_rows(q: &mut SubmitQueue, id: u64, n: usize, rows: usize) {
        q.push(Pending {
            id: RequestId(id),
            work: Work::Transform(RequestSpec::seeded(
                Shape::Rows1d { n, rows },
                Direction::Forward,
                id,
            )),
            arrival_s: id as f64 * 1e-6,
            vft: id as f64 * 1e-6,
        });
    }

    #[test]
    fn coalesces_same_shape_up_to_caps() {
        let mut q = SubmitQueue::new(16);
        for id in 0..6 {
            push_rows(&mut q, id, 256, 4);
        }
        let est = Estimator::new();
        let b = form_batch(&mut q, &limits(), &est, rows_key(256));
        assert_eq!(b.len(), 4, "request cap");
        let elems: usize = b.iter().map(|p| p.spec().shape.elems()).sum();
        assert_eq!(elems, 4 * 256 * 4);
        assert_eq!(q.depth(), 2, "remainder stays queued");
        let ids: Vec<u64> = b.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "dispatch order");
    }

    #[test]
    fn mixed_shapes_do_not_coalesce() {
        let mut q = SubmitQueue::new(16);
        push_rows(&mut q, 0, 256, 4);
        push_rows(&mut q, 1, 128, 4);
        push_rows(&mut q, 2, 256, 4);
        let est = Estimator::new();
        let b = form_batch(&mut q, &limits(), &est, rows_key(256));
        let ids: Vec<u64> = b.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 2], "only same-n rows coalesce");
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn latency_budget_caps_growth() {
        let mut q = SubmitQueue::new(16);
        for id in 0..4 {
            push_rows(&mut q, id, 256, 4);
        }
        let est = Estimator::new();
        let one = est.estimate_s(rows_key(256), 2 * 256 * 4);
        let mut tight = limits();
        tight.latency_budget_s = one; // two requests fit, three don't
        let b = form_batch(&mut q, &tight, &est, rows_key(256));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn head_of_line_bypass_skips_unplaceable_keys() {
        let mut q = SubmitQueue::new(16);
        q.push(Pending {
            id: RequestId(0),
            work: Work::Transform(
                RequestSpec::seeded(
                    Shape::Volume {
                        nx: 16,
                        ny: 16,
                        nz: 16,
                    },
                    Direction::Forward,
                    0,
                )
                .priority(Priority::High),
            ),
            arrival_s: 0.0,
            vft: 0.0,
        });
        push_rows(&mut q, 1, 256, 4);
        let est = Estimator::new();
        // The head is an unplaceable volume; the caller passes the next
        // distinct key, and the batch forms behind the volume.
        let b = form_batch(&mut q, &limits(), &est, rows_key(256));
        assert_eq!(b[0].id.0, 1, "bypassed the skipped volume");
        assert_eq!(q.depth(), 1, "volume still queued");
    }

    #[test]
    fn estimator_learns_and_stays_deterministic() {
        let key = rows_key(256);
        let mut a = Estimator::new();
        let mut b = Estimator::new();
        let before = a.estimate_s(key, 1024);
        for e in [&mut a, &mut b] {
            e.observe(key, 1_000_000, 120e-6);
            e.observe(key, 2_000_000, 200e-6);
        }
        let after = a.estimate_s(key, 1024);
        assert!(after < before, "observations pull the seed down");
        assert_eq!(
            after,
            b.estimate_s(key, 1024),
            "same history, same estimate"
        );
    }
}
