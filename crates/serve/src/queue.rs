//! The bounded submission queue.
//!
//! Admission control lives in the service (it needs the backlog estimator);
//! the queue itself enforces the capacity bound, keeps arrivals in
//! (priority, virtual finish time, arrival, id) dispatch order, and tracks
//! the depth statistics the [`crate::report::ServeReport`] publishes. Single
//! transforms and pipeline DAGs wait in the same queue, one entry each, and
//! rank by the same key.
//!
//! The virtual finish time is the weighted-fair-queueing rank the service
//! assigns at admission (see [`crate::qos`]): within a priority class,
//! backlogged tenants drain in proportion to their shares. With one tenant
//! the vft is strictly increasing in admission order, so the order
//! degenerates to the historical (priority, arrival, id).

use crate::pipeline::PipelineRequest;
use crate::qos::TenantId;
use crate::request::{Priority, RequestId, RequestSpec};
use std::cmp::Ordering;

/// What one queue entry asks the fleet to run.
#[derive(Clone, Debug)]
pub(crate) enum Work {
    /// One transform; co-shaped transforms coalesce into batches.
    Transform(RequestSpec),
    /// A whole DAG, placed as one unit on a fully idle card.
    Pipeline(PipelineRequest),
}

/// One admitted request waiting for dispatch.
#[derive(Clone, Debug)]
pub struct Pending {
    /// The id assigned at submission.
    pub id: RequestId,
    /// What the entry runs: a transform or a whole DAG.
    pub(crate) work: Work,
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
    /// Weighted-fair-queueing virtual finish time, assigned once at
    /// admission and kept across preemption requeues.
    pub vft: f64,
}

impl Pending {
    /// The transform this entry carries, or `None` for a pipeline.
    pub(crate) fn transform(&self) -> Option<&RequestSpec> {
        match &self.work {
            Work::Transform(spec) => Some(spec),
            Work::Pipeline(_) => None,
        }
    }

    /// The transform of a batch member.
    ///
    /// # Panics
    /// On a pipeline entry: batches only ever hold transforms.
    pub(crate) fn spec(&self) -> &RequestSpec {
        self.transform().expect("batches hold transforms only")
    }

    fn fields(&self) -> (Priority, TenantId, Option<f64>) {
        match &self.work {
            Work::Transform(s) => (s.priority, s.tenant, s.deadline_s),
            Work::Pipeline(p) => (p.priority, p.tenant, p.deadline_s),
        }
    }

    /// Scheduling priority, either kind.
    pub(crate) fn priority(&self) -> Priority {
        self.fields().0
    }

    /// The tenant billed, either kind.
    pub(crate) fn tenant(&self) -> TenantId {
        self.fields().1
    }

    /// Latency budget from arrival, either kind.
    pub(crate) fn deadline_s(&self) -> Option<f64> {
        self.fields().2
    }
}

/// Dispatch order: priority class first, then WFQ virtual finish time,
/// then arrival, then id. Floats compare via [`f64::total_cmp`] — bit
/// patterns like `-0.0` and negative arrivals (possible once preemption
/// requeues relative to virtual time) order totally instead of by their
/// sign-magnitude bit representation.
fn rank(a: &Pending, b: &Pending) -> Ordering {
    a.priority()
        .cmp(&b.priority())
        .then_with(|| a.vft.total_cmp(&b.vft))
        .then_with(|| a.arrival_s.total_cmp(&b.arrival_s))
        .then_with(|| a.id.cmp(&b.id))
}

/// A bounded FIFO-per-priority queue of admitted requests.
#[derive(Debug)]
pub struct SubmitQueue {
    capacity: usize,
    entries: Vec<Pending>,
    max_depth: usize,
    depth_samples: u64,
    depth_sum: u64,
}

impl SubmitQueue {
    /// An empty queue admitting at most `capacity` requests at a time.
    pub fn new(capacity: usize) -> Self {
        SubmitQueue {
            capacity,
            entries: Vec::new(),
            max_depth: 0,
            depth_samples: 0,
            depth_sum: 0,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently waiting.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// True when another request fits.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Deepest the queue has been.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Mean depth over the dispatch-time samples (0 when never sampled).
    pub fn mean_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Records the current depth into the dispatch-time statistics.
    pub fn sample_depth(&mut self) {
        self.depth_samples += 1;
        self.depth_sum += self.entries.len() as u64;
    }

    /// Enqueues in dispatch order. The caller (admission) must have checked
    /// [`SubmitQueue::has_room`]; pushing past capacity is a logic error.
    ///
    /// # Panics
    /// When the queue is already at capacity.
    pub fn push(&mut self, p: Pending) {
        assert!(self.has_room(), "push past capacity — admission bug");
        self.insert_ranked(p);
    }

    /// Re-enqueues a preemption victim. Capacity-exempt: the victim held a
    /// queue slot once and its lane was taken back by the service, so
    /// bouncing it on a full queue would silently drop admitted work. Keeps
    /// the original vft/arrival, so the victim resumes at its old rank.
    pub fn requeue(&mut self, p: Pending) {
        self.insert_ranked(p);
    }

    // Insertion sort keeps (priority, vft, arrival, id) order; vfts are
    // assigned in admission order so this is an append except when
    // priorities differ or a preemption victim comes back.
    fn insert_ranked(&mut self, p: Pending) {
        let at = self
            .entries
            .partition_point(|e| rank(e, &p) != Ordering::Greater);
        self.entries.insert(at, p);
        self.max_depth = self.max_depth.max(self.entries.len());
    }

    /// The next request in dispatch order, without removing it.
    pub fn head(&self) -> Option<&Pending> {
        self.entries.first()
    }

    /// All waiting requests in dispatch order.
    pub fn iter(&self) -> impl Iterator<Item = &Pending> {
        self.entries.iter()
    }

    /// Removes and returns the requests selected by `take` (in dispatch
    /// order), keeping the rest in order. Extracts in place: the queue's
    /// buffer is reused, only the returned batch allocates.
    pub fn drain_selected(&mut self, take: &[RequestId]) -> Vec<Pending> {
        let selected = |e: &mut Pending| take.contains(&e.id);
        self.entries.extract_if(.., selected).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Shape;
    use fft_math::twiddle::Direction;

    fn pending(id: u64, arrival: f64, prio: Priority) -> Pending {
        Pending {
            id: RequestId(id),
            work: Work::Transform(
                RequestSpec::seeded(Shape::Rows1d { n: 64, rows: 1 }, Direction::Forward, id)
                    .priority(prio),
            ),
            arrival_s: arrival,
            vft: arrival,
        }
    }

    #[test]
    fn orders_by_priority_then_arrival() {
        let mut q = SubmitQueue::new(8);
        q.push(pending(1, 0.0, Priority::Normal));
        q.push(pending(2, 1.0, Priority::Low));
        q.push(pending(3, 2.0, Priority::High));
        q.push(pending(4, 3.0, Priority::Normal));
        let order: Vec<u64> = q.iter().map(|p| p.id.0).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
        assert_eq!(q.head().unwrap().id.0, 3);
    }

    #[test]
    fn capacity_and_depth_stats() {
        let mut q = SubmitQueue::new(2);
        assert!(q.has_room());
        q.push(pending(1, 0.0, Priority::Normal));
        q.push(pending(2, 0.5, Priority::Normal));
        assert!(!q.has_room());
        assert_eq!(q.max_depth(), 2);
        q.sample_depth();
        let taken = q.drain_selected(&[RequestId(1)]);
        assert_eq!(taken.len(), 1);
        assert_eq!(q.depth(), 1);
        q.sample_depth();
        assert_eq!(q.mean_depth(), 1.5);
        // Taking from the middle: the selection lists ids out of order,
        // the batch comes back in dispatch order and the rest keep theirs.
        for id in 3..=7 {
            q.requeue(pending(id, id as f64, Priority::Normal));
        }
        let taken = q.drain_selected(&[RequestId(6), RequestId(3), RequestId(4)]);
        let ids = |v: &mut dyn Iterator<Item = &Pending>| v.map(|p| p.id.0).collect::<Vec<_>>();
        assert_eq!(ids(&mut taken.iter()), vec![3, 4, 6]);
        assert_eq!(ids(&mut q.iter()), vec![2, 5, 7]);
        assert!(q.drain_selected(&[RequestId(9)]).is_empty());
        assert_eq!(q.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "admission bug")]
    fn push_past_capacity_panics() {
        let mut q = SubmitQueue::new(1);
        q.push(pending(1, 0.0, Priority::Normal));
        q.push(pending(2, 0.0, Priority::Normal));
    }

    #[test]
    fn requeue_is_capacity_exempt_and_rank_preserving() {
        let mut q = SubmitQueue::new(2);
        q.push(pending(5, 1.0, Priority::Normal));
        q.push(pending(6, 2.0, Priority::Normal));
        assert!(!q.has_room());
        // A preemption victim admitted before both comes back at the head.
        q.requeue(pending(4, 0.5, Priority::Normal));
        assert_eq!(q.depth(), 3);
        let order: Vec<u64> = q.iter().map(|p| p.id.0).collect();
        assert_eq!(order, vec![4, 5, 6]);
    }

    #[test]
    fn total_cmp_orders_negative_and_negative_zero_arrivals() {
        // The old rank used arrival_s.to_bits(): sign-magnitude bits order
        // -0.0 and every negative float AFTER all positives. total_cmp
        // orders them numerically.
        let mut q = SubmitQueue::new(8);
        q.push(pending(1, 0.0, Priority::Normal));
        q.push(pending(2, -1.5, Priority::Normal));
        q.push(pending(3, -0.0, Priority::Normal));
        q.push(pending(4, 2.0, Priority::Normal));
        let order: Vec<u64> = q.iter().map(|p| p.id.0).collect();
        // -1.5 < -0.0 < 0.0 < 2.0 (and vft mirrors arrival here).
        assert_eq!(order, vec![2, 3, 1, 4]);
    }

    #[test]
    fn rank_matches_a_reference_sort_over_seeded_arrivals() {
        // Property test: pushes in pseudo-random order always land in the
        // exact order a reference comparator sort produces, including
        // negative, negative-zero and duplicate arrival/vft values.
        use fft_math::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x00c0_ffee_0000_0001);
        for round in 0..50 {
            let n = 2 + (rng.next_u64() % 14) as usize;
            let mut entries: Vec<Pending> = (0..n as u64)
                .map(|id| {
                    let prio = match rng.next_u64() % 3 {
                        0 => Priority::High,
                        1 => Priority::Normal,
                        _ => Priority::Low,
                    };
                    // Arrivals drawn from a small grid so ties are common;
                    // shifted negative so sign handling is exercised.
                    let grid = (rng.next_u64() % 7) as f64;
                    let arrival = if grid == 3.0 { -0.0 } else { grid - 3.0 };
                    let mut p = pending(id, arrival, prio);
                    p.vft = ((rng.next_u64() % 5) as f64) - 2.0;
                    p
                })
                .collect();
            let mut expect = entries.clone();
            expect.sort_by(rank);
            let expect_ids: Vec<u64> = expect.iter().map(|p| p.id.0).collect();
            // Push in a seeded shuffle of admission order.
            for i in (1..entries.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                entries.swap(i, j);
            }
            let mut q = SubmitQueue::new(n);
            for p in entries {
                q.push(p);
            }
            let got: Vec<u64> = q.iter().map(|p| p.id.0).collect();
            assert_eq!(got, expect_ids, "round {round} diverged");
        }
    }
}
