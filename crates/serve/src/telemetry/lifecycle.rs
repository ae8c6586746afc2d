//! Per-request stage waterfalls: where every request spent its virtual
//! time, from submission to its terminal stage.
//!
//! Stages are recorded at the existing pipeline transitions (admission in
//! the service, enqueue in the queue, coalescing in the batcher, the
//! H2D/compute/D2H boundaries in the scheduler) with the timestamps the
//! simulation already produces — recording never advances a clock. A
//! request that is re-queued (a volume bounced off a busy fleet) simply
//! overwrites its `Batched` record with the later attempt; the final
//! waterfall is still monotone.

use crate::request::RequestId;
use std::collections::BTreeMap;

/// One lifecycle stage. Declaration order is pipeline order; the terminal
/// stages (`Completed`, `Rejected`, `Failed`) come last so an index-order
/// scan of the waterfall doubles as the monotonicity check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The request arrived at `submit`.
    Submitted,
    /// Admission passed; the request entered the bounded queue.
    Admitted,
    /// The batcher coalesced it into a launch.
    Batched,
    /// The launch was handed to a card.
    Dispatched,
    /// Host-to-device transfer done.
    H2d,
    /// Kernel execution done.
    Compute,
    /// Device-to-host transfer done.
    D2h,
    /// The completion was recorded.
    Completed,
    /// Admission turned the request away.
    Rejected,
    /// Dispatch discovered the work was impossible post-admission.
    Failed,
}

/// Every stage, in pipeline order.
pub const STAGES: [Stage; 10] = [
    Stage::Submitted,
    Stage::Admitted,
    Stage::Batched,
    Stage::Dispatched,
    Stage::H2d,
    Stage::Compute,
    Stage::D2h,
    Stage::Completed,
    Stage::Rejected,
    Stage::Failed,
];

impl Stage {
    /// Stable lowercase label (export keys, trace slice names).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Submitted => "submitted",
            Stage::Admitted => "admitted",
            Stage::Batched => "batched",
            Stage::Dispatched => "dispatched",
            Stage::H2d => "h2d",
            Stage::Compute => "compute",
            Stage::D2h => "d2h",
            Stage::Completed => "completed",
            Stage::Rejected => "rejected",
            Stage::Failed => "failed",
        }
    }

    fn index(self) -> usize {
        STAGES.iter().position(|&s| s == self).expect("listed")
    }
}

/// One request's recorded stage timestamps plus the dispatch cross-links.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Waterfall {
    shape: String,
    stages: [Option<f64>; STAGES.len()],
    /// The sim-prof span name of the launch that served this request —
    /// the drill-down link from a slow request to its kernels.
    pub span: Option<String>,
    /// Card the launch ran on (`None` before dispatch, and for sharded
    /// runs, which span every card).
    pub card: Option<usize>,
    /// Why admission rejected the request, when it did.
    pub reject_reason: Option<&'static str>,
    /// Priority label recorded at submission (`"high"`, `"normal"`,
    /// `"low"`) — the attribution profile key.
    pub priority: Option<&'static str>,
    /// Algorithm label of the plan that served the request (`"batch-1d"`
    /// for coalesced rows, the [`bifft::plan::Algorithm`] name for
    /// volumes).
    pub algorithm: Option<&'static str>,
    /// When the dispatch's plan was ready (cache hit or build done),
    /// simulated seconds. Splits plan/cache time out of `Dispatched → H2d`.
    pub plan_ready_s: Option<f64>,
    /// When the dispatch's H2D transfer started moving bytes, simulated
    /// seconds. Splits staging-slot wait out of `Dispatched → H2d`.
    pub h2d_start_s: Option<f64>,
    /// Device seconds this request's dispatches wasted to lane preemption
    /// (aborted-and-requeued launches). Attribution carves this out of the
    /// queue share into its own `preempted` category.
    pub preempted_s: f64,
    /// How many times the request was preempted and requeued.
    pub preempts: u32,
    /// Compute seconds spent on pipeline stages whose every operand was
    /// already device-resident (no upload needed). Attribution carves this
    /// out of the compute share into its own `resident` category.
    pub resident_s: f64,
}

impl Waterfall {
    /// The shape label recorded at submission (`"1d256x32"` style).
    pub fn shape(&self) -> &str {
        &self.shape
    }

    /// The recorded timestamp of `stage`, simulated seconds.
    pub fn stage_s(&self, stage: Stage) -> Option<f64> {
        self.stages[stage.index()]
    }

    /// True when every recorded stage, scanned in pipeline order, has a
    /// non-decreasing timestamp.
    pub fn is_monotone(&self) -> bool {
        let mut last = f64::NEG_INFINITY;
        for t in self.stages.into_iter().flatten() {
            if t < last {
                return false;
            }
            last = t;
        }
        true
    }

    /// The terminal stage reached, if any.
    pub fn terminal(&self) -> Option<Stage> {
        [Stage::Completed, Stage::Rejected, Stage::Failed]
            .into_iter()
            .find(|&s| self.stage_s(s).is_some())
    }

    /// True when the full happy path (`Submitted` through `Completed`) was
    /// recorded — the acceptance criterion for completed requests.
    pub fn is_complete_pipeline(&self) -> bool {
        STAGES[..=Stage::Completed.index()]
            .iter()
            .all(|&s| self.stage_s(s).is_some())
    }

    fn record(&mut self, stage: Stage, t_s: f64) {
        self.stages[stage.index()] = Some(t_s);
    }
}

/// The service-wide waterfall log, keyed by request id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LifecycleLog {
    map: BTreeMap<u64, Waterfall>,
    dropped: u64,
}

impl LifecycleLog {
    /// Opens a waterfall for a newly submitted request and records its
    /// `Submitted` stamp.
    pub fn start(&mut self, id: RequestId, shape: String, t_s: f64) {
        let wf = self.map.entry(id.0).or_default();
        wf.shape = shape;
        wf.record(Stage::Submitted, t_s);
    }

    /// Records `stage` at `t_s` for request `id`. A repeat record (a
    /// re-queued request) overwrites with the later attempt; a stamp for an
    /// id that was never [`LifecycleLog::start`]ed, or one that would move
    /// an existing stage *backwards*, is counted in
    /// [`LifecycleLog::dropped`] instead of corrupting the waterfall.
    pub fn record(&mut self, id: RequestId, stage: Stage, t_s: f64) {
        let Some(wf) = self.map.get_mut(&id.0) else {
            self.dropped += 1;
            return;
        };
        if wf.stage_s(stage).is_some_and(|prev| t_s < prev) {
            self.dropped += 1;
            return;
        }
        wf.record(stage, t_s);
    }

    /// Cross-links the request to the sim-prof span and card of the launch
    /// that served it. Unknown ids count as dropped.
    pub fn annotate(&mut self, id: RequestId, span: &str, card: Option<usize>) {
        let Some(wf) = self.map.get_mut(&id.0) else {
            self.dropped += 1;
            return;
        };
        wf.span = Some(span.to_string());
        wf.card = card;
    }

    /// Records the submission-time attribution labels (priority, algorithm
    /// that will serve the request). Unknown ids count as dropped.
    pub fn annotate_submission(
        &mut self,
        id: RequestId,
        priority: &'static str,
        algorithm: &'static str,
    ) {
        let Some(wf) = self.map.get_mut(&id.0) else {
            self.dropped += 1;
            return;
        };
        wf.priority = Some(priority);
        wf.algorithm = Some(algorithm);
    }

    /// Records the intra-dispatch phase boundaries the ledger splits on
    /// (plan ready, H2D start). Unknown ids count as dropped.
    pub fn annotate_phases(&mut self, id: RequestId, plan_ready_s: f64, h2d_start_s: f64) {
        let Some(wf) = self.map.get_mut(&id.0) else {
            self.dropped += 1;
            return;
        };
        wf.plan_ready_s = Some(plan_ready_s);
        wf.h2d_start_s = Some(h2d_start_s);
    }

    /// Charges `wasted_s` seconds of aborted device time to a preemption
    /// victim. The waterfall's stage stamps are untouched — the original
    /// `Submitted`/`Admitted` records survive the requeue, and the later
    /// re-dispatch overwrites `Batched` onward exactly like a volume
    /// bounce. Unknown ids count as dropped.
    pub fn charge_preempt(&mut self, id: RequestId, wasted_s: f64) {
        let Some(wf) = self.map.get_mut(&id.0) else {
            self.dropped += 1;
            return;
        };
        wf.preempted_s += wasted_s;
        wf.preempts += 1;
    }

    /// Credits `resident_s` seconds of device-resident compute time to a
    /// pipeline request — stage executions whose operands were all already
    /// on the card. Attribution re-labels this slice of the compute share
    /// as `resident`. Unknown ids count as dropped.
    pub fn note_resident(&mut self, id: RequestId, resident_s: f64) {
        let Some(wf) = self.map.get_mut(&id.0) else {
            self.dropped += 1;
            return;
        };
        wf.resident_s += resident_s;
    }

    /// Stamps and annotations discarded because their request id was never
    /// started or the stamp ran backwards — mirrored into the registry as
    /// `serve_lifecycle_dropped_total`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records the terminal `Rejected` stage with its reason label.
    pub fn mark_rejected(&mut self, id: RequestId, reason: &'static str, t_s: f64) {
        let wf = self.map.entry(id.0).or_default();
        wf.reject_reason = Some(reason);
        wf.record(Stage::Rejected, t_s);
    }

    /// The waterfall of `id`, if any stage was ever recorded.
    pub fn get(&self, id: RequestId) -> Option<&Waterfall> {
        self.map.get(&id.0)
    }

    /// All waterfalls in request-id order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &Waterfall)> {
        self.map.iter().map(|(&id, wf)| (RequestId(id), wf))
    }

    /// Number of requests tracked.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no request was ever tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waterfall_records_and_checks_monotonicity() {
        let mut log = LifecycleLog::default();
        let id = RequestId(3);
        log.start(id, "1d256x16".to_string(), 1.0);
        log.record(id, Stage::Admitted, 1.0);
        log.record(id, Stage::Batched, 1.5);
        log.record(id, Stage::Dispatched, 1.5);
        log.record(id, Stage::H2d, 1.6);
        log.record(id, Stage::Compute, 1.7);
        log.record(id, Stage::D2h, 1.8);
        log.record(id, Stage::Completed, 1.8);
        log.annotate(id, "serve_rows_256x16_c0l1", Some(0));
        let wf = log.get(id).unwrap();
        assert!(wf.is_monotone());
        assert!(wf.is_complete_pipeline());
        assert_eq!(wf.terminal(), Some(Stage::Completed));
        assert_eq!(wf.shape(), "1d256x16");
        assert_eq!(wf.span.as_deref(), Some("serve_rows_256x16_c0l1"));
        assert_eq!(wf.card, Some(0));
        assert_eq!(wf.stage_s(Stage::Compute), Some(1.7));
    }

    #[test]
    fn requeue_overwrites_with_the_later_attempt() {
        let mut log = LifecycleLog::default();
        let id = RequestId(0);
        log.start(id, "vol32x32x32".to_string(), 0.0);
        log.record(id, Stage::Admitted, 0.0);
        log.record(id, Stage::Batched, 0.2);
        // Bounced and re-batched later: the record moves forward.
        log.record(id, Stage::Batched, 0.9);
        log.record(id, Stage::Dispatched, 0.9);
        let wf = log.get(id).unwrap();
        assert_eq!(wf.stage_s(Stage::Batched), Some(0.9));
        assert!(wf.is_monotone());
        assert!(!wf.is_complete_pipeline());
        assert_eq!(wf.terminal(), None);
    }

    #[test]
    fn rejected_requests_carry_their_reason() {
        let mut log = LifecycleLog::default();
        let id = RequestId(7);
        log.start(id, "1d512x999".to_string(), 2.0);
        log.mark_rejected(id, "oversized", 2.0);
        let wf = log.get(id).unwrap();
        assert_eq!(wf.terminal(), Some(Stage::Rejected));
        assert_eq!(wf.reject_reason, Some("oversized"));
        assert!(wf.is_monotone());
        let backwards = {
            let mut l = LifecycleLog::default();
            l.start(RequestId(0), "1d256x4".to_string(), 0.0);
            l.record(RequestId(0), Stage::Admitted, 5.0);
            l.record(RequestId(0), Stage::Completed, 1.0);
            l
        };
        assert!(!backwards.get(RequestId(0)).unwrap().is_monotone());
    }

    #[test]
    fn unknown_ids_and_backwards_stamps_count_as_dropped() {
        let mut log = LifecycleLog::default();
        // Stamps and annotations for an id that was never started are
        // dropped, not silently materialized as ghost waterfalls.
        log.record(RequestId(5), Stage::Admitted, 1.0);
        log.annotate(RequestId(5), "serve_rows_256x4_c0l0", Some(0));
        log.annotate_submission(RequestId(5), "normal", "batch-1d");
        log.annotate_phases(RequestId(5), 1.0, 1.1);
        assert!(log.get(RequestId(5)).is_none());
        assert_eq!(log.dropped(), 4);

        let id = RequestId(1);
        log.start(id, "1d256x4".to_string(), 2.0);
        log.record(id, Stage::Admitted, 2.0);
        // Re-stamping at the same time (an idempotent re-stamp) and moving
        // forward (a later batching attempt) both stay legal...
        log.record(id, Stage::Admitted, 2.0);
        log.record(id, Stage::Batched, 2.5);
        log.record(id, Stage::Batched, 2.9);
        assert_eq!(log.dropped(), 4);
        // ...but a strictly backwards stamp is dropped and the waterfall
        // keeps its existing value.
        log.record(id, Stage::Batched, 2.1);
        assert_eq!(log.dropped(), 5);
        assert_eq!(log.get(id).unwrap().stage_s(Stage::Batched), Some(2.9));
    }

    #[test]
    fn preempt_charges_accumulate_without_touching_stamps() {
        let mut log = LifecycleLog::default();
        let id = RequestId(4);
        log.start(id, "1d256x8".to_string(), 1.0);
        log.record(id, Stage::Admitted, 1.0);
        log.record(id, Stage::Batched, 1.2);
        log.charge_preempt(id, 0.5e-3);
        log.charge_preempt(id, 0.25e-3);
        let wf = log.get(id).unwrap();
        assert!((wf.preempted_s - 0.75e-3).abs() < 1e-12);
        assert_eq!(wf.preempts, 2);
        assert_eq!(wf.stage_s(Stage::Submitted), Some(1.0));
        assert_eq!(wf.stage_s(Stage::Admitted), Some(1.0));
        assert_eq!(log.dropped(), 0);
        log.charge_preempt(RequestId(99), 1.0);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn attribution_annotations_land_on_the_waterfall() {
        let mut log = LifecycleLog::default();
        let id = RequestId(2);
        log.start(id, "vol16x16x16".to_string(), 0.5);
        log.annotate_submission(id, "high", "five-step");
        log.annotate_phases(id, 0.7, 0.8);
        let wf = log.get(id).unwrap();
        assert_eq!(wf.priority, Some("high"));
        assert_eq!(wf.algorithm, Some("five-step"));
        assert_eq!(wf.plan_ready_s, Some(0.7));
        assert_eq!(wf.h2d_start_s, Some(0.8));
        assert_eq!(log.dropped(), 0);
    }
}
