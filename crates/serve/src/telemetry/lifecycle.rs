//! Per-request stage waterfalls: where every request spent its virtual
//! time, from submission to its terminal stage.
//!
//! The service's event fold (`telemetry::books`) writes every waterfall:
//! one `LifecycleLog::entry` lookup per event, then that event's stage
//! stamps and annotations, with the timestamps the simulation already
//! produced — recording never advances a clock. A request that is
//! re-queued (a volume bounced off a busy fleet, a preemption victim)
//! simply overwrites its `Batched` record with the later attempt; the
//! final waterfall is still monotone.

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

    /// Position in pipeline (declaration) order.
    fn index(self) -> usize {
        self as usize
    }
}

/// One request's recorded stage timestamps plus the dispatch cross-links.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Waterfall {
    shape: String,
    stages: [Option<f64>; Stage::Failed as usize + 1],
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
        self.stages[..=Stage::Completed.index()]
            .iter()
            .all(Option::is_some)
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

/// One request's waterfall opened for an event's writes: stage stamps go
/// through [`WaterfallEntry::stamp`], annotations straight to its fields.
pub(crate) struct WaterfallEntry<'a> {
    pub(crate) wf: &'a mut Waterfall,
    dropped: &'a mut u64,
}

impl WaterfallEntry<'_> {
    /// Records `stage` at `t_s`. A repeat record (a re-queued request)
    /// overwrites with the later attempt; one that would move an existing
    /// stage *backwards* is counted in [`LifecycleLog::dropped`] instead
    /// of corrupting the waterfall.
    pub(crate) fn stamp(&mut self, stage: Stage, t_s: f64) -> &mut Self {
        if self.wf.stage_s(stage).is_some_and(|prev| t_s < prev) {
            *self.dropped += 1;
        } else {
            self.wf.record(stage, t_s);
        }
        self
    }
}

impl LifecycleLog {
    /// Opens a waterfall for a newly submitted request, records its
    /// `Submitted` stamp and returns it for the submission's labels.
    pub fn start(&mut self, id: RequestId, shape: String, t_s: f64) -> &mut Waterfall {
        let wf = self.map.entry(id.0).or_default();
        wf.shape = shape;
        wf.record(Stage::Submitted, t_s);
        wf
    }

    /// The waterfall of `id`, opened once for all of one event's writes.
    /// An id that was never [`LifecycleLog::start`]ed counts in
    /// [`LifecycleLog::dropped`] instead of materializing a ghost
    /// waterfall.
    pub(crate) fn entry(&mut self, id: RequestId) -> Option<WaterfallEntry<'_>> {
        match self.map.get_mut(&id.0) {
            Some(wf) => Some(WaterfallEntry {
                wf,
                dropped: &mut self.dropped,
            }),
            None => {
                self.dropped += 1;
                None
            }
        }
    }

    /// Records `stage` at `t_s` for request `id`. A repeat record (a
    /// re-queued request) overwrites with the later attempt; a stamp for an
    /// id that was never [`LifecycleLog::start`]ed, or one that would move
    /// an existing stage *backwards*, is counted in
    /// [`LifecycleLog::dropped`] instead of corrupting the waterfall.
    pub fn record(&mut self, id: RequestId, stage: Stage, t_s: f64) {
        if let Some(mut e) = self.entry(id) {
            e.stamp(stage, t_s);
        }
    }

    /// Stamps and annotations discarded because their request id was never
    /// started or the stamp ran backwards — mirrored into the registry as
    /// `serve_lifecycle_dropped_total`.
    pub fn dropped(&self) -> u64 {
        self.dropped
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
        let wf = log.entry(id).unwrap().wf;
        wf.span = Some("serve_rows_256x16_c0l1".to_string());
        wf.card = Some(0);
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
        let mut e = log.entry(id).unwrap();
        e.wf.reject_reason = Some("oversized");
        e.stamp(Stage::Rejected, 2.0);
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
        assert!(log.entry(RequestId(5)).is_none());
        assert!(log.get(RequestId(5)).is_none());
        assert_eq!(log.dropped(), 2);

        let id = RequestId(1);
        log.start(id, "1d256x4".to_string(), 2.0);
        log.record(id, Stage::Admitted, 2.0);
        // Re-stamping at the same time (an idempotent re-stamp) and moving
        // forward (a later batching attempt) both stay legal...
        log.record(id, Stage::Admitted, 2.0);
        log.record(id, Stage::Batched, 2.5);
        log.entry(id).unwrap().stamp(Stage::Batched, 2.9);
        assert_eq!(log.dropped(), 2);
        // ...but a strictly backwards stamp is dropped and the waterfall
        // keeps its existing value, while the same entry's later stamps
        // still land.
        log.entry(id)
            .unwrap()
            .stamp(Stage::Batched, 2.1)
            .stamp(Stage::Dispatched, 3.0);
        assert_eq!(log.dropped(), 3);
        let wf = log.get(id).unwrap();
        assert_eq!(wf.stage_s(Stage::Batched), Some(2.9));
        assert_eq!(wf.stage_s(Stage::Dispatched), Some(3.0));
    }

    #[test]
    fn start_hands_back_the_waterfall_for_its_labels() {
        let mut log = LifecycleLog::default();
        let id = RequestId(2);
        let wf = log.start(id, "vol16x16x16".to_string(), 0.5);
        wf.priority = Some("high");
        wf.algorithm = Some("five-step");
        let wf = log.get(id).unwrap();
        assert_eq!(wf.priority, Some("high"));
        assert_eq!(wf.algorithm, Some("five-step"));
        assert_eq!(wf.stage_s(Stage::Submitted), Some(0.5));
        assert_eq!(log.dropped(), 0);
    }
}
