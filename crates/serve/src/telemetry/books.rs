//! The service's books: one event per transition, folded into every
//! surface the moment it is emitted.
//!
//! `FftService` keeps only scheduling state. Each transition it makes
//! becomes one [`Event`], and [`Books::apply`] folds it into everything
//! that reports on the run: the [`Telemetry`] bundle (registry, timeline,
//! waterfalls), the completion and failure records `poll` reads, the
//! per-tenant statistics and the report's tallies. Conservation across
//! those surfaces is a property of this one fold, not of each call site.
//! Events borrow what the service holds and are not retained.

use super::attribution::Ledger;
use super::{names, Stage, Telemetry};
use crate::qos::TenantId;
use crate::queue::{Pending, Work};
use crate::report::{CardReport, ServeReport, TenantReport};
use crate::request::{Completion, Priority, Rejection, RequestId};
use crate::scheduler::Outcome;
use bifft::plan::FftError;
use std::collections::BTreeMap;

/// One service transition, stamped at the clock [`Books::apply`] is given
/// unless it carries its own times.
pub(crate) enum Event<'a> {
    /// A submission arrived and was issued `id` (rejected ones too).
    Submitted {
        id: RequestId,
        tenant: TenantId,
        /// The shape label the waterfall keeps (moved, not copied).
        shape: String,
        priority: Priority,
        /// The attribution profile's algorithm label.
        algorithm: &'static str,
    },
    /// Admission turned submission `id` away.
    Rejected { id: RequestId, why: &'a Rejection },
    /// Submission `id` entered the queue.
    Admitted { id: RequestId, tenant: TenantId },
    /// A unit left the queue for a card: a coalesced batch or one DAG.
    Batched { unit: &'a [Pending] },
    /// A unit of `size` members launched.
    Launched { size: usize },
    /// A dispatched lane batch was aborted at a safe point `wasted_s`
    /// after its dispatch and requeued.
    Preempted { unit: &'a [Pending], wasted_s: f64 },
    /// A unit dispatched at `dispatched_s` on `card` (`None`: the whole
    /// fleet) finished; `outcome` hands over its phases and outputs.
    Completed {
        unit: &'a [Pending],
        dispatched_s: f64,
        card: Option<usize>,
        outcome: Outcome,
    },
    /// A unit failed at dispatch.
    Failed {
        unit: &'a [Pending],
        err: &'a FftError,
    },
}

/// One tenant's statistics: its report row's counters and its completion
/// latencies, in commit order.
#[derive(Default)]
pub(crate) struct TenantBook {
    pub row: TenantReport,
    pub latencies_s: Vec<f64>,
}

/// Everything the service's surfaces read, written only by
/// [`Books::apply`].
pub(crate) struct Books {
    /// Registry, timeline and waterfalls.
    pub telemetry: Telemetry,
    /// Completions in record order; id → index, so `poll` is a lookup.
    pub completions: Vec<Completion>,
    pub completion_index: BTreeMap<RequestId, usize>,
    /// Admitted requests that failed at dispatch, with the error.
    pub failures: Vec<(RequestId, FftError)>,
    pub tenants: BTreeMap<TenantId, TenantBook>,
    /// The report's folded tallies: preemption waste, pipelines, resident
    /// time, PCIe bytes each way, the batch histogram and each card's
    /// requests and bytes. `report()` fills in the rest.
    pub tally: ServeReport,
    /// In-deadline payload bytes both ways, first arrival and last
    /// completion — the report's goodput and the live gauge's.
    good_bytes: u64,
    first_arrival_s: f64,
    last_completion_s: f64,
    /// The SLO latency target the over-SLO counter compares against.
    slo_p95_ms: f64,
}

impl Books {
    /// Empty books for `n_cards` cards, sampling telemetry every `tick_s`.
    pub fn new(tick_s: f64, n_cards: usize, slo_p95_ms: f64) -> Self {
        Books {
            telemetry: Telemetry::new(tick_s),
            completions: Vec::new(),
            completion_index: BTreeMap::new(),
            failures: Vec::new(),
            tenants: BTreeMap::new(),
            tally: ServeReport {
                cards: vec![CardReport::default(); n_cards],
                ..ServeReport::default()
            },
            good_bytes: 0,
            first_arrival_s: f64::INFINITY,
            last_completion_s: 0.0,
            slo_p95_ms,
        }
    }

    /// First arrival to last completion, seconds (0 before any): an idle
    /// prefix (open-loop warmup, resumed clocks) never deflates rates.
    pub fn makespan_s(&self) -> f64 {
        (self.last_completion_s - self.first_arrival_s).max(0.0)
    }

    /// In-deadline payload bytes (both directions) over the makespan so
    /// far, GB/s.
    pub fn goodput_gbs(&self) -> f64 {
        let makespan = self.makespan_s();
        if makespan > 0.0 {
            self.good_bytes as f64 / makespan / 1e9
        } else {
            0.0
        }
    }

    /// Folds one event, happening at `now_s`, into every book.
    pub fn apply(&mut self, now_s: f64, event: Event<'_>) {
        let Telemetry {
            registry: reg,
            lifecycle: log,
            ..
        } = &mut self.telemetry;
        match event {
            Event::Submitted {
                id,
                tenant,
                shape,
                priority,
                algorithm,
            } => {
                self.tenants.entry(tenant).or_default().row.submitted += 1;
                reg.inc(names::SUBMITTED);
                let wf = log.start(id, shape, now_s);
                wf.priority = Some(priority.label());
                wf.algorithm = Some(algorithm);
            }
            Event::Rejected { id, why } => {
                let (reason, counter) = match why {
                    Rejection::QueueFull { .. } => ("queue_full", names::REJECTED_QUEUE_FULL),
                    Rejection::DeadlineInfeasible { .. } => ("deadline", names::REJECTED_DEADLINE),
                    Rejection::Unsupported(_) => ("unsupported", names::REJECTED_UNSUPPORTED),
                    Rejection::Oversized { .. } => ("oversized", names::REJECTED_OVERSIZED),
                    Rejection::Unallocatable(_) => ("unallocatable", names::REJECTED_UNALLOCATABLE),
                    Rejection::QuotaExceeded { tenant, .. } => {
                        self.tenants.entry(*tenant).or_default().row.rejected_quota += 1;
                        ("quota", names::REJECTED_QUOTA)
                    }
                    Rejection::UnsupportedStage(_) => {
                        ("unsupported_stage", names::REJECTED_UNSUPPORTED)
                    }
                };
                reg.inc(counter);
                if let Some(mut e) = log.entry(id) {
                    e.wf.reject_reason = Some(reason);
                    e.stamp(Stage::Rejected, now_s);
                }
            }
            Event::Admitted { id, tenant } => {
                self.tenants.entry(tenant).or_default().row.admitted += 1;
                log.record(id, Stage::Admitted, now_s);
                reg.inc(names::ADMITTED);
            }
            Event::Batched { unit } => {
                for p in unit {
                    log.record(p.id, Stage::Batched, now_s);
                }
            }
            Event::Launched { size } => {
                *self.tally.batch_histogram.entry(size).or_insert(0) += 1;
                reg.inc(names::LAUNCHES);
                reg.add(names::BATCHED_REQUESTS, size as u64);
                reg.observe(names::BATCH_SIZE_HIST, size as f64);
            }
            Event::Preempted { unit, wasted_s } => {
                self.tally.preempted_s += wasted_s;
                reg.inc(names::PREEMPTIONS);
                for p in unit {
                    // The stage stamps stay: `Submitted`/`Admitted` survive
                    // the requeue and the re-dispatch overwrites `Batched`
                    // onward, like a volume bounce.
                    if let Some(e) = log.entry(p.id) {
                        e.wf.preempted_s += wasted_s;
                        e.wf.preempts += 1;
                    }
                    self.tenants.entry(p.tenant()).or_default().row.preempted_s += wasted_s;
                }
            }
            Event::Completed {
                unit,
                dispatched_s,
                card,
                mut outcome,
            } => {
                let r = &mut self.tally;
                r.h2d_bytes += outcome.h2d_bytes;
                r.d2h_bytes += outcome.d2h_bytes;
                for (i, p) in unit.iter().enumerate() {
                    let ph = outcome.phases_of(i);
                    // A transform moves its own payload each way; a DAG
                    // (always its unit's only member) what the outcome
                    // measured, and carries its resident split.
                    let (up, down, resident_s) = match &p.work {
                        Work::Transform(spec) => {
                            let b = spec.shape.payload_bytes();
                            (b, b, 0.0)
                        }
                        Work::Pipeline(pipe) => {
                            r.pipelines += 1;
                            r.pipeline_stages += pipe.stages.len() as u64;
                            r.resident_s += outcome.resident_s;
                            (outcome.h2d_bytes, outcome.d2h_bytes, outcome.resident_s)
                        }
                    };
                    if let Some(mut e) = log.entry(p.id) {
                        e.stamp(Stage::Dispatched, dispatched_s)
                            .stamp(Stage::H2d, ph.h2d_done_s)
                            .stamp(Stage::Compute, ph.compute_done_s)
                            .stamp(Stage::D2h, ph.completion_s)
                            .stamp(Stage::Completed, ph.completion_s);
                        let wf = e.wf;
                        wf.span = Some(outcome.span.clone());
                        wf.card = card;
                        wf.plan_ready_s = Some(ph.plan_ready_s);
                        wf.h2d_start_s = Some(ph.h2d_start_s);
                        wf.resident_s += resident_s;
                        if let Some(ledger) = Ledger::from_waterfall(p.id, wf) {
                            for (name, part) in names::ATTR_US.iter().zip(ledger.parts_s()) {
                                reg.add(name, (part * 1e6).round() as u64);
                            }
                        }
                    }
                    // Goodput counts both directions; the per-card and
                    // per-completion records keep the report's
                    // one-direction convention.
                    let moved = up + down;
                    let bytes = moved / 2;
                    let latency_s = ph.completion_s - p.arrival_s;
                    let timed_out = p.deadline_s().is_some_and(|d| latency_s > d);
                    reg.inc(names::COMPLETED);
                    reg.add(names::PAYLOAD_BYTES, up);
                    let latency_ms = latency_s * 1e3;
                    reg.observe(names::LATENCY_MS_HIST, latency_ms);
                    if latency_ms > self.slo_p95_ms {
                        reg.inc(names::LATENCY_OVER_SLO);
                    }
                    let good = if timed_out {
                        reg.inc(names::TIMEOUTS);
                        0
                    } else {
                        reg.add(names::GOOD_BYTES, moved);
                        moved
                    };
                    self.good_bytes += good;
                    let t = self.tenants.entry(p.tenant()).or_default();
                    t.row.completed += 1;
                    t.row.good_bytes += good;
                    t.latencies_s.push(latency_s);
                    self.first_arrival_s = self.first_arrival_s.min(p.arrival_s);
                    self.last_completion_s = self.last_completion_s.max(ph.completion_s);
                    // A sharded run (no one card) occupies, and splits its
                    // bytes over, every card.
                    let on = match card {
                        Some(ci) => &mut r.cards[ci..=ci],
                        None => &mut r.cards[..],
                    };
                    let split = on.len() as u64;
                    for c in on {
                        c.requests += 1;
                        c.bytes += bytes / split;
                    }
                    self.completion_index.insert(p.id, self.completions.len());
                    self.completions.push(Completion {
                        id: p.id,
                        arrival_s: p.arrival_s,
                        completed_s: ph.completion_s,
                        card,
                        batch_size: unit.len(),
                        timed_out,
                        output: outcome.outputs.as_mut().map(|v| std::mem::take(&mut v[i])),
                    });
                }
            }
            Event::Failed { unit, err } => {
                for p in unit {
                    log.record(p.id, Stage::Failed, now_s);
                    reg.inc(names::FAILED);
                    self.failures.push((p.id, err.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QuotaKind;
    use crate::request::{RequestSpec, Shape};
    use crate::scheduler::Phases;
    use fft_math::twiddle::Direction;

    /// A 256-point, 1-row transform (2 KiB each way) for `tenant`, with an
    /// optional deadline.
    fn pending(id: u64, tenant: u64, arrival_s: f64, deadline_s: Option<f64>) -> Pending {
        let shape = Shape::Rows1d { n: 256, rows: 1 };
        let mut spec = RequestSpec::seeded(shape, Direction::Forward, id).tenant(TenantId(tenant));
        spec.deadline_s = deadline_s;
        Pending {
            id: RequestId(id),
            work: Work::Transform(spec),
            arrival_s,
            vft: arrival_s,
        }
    }

    fn submit(books: &mut Books, p: &Pending) {
        let submitted = Event::Submitted {
            id: p.id,
            tenant: p.tenant(),
            shape: "1d256x1".to_string(),
            priority: Priority::Normal,
            algorithm: "batch-1d",
        };
        books.apply(p.arrival_s, submitted);
        let (id, tenant) = (p.id, p.tenant());
        books.apply(p.arrival_s, Event::Admitted { id, tenant });
    }

    fn finished_at(t_s: f64) -> Outcome {
        let phases = Phases {
            plan_ready_s: t_s,
            h2d_start_s: t_s,
            h2d_done_s: t_s,
            compute_done_s: t_s,
            completion_s: t_s,
        };
        Outcome {
            phases,
            span: "serve_rows_256x1_c0l0".to_string(),
            ..Outcome::default()
        }
    }

    #[test]
    fn completions_book_goodput_over_the_makespan_from_first_arrival() {
        let mut books = Books::new(1e-3, 2, 1.0);
        // A late start: the idle prefix before t=5 must not deflate rates.
        let on_time = pending(0, 0, 5.0, None);
        let late = pending(1, 1, 5.5, Some(0.1));
        for p in [&on_time, &late] {
            submit(&mut books, p);
        }
        assert_eq!(books.makespan_s(), 0.0);
        assert_eq!(books.goodput_gbs(), 0.0);
        let unit = [on_time, late];
        books.apply(5.5, Event::Batched { unit: &unit });
        books.apply(5.5, Event::Launched { size: 2 });
        let outcome = finished_at(7.0);
        let completed = Event::Completed {
            unit: &unit,
            dispatched_s: 5.5,
            card: Some(1),
            outcome,
        };
        books.apply(7.0, completed);
        assert_eq!(books.makespan_s(), 2.0);
        // Only the in-deadline request counts, both directions.
        assert_eq!(books.goodput_gbs(), 4096.0 / 2.0 / 1e9);
        let reg = &books.telemetry.registry;
        assert_eq!(reg.counter(names::TIMEOUTS), 1);
        assert_eq!(reg.counter(names::GOOD_BYTES), 4096);
        assert_eq!(reg.counter(names::LATENCY_OVER_SLO), 2);
        assert_eq!(books.tally.batch_histogram.get(&2), Some(&1));
        assert_eq!(books.tally.cards[1].requests, 2);
        assert_eq!(books.tally.cards[1].bytes, 4096);
        assert_eq!(books.tenants[&TenantId(0)].row.good_bytes, 4096);
        assert_eq!(books.tenants[&TenantId(1)].row.good_bytes, 0);
        assert_eq!(books.completion_index[&RequestId(1)], 1);
        assert!(books.completions[1].timed_out);
        let wf = books.telemetry.lifecycle.get(RequestId(0)).unwrap();
        assert!(wf.is_complete_pipeline() && wf.is_monotone());
        assert_eq!(wf.card, Some(1));
        assert_eq!(books.telemetry.lifecycle.dropped(), 0);
    }

    #[test]
    fn preemption_charges_accumulate_without_touching_stamps() {
        let mut books = Books::new(1e-3, 1, 1.0);
        let p = pending(4, 2, 1.0, None);
        submit(&mut books, &p);
        let unit = [p];
        books.apply(1.2, Event::Batched { unit: &unit });
        for wasted_s in [0.5e-3, 0.25e-3] {
            books.apply(
                1.3,
                Event::Preempted {
                    unit: &unit,
                    wasted_s,
                },
            );
        }
        let wf = books.telemetry.lifecycle.get(RequestId(4)).unwrap();
        assert!((wf.preempted_s - 0.75e-3).abs() < 1e-12);
        assert_eq!(wf.preempts, 2);
        assert_eq!(wf.stage_s(Stage::Submitted), Some(1.0));
        assert_eq!(wf.stage_s(Stage::Batched), Some(1.2));
        assert!((books.tally.preempted_s - 0.75e-3).abs() < 1e-12);
        assert!((books.tenants[&TenantId(2)].row.preempted_s - 0.75e-3).abs() < 1e-12);
        assert_eq!(books.telemetry.registry.counter(names::PREEMPTIONS), 2);
        assert_eq!(books.telemetry.lifecycle.dropped(), 0);
    }

    #[test]
    fn rejections_book_their_reason_and_the_quota_tenant() {
        let mut books = Books::new(1e-3, 1, 1.0);
        let p = pending(0, 3, 0.0, None);
        let submitted = Event::Submitted {
            id: p.id,
            tenant: p.tenant(),
            shape: "1d256x1".to_string(),
            priority: Priority::Low,
            algorithm: "batch-1d",
        };
        books.apply(0.0, submitted);
        let why = Rejection::QuotaExceeded {
            tenant: TenantId(3),
            kind: QuotaKind::Rate,
        };
        books.apply(
            0.0,
            Event::Rejected {
                id: p.id,
                why: &why,
            },
        );
        let wf = books.telemetry.lifecycle.get(p.id).unwrap();
        assert_eq!(wf.terminal(), Some(Stage::Rejected));
        assert_eq!(wf.reject_reason, Some("quota"));
        assert_eq!(wf.priority, Some("low"));
        let row = &books.tenants[&TenantId(3)].row;
        assert_eq!((row.submitted, row.admitted, row.rejected_quota), (1, 0, 1));
        assert_eq!(books.telemetry.registry.counter(names::REJECTED_QUOTA), 1);
        // An event for an id that never submitted is dropped, not booked
        // as a ghost waterfall.
        books.apply(
            0.0,
            Event::Rejected {
                id: RequestId(9),
                why: &why,
            },
        );
        assert!(books.telemetry.lifecycle.get(RequestId(9)).is_none());
        assert_eq!(books.telemetry.lifecycle.dropped(), 1);
    }
}
