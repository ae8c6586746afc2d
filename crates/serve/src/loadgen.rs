//! Deterministic load generation: open-loop (Poisson arrivals at a target
//! rate, rejected requests are lost) and closed-loop (a fixed number of
//! outstanding requests, each resubmitted on completion).
//!
//! Everything derives from one SplitMix64 seed — shapes, payloads,
//! directions, priorities, interarrival gaps — so equal seeds replay the
//! exact same request sequence and, because the service is deterministic,
//! produce bit-identical [`crate::report::ServeReport`] JSON.

use crate::pipeline::{convolution_stages, docking_stages, SeededPipeline};
use crate::qos::TenantId;
use crate::request::{Priority, Rejection, SeededSpec, Shape, Ticket};
use crate::service::FftService;
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;

impl std::str::FromStr for Workload {
    type Err = String;

    /// Parses a CLI workload name: `rows`, `mixed` or `pipeline`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rows" => Ok(Workload::rows()),
            "mixed" => Ok(Workload::mixed()),
            "pipeline" => Ok(Workload::pipeline()),
            other => Err(format!("unknown workload '{other}' (rows|mixed|pipeline)")),
        }
    }
}

/// One submission as a generator draws it: either a single transform or a
/// whole pipeline DAG. Both variants are wire-transportable seeds-only
/// templates, so a recorded schedule replays bit-identically on either
/// side of `bifft-wire-v1.3`.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitTemplate {
    /// A single-transform request ([`FftService::submit`]).
    Single(SeededSpec),
    /// A dependency-aware pipeline ([`FftService::submit_pipeline`]).
    Pipeline(SeededPipeline),
}

impl SubmitTemplate {
    /// Submits to the matching service entry point. Both kinds run every
    /// admission check on the template *before* materializing any payload
    /// ([`FftService::submit_seeded_pipeline`] for DAGs) — a hostile wire
    /// template cannot force a multi-gigabyte expansion by naming absurd
    /// dims or seed counts.
    pub fn submit(&self, svc: &mut FftService, at_s: f64) -> Result<Ticket, Rejection> {
        match self {
            SubmitTemplate::Single(spec) => svc.submit_seeded(spec, at_s),
            SubmitTemplate::Pipeline(pipe) => svc.submit_seeded_pipeline(pipe.clone(), at_s),
        }
    }
}

/// The shape/urgency mix a generator draws from.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Weighted shapes; draw probability is weight over total weight.
    pub shapes: Vec<(Shape, u32)>,
    /// Percent of requests transformed inverse instead of forward.
    pub inverse_pct: u32,
    /// Percent of requests submitted at [`Priority::High`].
    pub high_pct: u32,
    /// Deadline attached to every request, seconds (`None` = best effort).
    pub deadline_s: Option<f64>,
    /// Tenants the generator spreads requests across (uniformly). `1`
    /// leaves every request on the default tenant *and* draws nothing
    /// extra from the rng, so single-tenant schedules predating QoS
    /// replay bit-identically.
    pub tenants: u32,
    /// Percent of draws that are pipeline DAGs (a seeded mix of
    /// convolution and docking-sweep pipelines) instead of single
    /// transforms. `0` draws nothing extra from the rng, so schedules
    /// predating pipelines replay bit-identically.
    pub pipeline_pct: u32,
}

impl Workload {
    /// The Table-8-style 1-D batch mix: mostly 256-point rows with some
    /// 128- and 512-point requests.
    pub fn rows() -> Self {
        Workload {
            shapes: vec![
                (Shape::Rows1d { n: 256, rows: 32 }, 6),
                (Shape::Rows1d { n: 256, rows: 128 }, 2),
                (Shape::Rows1d { n: 128, rows: 64 }, 2),
                (Shape::Rows1d { n: 512, rows: 16 }, 1),
            ],
            inverse_pct: 25,
            high_pct: 10,
            deadline_s: None,
            tenants: 1,
            pipeline_pct: 0,
        }
    }

    /// Rows plus the occasional 32-cubed volume (plan-cache and whole-card
    /// scheduling exercise).
    pub fn mixed() -> Self {
        let mut w = Workload::rows();
        w.shapes.push((
            Shape::Volume {
                nx: 32,
                ny: 32,
                nz: 32,
            },
            1,
        ));
        w
    }

    /// The mixed workload with roughly a third of draws replaced by
    /// pipeline DAGs — the `--workload pipeline` mix.
    pub fn pipeline() -> Self {
        let mut w = Workload::mixed();
        w.pipeline_pct = 35;
        w
    }

    /// Draws one request as a wire-transportable template: everything the
    /// request is — shape, direction, priority, deadline, payload seed — in
    /// a few words, so a schedule of them travels over `bifft-wire-v1` and
    /// both ends materialize bit-identical payloads.
    pub fn draw_template(&self, rng: &mut SplitMix64) -> SeededSpec {
        let total: u32 = self.shapes.iter().map(|&(_, w)| w).sum();
        debug_assert!(total > 0, "workload needs at least one weighted shape");
        let mut pick = rng.below(total as usize) as u32;
        let mut shape = self.shapes[0].0;
        for &(s, w) in &self.shapes {
            if pick < w {
                shape = s;
                break;
            }
            pick -= w;
        }
        let dir = if (rng.below(100) as u32) < self.inverse_pct {
            Direction::Inverse
        } else {
            Direction::Forward
        };
        let prio = if (rng.below(100) as u32) < self.high_pct {
            Priority::High
        } else {
            Priority::Normal
        };
        let tenant = if self.tenants > 1 {
            TenantId(rng.below(self.tenants as usize) as u64)
        } else {
            TenantId(0)
        };
        SeededSpec {
            shape,
            direction: dir,
            algorithm: None,
            priority: prio,
            deadline_s: self.deadline_s,
            tenant,
            seed: rng.next_u64(),
        }
    }

    /// Draws one pipeline DAG template: a convolution or docking sweep
    /// over a small seeded volume pair.
    pub fn draw_pipeline(&self, rng: &mut SplitMix64) -> SeededPipeline {
        let n = if rng.below(2) == 0 { 16 } else { 32 };
        let dims = (n, n, n);
        let elems = n * n * n;
        let stages = if rng.below(2) == 0 {
            convolution_stages(elems)
        } else {
            docking_stages(elems)
        };
        let priority = if (rng.below(100) as u32) < self.high_pct {
            Priority::High
        } else {
            Priority::Normal
        };
        let tenant = if self.tenants > 1 {
            TenantId(rng.below(self.tenants as usize) as u64)
        } else {
            TenantId(0)
        };
        SeededPipeline {
            dims,
            input_seeds: vec![rng.next_u64(), rng.next_u64()],
            stages,
            priority,
            deadline_s: self.deadline_s,
            tenant,
        }
    }

    /// Draws one submission — a single transform, or (with probability
    /// `pipeline_pct`) a pipeline DAG. When `pipeline_pct` is zero this
    /// draws exactly what [`Workload::draw_template`] draws, consuming the
    /// same rng values, so pre-pipeline schedules replay bit-identically.
    pub fn draw_submit(&self, rng: &mut SplitMix64) -> SubmitTemplate {
        if self.pipeline_pct > 0 && (rng.below(100) as u32) < self.pipeline_pct {
            SubmitTemplate::Pipeline(self.draw_pipeline(rng))
        } else {
            SubmitTemplate::Single(self.draw_template(rng))
        }
    }
}

/// The recorded arrival schedule an open-loop run replays: `(at_s,
/// template)` pairs in arrival order, where a template is a single
/// transform *or* a pipeline DAG. This is what `fft-gate` ships to the
/// server side — same seed, same schedule, same [`ServeReport`] whether
/// the requests arrive in-process or over TCP. For workloads with
/// `pipeline_pct = 0` this consumes the same rng values as the original
/// single-only schedule, so pre-pipeline seeds replay bit-identically.
///
/// [`ServeReport`]: crate::report::ServeReport
pub fn open_loop_templates(
    workload: &Workload,
    requests: u64,
    rate_rps: f64,
    seed: u64,
) -> Vec<(f64, SubmitTemplate)> {
    assert!(rate_rps > 0.0, "open loop needs a positive arrival rate");
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    let mut schedule = Vec::with_capacity(requests as usize);
    for _ in 0..requests {
        // Exponential interarrival gap; (1 - u) keeps ln's argument nonzero.
        let gap = -(1.0 - rng.next_f64()).ln() / rate_rps;
        t += gap;
        schedule.push((t, workload.draw_submit(&mut rng)));
    }
    schedule
}

/// What a generator run observed at the submission boundary (the service's
/// own report covers the rest).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OfferedLoad {
    /// Requests the generator submitted.
    pub offered: u64,
    /// Submissions the service admitted.
    pub accepted: u64,
    /// Simulated span of the arrival process, seconds.
    pub span_s: f64,
    /// Offered requests per simulated second over that span.
    pub offered_rps: f64,
}

/// Open-loop (Poisson) load: `requests` arrivals at `rate_rps` mean rate.
/// Arrivals ignore completions — a saturated service sheds via admission
/// control rather than slowing the generator down.
pub fn run_open_loop(
    svc: &mut FftService,
    workload: &Workload,
    requests: u64,
    rate_rps: f64,
    seed: u64,
) -> OfferedLoad {
    let schedule = open_loop_templates(workload, requests, rate_rps, seed);
    let mut t = 0.0f64;
    let mut accepted = 0u64;
    for (at_s, template) in schedule {
        t = at_s;
        if template.submit(svc, at_s).is_ok() {
            accepted += 1;
        }
    }
    OfferedLoad {
        offered: requests,
        accepted,
        span_s: t,
        offered_rps: if t > 0.0 { requests as f64 / t } else { 0.0 },
    }
}

/// Closed-loop load: windows of `concurrency` requests, each window
/// submitted when the previous one has fully drained. `concurrency = 1`
/// is the serial one-at-a-time baseline the acceptance criteria compare
/// the service against.
pub fn run_closed_loop(
    svc: &mut FftService,
    workload: &Workload,
    requests: u64,
    concurrency: u64,
    seed: u64,
) -> OfferedLoad {
    assert!(concurrency > 0, "closed loop needs at least one worker");
    let mut rng = SplitMix64::new(seed);
    let mut accepted = 0u64;
    let mut submitted = 0u64;
    while submitted < requests {
        let window = concurrency.min(requests - submitted);
        let at = svc.now_s();
        for _ in 0..window {
            let template = workload.draw_submit(&mut rng);
            if template.submit(svc, at).is_ok() {
                accepted += 1;
            }
            submitted += 1;
        }
        svc.drain();
    }
    let span = svc.now_s();
    OfferedLoad {
        offered: requests,
        accepted,
        span_s: span,
        offered_rps: if span > 0.0 {
            requests as f64 / span
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    #[test]
    fn workload_draws_are_deterministic() {
        let w = Workload::mixed();
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        for _ in 0..32 {
            let sa = w.draw_template(&mut a).materialize();
            let sb = w.draw_template(&mut b).materialize();
            assert_eq!(sa.shape, sb.shape);
            assert_eq!(sa.direction, sb.direction);
            assert_eq!(sa.priority, sb.priority);
            assert_eq!(sa.payload, sb.payload);
        }
    }

    #[test]
    fn multi_tenant_draws_spread_across_tenants() {
        let mut w = Workload::rows();
        w.tenants = 3;
        let mut rng = SplitMix64::new(9);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let t = w.draw_template(&mut rng).tenant;
            assert!(t.0 < 3);
            seen.insert(t.0);
        }
        assert!(seen.len() >= 2, "50 draws hit more than one tenant");
        // tenants = 1 tags everything with the default tenant.
        let single = Workload::rows();
        let mut rng = SplitMix64::new(9);
        for _ in 0..10 {
            assert_eq!(single.draw_template(&mut rng).tenant, TenantId(0));
        }
    }

    #[test]
    fn open_loop_spaces_arrivals() {
        let mut svc = FftService::new(ServeConfig::default()).unwrap();
        let load = run_open_loop(&mut svc, &Workload::rows(), 20, 1000.0, 7);
        assert_eq!(load.offered, 20);
        assert!(load.accepted > 0);
        assert!(load.span_s > 0.0);
        // Mean gap should be in the right ballpark of 1/rate.
        assert!(load.offered_rps > 200.0 && load.offered_rps < 5000.0);
        let r = svc.finish();
        assert_eq!(r.completed, load.accepted);
    }

    #[test]
    fn closed_loop_completes_everything_in_windows() {
        let mut svc = ServeConfig::builder().gpus(1).build_service().unwrap();
        let load = run_closed_loop(&mut svc, &Workload::rows(), 10, 2, 3);
        assert_eq!(load.offered, 10);
        assert_eq!(load.accepted, 10, "closed loop never overruns the queue");
        let r = svc.finish();
        assert_eq!(r.completed, 10);
    }

    #[test]
    fn pipeline_workload_draws_both_kinds_and_replays() {
        let w = Workload::pipeline();
        let mut a = SplitMix64::new(21);
        let mut b = SplitMix64::new(21);
        let mut pipes = 0;
        let mut singles = 0;
        for _ in 0..64 {
            let ta = w.draw_submit(&mut a);
            let tb = w.draw_submit(&mut b);
            assert_eq!(ta, tb, "same seed, same template");
            match ta {
                SubmitTemplate::Pipeline(p) => {
                    assert!(p.materialize().validate().is_ok());
                    pipes += 1;
                }
                SubmitTemplate::Single(_) => singles += 1,
            }
        }
        assert!(pipes > 0 && singles > 0, "mix draws both kinds");
    }

    #[test]
    fn zero_pipeline_pct_preserves_legacy_rng_order() {
        // A pipeline-disabled draw_submit must consume exactly what
        // draw_template consumed before pipelines existed.
        let w = Workload::mixed();
        let mut a = SplitMix64::new(77);
        let mut b = SplitMix64::new(77);
        for _ in 0..32 {
            match w.draw_submit(&mut a) {
                SubmitTemplate::Single(spec) => assert_eq!(spec, w.draw_template(&mut b)),
                SubmitTemplate::Pipeline(_) => panic!("pipeline_pct = 0 never draws a pipeline"),
            }
        }
    }

    #[test]
    fn pipeline_open_loop_completes_dags() {
        let mut svc = ServeConfig::builder().build_service().unwrap();
        let load = run_open_loop(&mut svc, &Workload::pipeline(), 24, 2000.0, 13);
        assert!(load.accepted > 0);
        let r = svc.finish();
        assert!(r.pipelines > 0, "mix produced at least one pipeline DAG");
        assert!(
            r.pipeline_stages >= 4 * r.pipelines,
            "DAGs have >= 4 stages"
        );
        assert!(r.resident_hits > 0, "intermediates stayed device-resident");
    }

    /// A replayed schedule reports exactly what the open-loop run does,
    /// with its singles submitted as full specs: the seeded admission path
    /// and the full-payload one are interchangeable.
    #[test]
    fn template_schedule_replay_matches_pipeline_run() {
        for workload in [Workload::mixed(), Workload::pipeline()] {
            let run = |mut svc: FftService| {
                run_open_loop(&mut svc, &workload, 24, 2000.0, 11);
                svc.finish().to_json()
            };
            let replay = |mut svc: FftService| {
                for (at_s, tpl) in open_loop_templates(&workload, 24, 2000.0, 11) {
                    let _ = match tpl {
                        SubmitTemplate::Single(spec) => svc.submit(spec.materialize(), at_s),
                        pipe => pipe.submit(&mut svc, at_s),
                    };
                }
                svc.finish().to_json()
            };
            let mk = || ServeConfig::builder().build_service().unwrap();
            assert_eq!(run(mk()), replay(mk()));
        }
    }

    #[test]
    fn workload_names_parse_and_unknown_ones_are_named() {
        for name in ["rows", "mixed", "pipeline"] {
            assert!(name.parse::<Workload>().is_ok(), "{name}");
        }
        let err = "bogus".parse::<Workload>().unwrap_err();
        assert_eq!(err, "unknown workload 'bogus' (rows|mixed|pipeline)");
    }
}
