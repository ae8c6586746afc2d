//! The per-request time ledger: end-to-end latency decomposed into
//! exclusive, exhaustive categories, with a conservation invariant.
//!
//! The source paper's method is an explicit time/bandwidth account of every
//! kernel; this module applies the same discipline to the serving stack.
//! Every completed request's [`super::lifecycle::Waterfall`] (plus the
//! intra-dispatch annotations the scheduler records) is reduced to a
//! boundary chain in pipeline order:
//!
//! ```text
//! Submitted → Admitted → Batched → Dispatched → plan ready → H2D start
//!           → H2D done → compute done → D2H done → Completed
//! ```
//!
//! Each boundary is clamped to be non-decreasing, and the ledger's
//! categories are the consecutive differences — so the category sum
//! *telescopes* to the end-to-end latency and conservation holds by
//! construction up to float rounding ([`CONSERVATION_TOLERANCE_S`]).
//! [`audit`] re-checks the invariant anyway: a future stamp-ordering bug
//! shows up as an unbalanced ledger instead of a silently wrong profile.
//!
//! The `network` category exists for gateway traffic: the *server-side*
//! ledger always reports it as zero (wall-clock network time cannot enter
//! the virtual-time documents without breaking same-seed determinism), and
//! clients reconcile their observed latency against the served ledger using
//! the gate's frame-received/enqueued/acked wall stamps carried on
//! `SubmitAck` (see the gate crate).
//!
//! Everything here is purely observational: building ledgers reads the
//! lifecycle log and never advances a clock or perturbs the schedule.

use super::lifecycle::{LifecycleLog, Stage, Waterfall};
use crate::request::RequestId;
use fft_math::json::{self, need_bool, need_f64, need_obj, need_str, need_u64};
use fft_math::stats::{mean, nearest_rank, sort_samples};
use std::collections::BTreeMap;

/// Schema tag of the attribution JSON document. v2 added the `preempted`
/// category (wasted device time of aborted-and-requeued dispatches); v3
/// added `resident` (pipeline compute over operands already on the card).
pub const ATTR_SCHEMA: &str = "bifft-attr-v3";

/// Largest conservation error a balanced ledger may carry, seconds. The
/// telescoping construction keeps the true error at exactly zero; the
/// tolerance absorbs nothing today and exists so the audit has a contract.
pub const CONSERVATION_TOLERANCE_S: f64 = 1e-9;

/// One exclusive latency category. Declaration order is pipeline order and
/// the order every export renders in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// `Submitted → Admitted`: admission control.
    Admission,
    /// `Admitted → Batched`: waiting in the bounded queue.
    Queue,
    /// `Batched → Dispatched`: waiting for batch formation / a free lane.
    Batch,
    /// `Dispatched → plan ready`: plan-cache lookup or build.
    Plan,
    /// `plan ready → H2D start`: waiting for the staging slot / copy
    /// engine / PCIe link to free up.
    Staging,
    /// `H2D start → H2D done`: host-to-device bytes on the wire.
    H2d,
    /// `H2D done → compute done`: kernel execution.
    Compute,
    /// `compute done → D2H done`: device-to-host bytes on the wire.
    D2h,
    /// `D2H done → Completed`: completion bookkeeping until the poll-visible
    /// stamp.
    Finalize,
    /// Gateway network/pacing overhead. Always zero in server-side ledgers;
    /// reconciled client-side from the wire trace stamps.
    Network,
    /// Device time wasted on dispatches of this request that a lane
    /// preemption aborted — carved out of the `Queue` share (the requeued
    /// wait the waterfall already measured), so conservation still holds.
    Preempted,
    /// Pipeline compute over operands that were already device-resident
    /// (intermediates reused without a PCIe trip) — carved out of the
    /// `Compute` share, so conservation still holds.
    Resident,
}

/// Every category, in pipeline (and export) order.
pub const CATEGORIES: [Category; 12] = [
    Category::Admission,
    Category::Queue,
    Category::Batch,
    Category::Plan,
    Category::Staging,
    Category::H2d,
    Category::Compute,
    Category::D2h,
    Category::Finalize,
    Category::Network,
    Category::Preempted,
    Category::Resident,
];

impl Category {
    /// Stable lowercase label (JSON keys, metric name stems).
    pub fn label(self) -> &'static str {
        match self {
            Category::Admission => "admission",
            Category::Queue => "queue",
            Category::Batch => "batch",
            Category::Plan => "plan",
            Category::Staging => "staging",
            Category::H2d => "h2d",
            Category::Compute => "compute",
            Category::D2h => "d2h",
            Category::Finalize => "finalize",
            Category::Network => "network",
            Category::Preempted => "preempted",
            Category::Resident => "resident",
        }
    }

    fn index(self) -> usize {
        CATEGORIES.iter().position(|&c| c == self).expect("listed")
    }
}

/// One completed request's time ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// The request.
    pub id: RequestId,
    /// Shape label (profile key).
    pub shape: String,
    /// Algorithm label (profile key; `"unknown"` when never annotated).
    pub algorithm: &'static str,
    /// Priority label (profile key; `"unknown"` when never annotated).
    pub priority: &'static str,
    /// Card the launch ran on (`None` = sharded across the fleet).
    pub card: Option<usize>,
    /// The `Completed` stamp, simulated seconds (orders counter tracks).
    pub completed_s: f64,
    /// End-to-end latency, `Submitted → Completed` over the clamped
    /// boundary chain, seconds.
    pub e2e_s: f64,
    parts_s: [f64; CATEGORIES.len()],
}

impl Ledger {
    /// Builds the ledger of one *completed* request; `None` when the
    /// waterfall never reached `Completed` (rejected, failed, in flight).
    ///
    /// Missing intra-dispatch annotations default to the previous boundary
    /// (zero-width category), and every boundary is clamped to be
    /// non-decreasing — a sharded dispatch, which stamps its device phases
    /// together, degrades to zero-width phases instead of negative ones.
    pub fn from_waterfall(id: RequestId, wf: &Waterfall) -> Option<Self> {
        if !wf.is_complete_pipeline() {
            return None;
        }
        let dispatched = wf.stage_s(Stage::Dispatched)?;
        let raw = [
            wf.stage_s(Stage::Submitted)?,
            wf.stage_s(Stage::Admitted)?,
            wf.stage_s(Stage::Batched)?,
            dispatched,
            wf.plan_ready_s.unwrap_or(dispatched),
            wf.h2d_start_s.unwrap_or(dispatched),
            wf.stage_s(Stage::H2d)?,
            wf.stage_s(Stage::Compute)?,
            wf.stage_s(Stage::D2h)?,
            wf.stage_s(Stage::Completed)?,
        ];
        let mut bounds = raw;
        for i in 1..bounds.len() {
            bounds[i] = bounds[i].max(bounds[i - 1]);
        }
        let mut parts_s = [0.0; CATEGORIES.len()];
        for (i, p) in parts_s.iter_mut().take(bounds.len() - 1).enumerate() {
            *p = bounds[i + 1] - bounds[i];
        }
        // parts_s[Network] stays 0.0: server-side ledgers carry no wall
        // time (see the module docs).
        //
        // A preemption victim spent part of its recorded queue time
        // occupying (and then abandoning) a lane; re-label that slice as
        // `preempted`. The carve moves time between categories without
        // changing their sum, so the telescoping conservation is untouched.
        if wf.preempted_s > 0.0 {
            let carve = wf.preempted_s.min(parts_s[Category::Queue.index()]);
            parts_s[Category::Queue.index()] -= carve;
            parts_s[Category::Preempted.index()] += carve;
        }
        // A pipeline spent part of its compute time on stages whose every
        // operand was already on the card; re-label that slice as
        // `resident`. Same move-not-manufacture rule as the preempt carve.
        if wf.resident_s > 0.0 {
            let carve = wf.resident_s.min(parts_s[Category::Compute.index()]);
            parts_s[Category::Compute.index()] -= carve;
            parts_s[Category::Resident.index()] += carve;
        }
        Some(Ledger {
            id,
            shape: wf.shape().to_string(),
            algorithm: wf.algorithm.unwrap_or("unknown"),
            priority: wf.priority.unwrap_or("unknown"),
            card: wf.card,
            completed_s: bounds[bounds.len() - 1],
            e2e_s: bounds[bounds.len() - 1] - bounds[0],
            parts_s,
        })
    }

    /// Seconds attributed to `category`.
    pub fn part_s(&self, category: Category) -> f64 {
        self.parts_s[category.index()]
    }

    /// All category durations, in [`CATEGORIES`] order.
    pub fn parts_s(&self) -> &[f64; CATEGORIES.len()] {
        &self.parts_s
    }

    /// Sum of every category, seconds. Conservation says this equals
    /// [`Ledger::e2e_s`].
    pub fn sum_s(&self) -> f64 {
        self.parts_s.iter().sum()
    }

    /// Absolute conservation error, seconds.
    pub fn conservation_error_s(&self) -> f64 {
        (self.sum_s() - self.e2e_s).abs()
    }
}

/// Ledgers of every completed request in the log, in request-id order.
pub fn collect(log: &LifecycleLog) -> Vec<Ledger> {
    log.iter()
        .filter_map(|(id, wf)| Ledger::from_waterfall(id, wf))
        .collect()
}

/// The conservation audit over a set of ledgers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Audit {
    /// Ledgers checked.
    pub requests: usize,
    /// Ledgers whose category sum missed their e2e latency by more than
    /// [`CONSERVATION_TOLERANCE_S`].
    pub unbalanced: usize,
    /// Largest conservation error seen, seconds.
    pub worst_err_s: f64,
}

impl Audit {
    /// True when every ledger balanced.
    pub fn ok(&self) -> bool {
        self.unbalanced == 0
    }
}

/// Checks conservation on every ledger.
pub fn audit(ledgers: &[Ledger]) -> Audit {
    let mut a = Audit {
        requests: ledgers.len(),
        unbalanced: 0,
        worst_err_s: 0.0,
    };
    for l in ledgers {
        let err = l.conservation_error_s();
        if err > CONSERVATION_TOLERANCE_S {
            a.unbalanced += 1;
        }
        if err > a.worst_err_s {
            a.worst_err_s = err;
        }
    }
    a
}

/// Aggregate statistics of one category over a group of ledgers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CategoryStats {
    /// Total seconds across the group.
    pub total_s: f64,
    /// Mean seconds per request.
    pub mean_s: f64,
    /// Median seconds per request (nearest rank).
    pub p50_s: f64,
    /// 95th-percentile seconds per request (nearest rank).
    pub p95_s: f64,
    /// Largest single-request contribution, seconds.
    pub max_s: f64,
    /// This category's fraction of the group's total attributed time
    /// (0.0 when the group has no time at all).
    pub share: f64,
}

/// A group's aggregated ledger: e2e stats plus per-category stats.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Requests in the group.
    pub n: usize,
    /// Mean e2e latency, seconds.
    pub e2e_mean_s: f64,
    /// Median e2e latency, seconds.
    pub e2e_p50_s: f64,
    /// 95th-percentile e2e latency, seconds.
    pub e2e_p95_s: f64,
    /// Worst e2e latency, seconds.
    pub e2e_max_s: f64,
    /// Per-category stats, in [`CATEGORIES`] order.
    pub cats: [CategoryStats; CATEGORIES.len()],
}

impl Profile {
    /// Aggregates a group of ledgers (empty groups yield all-zero stats).
    pub fn from_ledgers(ledgers: &[&Ledger]) -> Profile {
        let mut e2e: Vec<f64> = ledgers.iter().map(|l| l.e2e_s).collect();
        sort_samples(&mut e2e);
        let grand_total: f64 = ledgers.iter().map(|l| l.sum_s()).sum();
        let mut cats = [CategoryStats::default(); CATEGORIES.len()];
        for (i, c) in CATEGORIES.iter().enumerate() {
            let mut samples: Vec<f64> = ledgers.iter().map(|l| l.part_s(*c)).collect();
            let total: f64 = samples.iter().sum();
            let m = mean(&samples);
            sort_samples(&mut samples);
            cats[i] = CategoryStats {
                total_s: total,
                mean_s: m,
                p50_s: nearest_rank(&samples, 0.50),
                p95_s: nearest_rank(&samples, 0.95),
                max_s: samples.last().copied().unwrap_or(0.0),
                share: if grand_total > 0.0 {
                    total / grand_total
                } else {
                    0.0
                },
            };
        }
        Profile {
            n: ledgers.len(),
            e2e_mean_s: mean(&e2e),
            e2e_p50_s: nearest_rank(&e2e, 0.50),
            e2e_p95_s: nearest_rank(&e2e, 0.95),
            e2e_max_s: e2e.last().copied().unwrap_or(0.0),
            cats,
        }
    }
}

/// The p50-vs-p95 tail decomposition: which category grows when a request
/// lands in the tail instead of the body.
#[derive(Clone, Debug, PartialEq)]
pub struct TailSplit {
    /// Requests at or below the e2e median.
    pub body_n: usize,
    /// Requests at or above the e2e p95.
    pub tail_n: usize,
    /// Per-category mean seconds over the body, [`CATEGORIES`] order.
    pub body_mean_s: [f64; CATEGORIES.len()],
    /// Per-category mean seconds over the tail, [`CATEGORIES`] order.
    pub tail_mean_s: [f64; CATEGORIES.len()],
    /// The category whose tail mean exceeds its body mean the most — "the
    /// tail is queue wait, not compute". Earliest pipeline stage wins ties
    /// (including the degenerate empty-group case).
    pub driver: Category,
    /// How much more of the driver a tail request carries, seconds.
    pub driver_delta_s: f64,
}

/// Splits the ledgers at the e2e p50/p95 thresholds and finds the tail
/// driver.
pub fn tail_split(ledgers: &[Ledger]) -> TailSplit {
    let mut e2e: Vec<f64> = ledgers.iter().map(|l| l.e2e_s).collect();
    sort_samples(&mut e2e);
    let p50 = nearest_rank(&e2e, 0.50);
    let p95 = nearest_rank(&e2e, 0.95);
    let body: Vec<&Ledger> = ledgers.iter().filter(|l| l.e2e_s <= p50).collect();
    let tail: Vec<&Ledger> = ledgers.iter().filter(|l| l.e2e_s >= p95).collect();
    let mean_of = |group: &[&Ledger], c: Category| {
        let samples: Vec<f64> = group.iter().map(|l| l.part_s(c)).collect();
        mean(&samples)
    };
    let mut body_mean_s = [0.0; CATEGORIES.len()];
    let mut tail_mean_s = [0.0; CATEGORIES.len()];
    let mut driver = CATEGORIES[0];
    let mut driver_delta_s = f64::NEG_INFINITY;
    for (i, c) in CATEGORIES.iter().enumerate() {
        body_mean_s[i] = mean_of(&body, *c);
        tail_mean_s[i] = mean_of(&tail, *c);
        let delta = tail_mean_s[i] - body_mean_s[i];
        if delta > driver_delta_s {
            driver = *c;
            driver_delta_s = delta;
        }
    }
    if ledgers.is_empty() {
        driver_delta_s = 0.0;
    }
    TailSplit {
        body_n: body.len(),
        tail_n: tail.len(),
        body_mean_s,
        tail_mean_s,
        driver,
        driver_delta_s,
    }
}

/// One row of the ServeReport "latency budget" table.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetLine {
    /// Category label.
    pub category: &'static str,
    /// Total seconds across every completed request.
    pub total_s: f64,
    /// Fraction of all attributed time.
    pub share: f64,
    /// Mean seconds per request.
    pub mean_s: f64,
    /// 95th-percentile seconds per request.
    pub p95_s: f64,
}

/// The full latency budget, one line per category in [`CATEGORIES`] order.
pub fn budget(ledgers: &[Ledger]) -> Vec<BudgetLine> {
    let refs: Vec<&Ledger> = ledgers.iter().collect();
    let p = Profile::from_ledgers(&refs);
    CATEGORIES
        .iter()
        .enumerate()
        .map(|(i, c)| BudgetLine {
            category: c.label(),
            total_s: p.cats[i].total_s,
            share: p.cats[i].share,
            mean_s: p.cats[i].mean_s,
            p95_s: p.cats[i].p95_s,
        })
        .collect()
}

fn group_by(ledgers: &[Ledger], key: impl Fn(&Ledger) -> String) -> BTreeMap<String, Vec<&Ledger>> {
    let mut groups: BTreeMap<String, Vec<&Ledger>> = BTreeMap::new();
    for l in ledgers {
        groups.entry(key(l)).or_default().push(l);
    }
    groups
}

/// Card profile key: `"card0"`… for placed launches, `"sharded"` for
/// fleet-spanning dispatches.
fn card_key(l: &Ledger) -> String {
    match l.card {
        Some(i) => format!("card{i}"),
        None => "sharded".to_string(),
    }
}

fn fmt_cat_means(means: &[f64; CATEGORIES.len()]) -> String {
    let body: Vec<String> = CATEGORIES
        .iter()
        .enumerate()
        .map(|(i, c)| format!("\"{}\": {}", c.label(), means[i]))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn render_profile_group(out: &mut String, name: &str, groups: &BTreeMap<String, Vec<&Ledger>>) {
    out.push_str(&format!("    \"{name}\": {{"));
    if groups.is_empty() {
        out.push('}');
        return;
    }
    out.push('\n');
    let n = groups.len();
    for (i, (key, members)) in groups.iter().enumerate() {
        let p = Profile::from_ledgers(members);
        let cats: Vec<String> = CATEGORIES
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                format!(
                    "\"{}\": {{\"mean_s\": {}, \"p95_s\": {}, \"share\": {}}}",
                    c.label(),
                    p.cats[ci].mean_s,
                    p.cats[ci].p95_s,
                    p.cats[ci].share
                )
            })
            .collect();
        out.push_str(&format!(
            "      \"{}\": {{\"n\": {}, \"e2e_mean_s\": {}, \"e2e_p50_s\": {}, \
             \"e2e_p95_s\": {}, \"e2e_max_s\": {}, \"cats\": {{{}}}}}{}\n",
            key,
            p.n,
            p.e2e_mean_s,
            p.e2e_p50_s,
            p.e2e_p95_s,
            p.e2e_max_s,
            cats.join(", "),
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("    }");
}

/// Renders the full `bifft-attr-v3` document: conservation audit, overall
/// e2e and per-category stats, the tail decomposition, and the
/// shape/algorithm/priority/card profiles. Hand-rolled and deterministic,
/// like every other document in this repo — same-seed runs are
/// byte-identical.
pub fn render_attr_json(ledgers: &[Ledger]) -> String {
    let a = audit(ledgers);
    let refs: Vec<&Ledger> = ledgers.iter().collect();
    let overall = Profile::from_ledgers(&refs);
    let tail = tail_split(ledgers);
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{ATTR_SCHEMA}\",\n"));
    s.push_str(&format!("  \"requests\": {},\n", a.requests));
    s.push_str(&format!(
        "  \"conservation\": {{\"ok\": {}, \"tolerance_s\": {}, \"unbalanced\": {}, \
         \"worst_err_s\": {}}},\n",
        a.ok(),
        CONSERVATION_TOLERANCE_S,
        a.unbalanced,
        a.worst_err_s
    ));
    s.push_str(&format!(
        "  \"e2e\": {{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"max_s\": {}}},\n",
        overall.e2e_mean_s, overall.e2e_p50_s, overall.e2e_p95_s, overall.e2e_max_s
    ));
    s.push_str("  \"categories\": {\n");
    for (i, c) in CATEGORIES.iter().enumerate() {
        let cs = overall.cats[i];
        s.push_str(&format!(
            "    \"{}\": {{\"total_s\": {}, \"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \
             \"max_s\": {}, \"share\": {}}}{}\n",
            c.label(),
            cs.total_s,
            cs.mean_s,
            cs.p50_s,
            cs.p95_s,
            cs.max_s,
            cs.share,
            if i + 1 < CATEGORIES.len() { "," } else { "" }
        ));
    }
    s.push_str("  },\n");
    s.push_str(&format!(
        "  \"tail\": {{\n    \"body_n\": {},\n    \"tail_n\": {},\n    \"driver\": \"{}\",\n    \
         \"driver_delta_s\": {},\n    \"body_mean_s\": {},\n    \"tail_mean_s\": {}\n  }},\n",
        tail.body_n,
        tail.tail_n,
        tail.driver.label(),
        tail.driver_delta_s,
        fmt_cat_means(&tail.body_mean_s),
        fmt_cat_means(&tail.tail_mean_s)
    ));
    s.push_str("  \"profiles\": {\n");
    render_profile_group(&mut s, "shape", &group_by(ledgers, |l| l.shape.clone()));
    s.push_str(",\n");
    render_profile_group(
        &mut s,
        "algorithm",
        &group_by(ledgers, |l| l.algorithm.to_string()),
    );
    s.push_str(",\n");
    render_profile_group(
        &mut s,
        "priority",
        &group_by(ledgers, |l| l.priority.to_string()),
    );
    s.push_str(",\n");
    render_profile_group(&mut s, "card", &group_by(ledgers, card_key));
    s.push_str("\n  }\n}\n");
    s
}

/// The summary a `bifft-attr-v3` document parses back into — what
/// `fft-prof` shows and diffs.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrSummary {
    /// Completed requests covered.
    pub requests: u64,
    /// Conservation verdict.
    pub conservation_ok: bool,
    /// Worst conservation error, seconds.
    pub worst_err_s: f64,
    /// Mean e2e latency, seconds.
    pub e2e_mean_s: f64,
    /// Median e2e latency, seconds.
    pub e2e_p50_s: f64,
    /// 95th-percentile e2e latency, seconds.
    pub e2e_p95_s: f64,
    /// Per-category mean seconds per request, [`CATEGORIES`] order.
    pub cat_mean_s: [f64; CATEGORIES.len()],
    /// Per-category share of attributed time, [`CATEGORIES`] order.
    pub cat_share: [f64; CATEGORIES.len()],
    /// Tail-driver category label.
    pub driver: String,
    /// Tail-driver delta, seconds.
    pub driver_delta_s: f64,
}

/// Parses an attribution document back into its [`AttrSummary`].
///
/// # Errors
/// A syntax error, a wrong schema tag, or a missing or mistyped field.
pub fn parse_attr_json(text: &str) -> Result<AttrSummary, String> {
    let doc = json::parse(text)?;
    let schema = need_str(&doc, "schema")?;
    if schema != ATTR_SCHEMA {
        return Err(format!("schema '{schema}' is not '{ATTR_SCHEMA}'"));
    }
    let conservation = need_obj(&doc, "conservation")?;
    let e2e = need_obj(&doc, "e2e")?;
    let categories = need_obj(&doc, "categories")?;
    let tail = need_obj(&doc, "tail")?;
    let mut cat_mean_s = [0.0; CATEGORIES.len()];
    let mut cat_share = [0.0; CATEGORIES.len()];
    for (i, c) in CATEGORIES.iter().enumerate() {
        let cat = need_obj(categories, c.label())?;
        cat_mean_s[i] = need_f64(cat, "mean_s")?;
        cat_share[i] = need_f64(cat, "share")?;
    }
    Ok(AttrSummary {
        requests: need_u64(&doc, "requests")?,
        conservation_ok: need_bool(conservation, "ok")?,
        worst_err_s: need_f64(conservation, "worst_err_s")?,
        e2e_mean_s: need_f64(e2e, "mean_s")?,
        e2e_p50_s: need_f64(e2e, "p50_s")?,
        e2e_p95_s: need_f64(e2e, "p95_s")?,
        cat_mean_s,
        cat_share,
        driver: need_str(tail, "driver")?.to_string(),
        driver_delta_s: need_f64(tail, "driver_delta_s")?,
    })
}

/// Renders one parsed summary as the human table `fft-prof show` prints.
pub fn render_summary_text(s: &AttrSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "requests {}   conservation {} (worst err {:.3e} s)\n",
        s.requests,
        if s.conservation_ok {
            "ok"
        } else {
            "UNBALANCED"
        },
        s.worst_err_s
    ));
    out.push_str(&format!(
        "e2e  mean {:.3} ms   p50 {:.3} ms   p95 {:.3} ms\n",
        s.e2e_mean_s * 1e3,
        s.e2e_p50_s * 1e3,
        s.e2e_p95_s * 1e3
    ));
    out.push_str("category    mean(ms)    share\n");
    for (i, c) in CATEGORIES.iter().enumerate() {
        out.push_str(&format!(
            "{:<10} {:>9.4} {:>7.1}%\n",
            c.label(),
            s.cat_mean_s[i] * 1e3,
            s.cat_share[i] * 100.0
        ));
    }
    out.push_str(&format!(
        "tail driver: {} (+{:.4} ms per tail request)\n",
        s.driver,
        s.driver_delta_s * 1e3
    ));
    out
}

/// Compares two parsed summaries and names the category responsible for
/// the e2e movement — the `fft-prof diff` regression-forensics report.
pub fn render_diff_text(before: &AttrSummary, after: &AttrSummary) -> String {
    let mut out = String::new();
    let d_e2e = after.e2e_mean_s - before.e2e_mean_s;
    let pct = if before.e2e_mean_s > 0.0 {
        d_e2e / before.e2e_mean_s * 100.0
    } else {
        0.0
    };
    out.push_str(&format!(
        "e2e mean: {:.3} ms -> {:.3} ms ({:+.3} ms, {:+.1}%)\n",
        before.e2e_mean_s * 1e3,
        after.e2e_mean_s * 1e3,
        d_e2e * 1e3,
        pct
    ));
    out.push_str("category    before(ms)  after(ms)   delta(ms)\n");
    let mut culprit = CATEGORIES[0];
    let mut culprit_delta = 0.0f64;
    for (i, c) in CATEGORIES.iter().enumerate() {
        let delta = after.cat_mean_s[i] - before.cat_mean_s[i];
        if delta.abs() > culprit_delta.abs() {
            culprit = *c;
            culprit_delta = delta;
        }
        out.push_str(&format!(
            "{:<10} {:>10.4} {:>10.4} {:>+11.4}\n",
            c.label(),
            before.cat_mean_s[i] * 1e3,
            after.cat_mean_s[i] * 1e3,
            delta * 1e3
        ));
    }
    if culprit_delta == 0.0 {
        out.push_str("no category moved\n");
    } else {
        out.push_str(&format!(
            "responsible category: {} ({:+.4} ms per request)\n",
            culprit.label(),
            culprit_delta * 1e3
        ));
    }
    if before.driver != after.driver {
        out.push_str(&format!(
            "tail driver changed: {} -> {}\n",
            before.driver, after.driver
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The waterfall of a started request, for a test's annotations.
    fn wf(log: &mut LifecycleLog, id: RequestId) -> &mut Waterfall {
        log.entry(id).expect("started").wf
    }

    /// Sets the submission labels the service's fold records.
    fn label(log: &mut LifecycleLog, id: RequestId, priority: &'static str, algo: &'static str) {
        let w = wf(log, id);
        w.priority = Some(priority);
        w.algorithm = Some(algo);
    }

    fn started(id: u64, shape: &str) -> (LifecycleLog, RequestId) {
        let mut log = LifecycleLog::default();
        let rid = RequestId(id);
        log.start(rid, shape.to_string(), 0.0);
        (log, rid)
    }

    fn complete(
        log: &mut LifecycleLog,
        id: RequestId,
        stamps: [f64; 8],
        phases: Option<(f64, f64)>,
    ) {
        log.record(id, Stage::Submitted, stamps[0]);
        log.record(id, Stage::Admitted, stamps[1]);
        log.record(id, Stage::Batched, stamps[2]);
        log.record(id, Stage::Dispatched, stamps[3]);
        log.record(id, Stage::H2d, stamps[4]);
        log.record(id, Stage::Compute, stamps[5]);
        log.record(id, Stage::D2h, stamps[6]);
        log.record(id, Stage::Completed, stamps[7]);
        if let Some((plan, h2d)) = phases {
            let w = wf(log, id);
            w.plan_ready_s = Some(plan);
            w.h2d_start_s = Some(h2d);
        }
    }

    #[test]
    fn ledger_telescopes_and_conserves() {
        let (mut log, id) = started(1, "1d256x16");
        label(&mut log, id, "normal", "batch-1d");
        complete(
            &mut log,
            id,
            [0.0, 0.1, 0.3, 0.4, 0.7, 0.9, 1.0, 1.05],
            Some((0.45, 0.6)),
        );
        let l = Ledger::from_waterfall(id, log.get(id).unwrap()).unwrap();
        assert_eq!(l.e2e_s, 1.05);
        assert!(l.conservation_error_s() <= CONSERVATION_TOLERANCE_S);
        assert!((l.part_s(Category::Admission) - 0.1).abs() < 1e-12);
        assert!((l.part_s(Category::Queue) - 0.2).abs() < 1e-12);
        assert!((l.part_s(Category::Batch) - 0.1).abs() < 1e-12);
        assert!((l.part_s(Category::Plan) - 0.05).abs() < 1e-12);
        assert!((l.part_s(Category::Staging) - 0.15).abs() < 1e-12);
        assert!((l.part_s(Category::H2d) - 0.1).abs() < 1e-12);
        assert!((l.part_s(Category::Compute) - 0.2).abs() < 1e-12);
        assert!((l.part_s(Category::D2h) - 0.1).abs() < 1e-12);
        assert!((l.part_s(Category::Finalize) - 0.05).abs() < 1e-12);
        assert_eq!(l.part_s(Category::Network), 0.0);
    }

    #[test]
    fn degenerate_stamps_clamp_to_zero_width_phases() {
        // A sharded dispatch stamps every device phase at completion and
        // never annotates intra-dispatch boundaries.
        let (mut log, id) = started(2, "vol64x64x64");
        complete(&mut log, id, [0.0, 0.0, 0.2, 0.2, 1.0, 1.0, 1.0, 1.0], None);
        let l = Ledger::from_waterfall(id, log.get(id).unwrap()).unwrap();
        assert!(l.conservation_error_s() <= CONSERVATION_TOLERANCE_S);
        assert_eq!(l.part_s(Category::Admission), 0.0);
        assert_eq!(l.part_s(Category::Compute), 0.0);
        assert!((l.part_s(Category::H2d) - 0.8).abs() < 1e-12);
        assert_eq!(l.algorithm, "unknown");
        assert_eq!(l.priority, "unknown");
    }

    #[test]
    fn preempt_charge_carves_queue_into_preempted_and_conserves() {
        let (mut log, id) = started(4, "1d256x8");
        label(&mut log, id, "low", "batch-1d");
        // 0.3 s of queue time (admitted 0.1 → batched 0.4), of which 0.2 s
        // was a dispatch a preemption threw away.
        complete(
            &mut log,
            id,
            [0.0, 0.1, 0.4, 0.4, 0.5, 0.6, 0.7, 0.7],
            Some((0.4, 0.45)),
        );
        wf(&mut log, id).preempted_s += 0.2;
        let l = Ledger::from_waterfall(id, log.get(id).unwrap()).unwrap();
        assert!((l.part_s(Category::Preempted) - 0.2).abs() < 1e-12);
        assert!((l.part_s(Category::Queue) - 0.1).abs() < 1e-12);
        assert!(l.conservation_error_s() <= CONSERVATION_TOLERANCE_S);
        // A charge larger than the measured queue time clamps — the ledger
        // never goes negative and never manufactures time.
        let (mut log2, id2) = started(5, "1d256x8");
        complete(
            &mut log2,
            id2,
            [0.0, 0.1, 0.4, 0.4, 0.5, 0.6, 0.7, 0.7],
            None,
        );
        wf(&mut log2, id2).preempted_s += 9.0;
        let l2 = Ledger::from_waterfall(id2, log2.get(id2).unwrap()).unwrap();
        assert!((l2.part_s(Category::Preempted) - 0.3).abs() < 1e-12);
        assert_eq!(l2.part_s(Category::Queue), 0.0);
        assert!(l2.conservation_error_s() <= CONSERVATION_TOLERANCE_S);
    }

    #[test]
    fn resident_credit_carves_compute_into_resident_and_conserves() {
        let (mut log, id) = started(6, "pipe32x32x32s4");
        label(&mut log, id, "normal", "pipeline");
        // 0.3 s of compute (h2d 0.5 → compute 0.8), of which 0.2 s ran over
        // operands that were already device-resident.
        complete(
            &mut log,
            id,
            [0.0, 0.1, 0.4, 0.4, 0.5, 0.8, 0.9, 0.9],
            Some((0.4, 0.45)),
        );
        wf(&mut log, id).resident_s += 0.2;
        let l = Ledger::from_waterfall(id, log.get(id).unwrap()).unwrap();
        assert!((l.part_s(Category::Resident) - 0.2).abs() < 1e-12);
        assert!((l.part_s(Category::Compute) - 0.1).abs() < 1e-12);
        assert!(l.conservation_error_s() <= CONSERVATION_TOLERANCE_S);
        // A credit larger than the measured compute time clamps.
        let (mut log2, id2) = started(7, "pipe32x32x32s4");
        complete(
            &mut log2,
            id2,
            [0.0, 0.1, 0.4, 0.4, 0.5, 0.8, 0.9, 0.9],
            None,
        );
        wf(&mut log2, id2).resident_s += 9.0;
        let l2 = Ledger::from_waterfall(id2, log2.get(id2).unwrap()).unwrap();
        assert!((l2.part_s(Category::Resident) - 0.3).abs() < 1e-12);
        assert_eq!(l2.part_s(Category::Compute), 0.0);
        assert!(l2.conservation_error_s() <= CONSERVATION_TOLERANCE_S);
    }

    #[test]
    fn incomplete_waterfalls_have_no_ledger() {
        let (mut log, id) = started(3, "1d256x4");
        log.record(id, Stage::Admitted, 0.1);
        assert!(Ledger::from_waterfall(id, log.get(id).unwrap()).is_none());
        assert!(collect(&log).is_empty());
    }

    fn synthetic_ledgers() -> Vec<Ledger> {
        let mut log = LifecycleLog::default();
        // Nine fast requests compute-bound, one slow request queue-bound:
        // the tail driver must come out as queue wait.
        for i in 0..9 {
            let rid = RequestId(i);
            let t0 = i as f64 * 0.01;
            log.start(rid, "1d256x16".to_string(), t0);
            label(&mut log, rid, "normal", "batch-1d");
            complete(
                &mut log,
                rid,
                [
                    t0,
                    t0,
                    t0 + 0.001,
                    t0 + 0.001,
                    t0 + 0.002,
                    t0 + 0.008,
                    t0 + 0.009,
                    t0 + 0.009,
                ],
                Some((t0 + 0.001, t0 + 0.001)),
            );
            wf(&mut log, rid).span = Some("serve_rows_256x16_c0l0".to_string());
            wf(&mut log, rid).card = Some(0);
        }
        let slow = RequestId(9);
        log.start(slow, "1d256x16".to_string(), 0.0);
        label(&mut log, slow, "low", "batch-1d");
        complete(
            &mut log,
            slow,
            [0.0, 0.0, 0.5, 0.5, 0.502, 0.508, 0.509, 0.509],
            Some((0.5, 0.501)),
        );
        wf(&mut log, slow).span = Some("serve_rows_256x16_c1l0".to_string());
        wf(&mut log, slow).card = Some(1);
        collect(&log)
    }

    #[test]
    fn tail_split_names_the_queue_as_driver() {
        let ledgers = synthetic_ledgers();
        assert_eq!(ledgers.len(), 10);
        let a = audit(&ledgers);
        assert!(a.ok(), "worst err {}", a.worst_err_s);
        let tail = tail_split(&ledgers);
        assert_eq!(tail.driver, Category::Queue);
        assert!(tail.driver_delta_s > 0.4);
        assert!(tail.tail_n >= 1);
    }

    #[test]
    fn profiles_group_and_budget_sums_to_e2e() {
        let ledgers = synthetic_ledgers();
        let by_card = group_by(&ledgers, card_key);
        assert_eq!(
            by_card.keys().cloned().collect::<Vec<_>>(),
            vec!["card0".to_string(), "card1".to_string()]
        );
        assert_eq!(by_card["card0"].len(), 9);
        let lines = budget(&ledgers);
        assert_eq!(lines.len(), CATEGORIES.len());
        let total: f64 = lines.iter().map(|l| l.total_s).sum();
        let e2e_total: f64 = ledgers.iter().map(|l| l.e2e_s).sum();
        assert!((total - e2e_total).abs() < 1e-9);
        let share_sum: f64 = lines.iter().map(|l| l.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attr_json_round_trips_and_is_deterministic() {
        let ledgers = synthetic_ledgers();
        let doc = render_attr_json(&ledgers);
        assert_eq!(doc, render_attr_json(&ledgers), "byte-identical re-render");
        let parsed = parse_attr_json(&doc).unwrap();
        assert_eq!(parsed.requests, 10);
        assert!(parsed.conservation_ok);
        assert_eq!(parsed.driver, "queue");
        let refs: Vec<&Ledger> = ledgers.iter().collect();
        let overall = Profile::from_ledgers(&refs);
        for i in 0..CATEGORIES.len() {
            assert_eq!(parsed.cat_mean_s[i], overall.cats[i].mean_s);
            assert_eq!(parsed.cat_share[i], overall.cats[i].share);
        }
        assert_eq!(parsed.e2e_p95_s, overall.e2e_p95_s);
        // The human renderers stay total.
        assert!(render_summary_text(&parsed).contains("tail driver: queue"));
        let same = render_diff_text(&parsed, &parsed);
        assert!(same.contains("no category moved"));
    }

    #[test]
    fn diff_names_the_moved_category() {
        let ledgers = synthetic_ledgers();
        let before = parse_attr_json(&render_attr_json(&ledgers)).unwrap();
        let mut after = before.clone();
        after.cat_mean_s[Category::Compute.index()] += 0.004;
        after.e2e_mean_s += 0.004;
        let report = render_diff_text(&before, &after);
        assert!(
            report.contains("responsible category: compute (+4.0000 ms per request)"),
            "{report}"
        );
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(parse_attr_json("{}").is_err());
        let doc = render_attr_json(&[]);
        let parsed = parse_attr_json(&doc).unwrap();
        assert_eq!(parsed.requests, 0);
        assert!(parsed.conservation_ok);
        assert!(parse_attr_json(&doc.replace(ATTR_SCHEMA, "bifft-attr-v0")).is_err());
        // A non-JSON line anywhere, or a mistyped field, is not a document.
        let doc = render_attr_json(&synthetic_ledgers());
        let at = doc.find("  \"profiles\"").unwrap();
        let broken = format!("{}]]] not json [[[\n{}", &doc[..at], &doc[at..]);
        let err = parse_attr_json(&broken).unwrap_err();
        assert!(err.ends_with("found ']'"), "{err}");
        let err = parse_attr_json(&doc.replacen("\"requests\": 10", "\"requests\": \"10\"", 1));
        assert_eq!(err.unwrap_err(), "field 'requests' is not an integer");
        assert!(
            parse_attr_json(&doc.replacen("\"driver\": \"queue\"", "\"driver\": 7", 1)).is_err()
        );
    }

    #[test]
    fn extreme_doubles_round_trip_bit_exactly() {
        // `Display` spells 1e-70 and subnormals out in full (no exponent).
        for e2e in [1e-70, 5e-324, f64::MIN_POSITIVE * 0.3] {
            let (mut log, id) = started(1, "1d256x16");
            complete(&mut log, id, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, e2e], None);
            let ledgers = collect(&log);
            let parsed = parse_attr_json(&render_attr_json(&ledgers)).unwrap();
            assert_eq!(parsed.e2e_mean_s.to_bits(), e2e.to_bits());
            let finalize = parsed.cat_mean_s[Category::Finalize.index()];
            assert_eq!(finalize.to_bits(), e2e.to_bits());
        }
    }
}
