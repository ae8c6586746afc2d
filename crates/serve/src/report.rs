//! The service's summary: latency percentiles, goodput, queue and batching
//! statistics, per-card utilization.
//!
//! The service fills it from the books its events fold into
//! ([`crate::telemetry`]); it renders in the same hand-rolled JSON style as
//! `bifft-bench` (shortest-roundtrip `f64` display, `BTreeMap`-ordered
//! keys), so equal runs produce byte-identical JSON.

use crate::telemetry::{export::render_slo_json, BudgetLine, SloReport};
use fft_math::stats;
use std::collections::BTreeMap;

/// Per-tenant accounting the report's tenancy section publishes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantReport {
    /// The tenant id.
    pub tenant: u64,
    /// Configured weighted-fair-queueing share.
    pub share: f64,
    /// Submissions attributed to the tenant (admitted + rejected).
    pub submitted: u64,
    /// Submissions that entered the queue.
    pub admitted: u64,
    /// Submissions bounced by the tenant's quota.
    pub rejected_quota: u64,
    /// Requests completed.
    pub completed: u64,
    /// In-deadline payload bytes both directions (goodput numerator).
    pub good_bytes: u64,
    /// Nearest-rank p95 completion latency, seconds.
    pub p95_s: f64,
    /// Whether the tenant's p95 met the service SLO latency target
    /// (vacuously true when no SLO is configured or nothing completed).
    pub p95_ok: bool,
    /// Device seconds wasted by preemptions charged to this tenant.
    pub preempted_s: f64,
}

/// Nearest-rank latency percentiles over a completion set, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Completions observed.
    pub count: usize,
    /// Median (nearest-rank p50).
    pub p50_s: f64,
    /// Nearest-rank p95.
    pub p95_s: f64,
    /// Nearest-rank p99.
    pub p99_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Largest observed latency.
    pub max_s: f64,
}

impl LatencyStats {
    /// Computes the stats from raw latencies (empty input gives zeros).
    /// Percentiles come from the shared [`fft_math::stats`] nearest-rank
    /// helper, so the report and the bench gate agree on what "p95" means.
    pub fn from_latencies(mut lat: Vec<f64>) -> Self {
        if lat.is_empty() {
            return LatencyStats::default();
        }
        stats::sort_samples(&mut lat);
        LatencyStats {
            count: lat.len(),
            p50_s: stats::nearest_rank(&lat, 0.50),
            p95_s: stats::nearest_rank(&lat, 0.95),
            p99_s: stats::nearest_rank(&lat, 0.99),
            mean_s: lat.iter().sum::<f64>() / lat.len() as f64,
            max_s: lat[lat.len() - 1],
        }
    }
}

/// Per-card counters the report publishes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CardReport {
    /// Requests whose launch ran (at least partly) on this card.
    pub requests: u64,
    /// Payload bytes moved through this card's launches.
    pub bytes: u64,
    /// Compute-engine busy seconds over the service makespan, `[0, 1]`.
    pub utilization: f64,
    /// DMA-engine busy seconds (both directions) over the makespan, `[0, 1]`.
    pub copy_utilization: f64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
}

/// The full end-of-run summary ([`crate::service::FftService::report`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Requests submitted (admitted + rejected).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Requests shed because their deadline was infeasible at admission.
    pub rejected_deadline: u64,
    /// Requests rejected as unsupported (bad shape).
    pub rejected_unsupported: u64,
    /// Requests rejected because their rows payload exceeds a lane's
    /// staging slot.
    pub rejected_oversized: u64,
    /// Requests rejected because a previous attempt proved the fleet cannot
    /// allocate the volume.
    pub rejected_unallocatable: u64,
    /// Requests rejected because their tenant was over quota.
    pub rejected_quota: u64,
    /// Admitted requests that failed at dispatch (volumes even the whole
    /// fleet could not allocate).
    pub failed: u64,
    /// Completions that missed their deadline.
    pub timeouts: u64,
    /// Dispatched batches aborted at a stream-safe point and requeued.
    pub preemptions: u64,
    /// Device seconds those aborted dispatch windows wasted.
    pub preempted_s: f64,
    /// Pipeline requests completed (each DAG counts once).
    pub pipelines: u64,
    /// Stages those pipelines executed on-card.
    pub pipeline_stages: u64,
    /// Residency-ledger hits: pipeline operand reads served from a
    /// device-resident slot (no PCIe trip).
    pub resident_hits: u64,
    /// Residency-ledger misses: operand reads that had to upload.
    pub resident_misses: u64,
    /// Residency-ledger evictions: slots spilled to host under memory
    /// pressure.
    pub resident_evictions: u64,
    /// Compute seconds pipelines spent over fully device-resident
    /// operands (the attribution ledger's `resident` category feed).
    pub resident_s: f64,
    /// Payload bytes that actually crossed PCIe host-to-device, all
    /// request kinds.
    pub h2d_bytes: u64,
    /// Payload bytes that actually crossed PCIe device-to-host.
    pub d2h_bytes: u64,
    /// First arrival to last completion, simulated seconds.
    pub makespan_s: f64,
    /// Latency percentiles over all completions.
    pub latency: LatencyStats,
    /// Payload bytes completed within deadline (in + out), over makespan.
    pub goodput_gbs: f64,
    /// Completed requests per simulated second.
    pub achieved_rps: f64,
    /// Deepest the submission queue got, waiting pipeline DAGs included
    /// (one entry each, as in the capacity bound).
    pub queue_max_depth: usize,
    /// Mean queue depth sampled at each batch formation, waiting pipeline
    /// DAGs included.
    pub queue_mean_depth: f64,
    /// Histogram of launch batch sizes (batch size -> launches).
    pub batch_histogram: BTreeMap<usize, u64>,
    /// Per-card counters, indexed by card.
    pub cards: Vec<CardReport>,
    /// The SLO verdict ([`crate::telemetry::slo`]); vacuously `ok` when no
    /// objectives were evaluated.
    pub slo: SloReport,
    /// The latency budget: per-category attributed time across every
    /// completed request, one line per ledger category
    /// ([`crate::telemetry::attribution`]); empty when nothing completed.
    pub budget: Vec<BudgetLine>,
    /// Per-tenant accounting, tenant-id order. A single-tenant run lists
    /// just the default tenant.
    pub tenants: Vec<TenantReport>,
    /// Jain's fairness index over share-weighted tenant goodput (`1.0`
    /// with at most one active tenant).
    pub fairness_index: f64,
}

impl ServeReport {
    /// Mean launch batch size (0 when nothing launched).
    pub fn mean_batch_size(&self) -> f64 {
        let launches: u64 = self.batch_histogram.values().sum();
        if launches == 0 {
            return 0.0;
        }
        let requests: u64 = self
            .batch_histogram
            .iter()
            .map(|(&size, &n)| size as u64 * n)
            .sum();
        requests as f64 / launches as f64
    }

    /// Renders the report as deterministic JSON (2-space indent).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        // Scalars in document order; f64 and integer fields render with
        // their shortest round-trip `Display`.
        let ms = |secs: f64| secs * 1e3;
        let scalars: [(&str, &dyn std::fmt::Display); 31] = [
            ("submitted", &self.submitted),
            ("admitted", &self.admitted),
            ("completed", &self.completed),
            ("rejected_queue_full", &self.rejected_queue_full),
            ("rejected_deadline", &self.rejected_deadline),
            ("rejected_unsupported", &self.rejected_unsupported),
            ("rejected_oversized", &self.rejected_oversized),
            ("rejected_unallocatable", &self.rejected_unallocatable),
            ("rejected_quota", &self.rejected_quota),
            ("failed", &self.failed),
            ("timeouts", &self.timeouts),
            ("preemptions", &self.preemptions),
            ("preempted_s", &self.preempted_s),
            ("pipelines", &self.pipelines),
            ("pipeline_stages", &self.pipeline_stages),
            ("resident_hits", &self.resident_hits),
            ("resident_misses", &self.resident_misses),
            ("resident_evictions", &self.resident_evictions),
            ("resident_s", &self.resident_s),
            ("h2d_bytes", &self.h2d_bytes),
            ("d2h_bytes", &self.d2h_bytes),
            ("makespan_s", &self.makespan_s),
            ("p50_ms", &ms(self.latency.p50_s)),
            ("p95_ms", &ms(self.latency.p95_s)),
            ("p99_ms", &ms(self.latency.p99_s)),
            ("mean_ms", &ms(self.latency.mean_s)),
            ("max_ms", &ms(self.latency.max_s)),
            ("goodput_gbs", &self.goodput_gbs),
            ("achieved_rps", &self.achieved_rps),
            ("queue_max_depth", &self.queue_max_depth),
            ("queue_mean_depth", &self.queue_mean_depth),
        ];
        for (key, v) in scalars {
            s.push_str(&format!("  \"{key}\": {v},\n"));
        }
        s.push_str("  \"batch_histogram\": {");
        let mut first = true;
        for (size, n) in &self.batch_histogram {
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{size}\": {n}"));
        }
        s.push_str("},\n");
        s.push_str("  \"cards\": [\n");
        for (i, c) in self.cards.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"card\": {}, \"requests\": {}, \"bytes\": {}, \"utilization\": {}, \"copy_utilization\": {}, \"plan_hits\": {}, \"plan_misses\": {}}}{}\n",
                i,
                c.requests,
                c.bytes,
                c.utilization,
                c.copy_utilization,
                c.plan_hits,
                c.plan_misses,
                if i + 1 < self.cards.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"budget\": [\n");
        for (i, b) in self.budget.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"category\": \"{}\", \"total_s\": {}, \"share\": {}, \"mean_s\": {}, \"p95_s\": {}}}{}\n",
                b.category,
                b.total_s,
                b.share,
                b.mean_s,
                b.p95_s,
                if i + 1 < self.budget.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"fairness_index\": {},\n", self.fairness_index));
        s.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"tenant\": {}, \"share\": {}, \"submitted\": {}, \"admitted\": {}, \"rejected_quota\": {}, \"completed\": {}, \"good_bytes\": {}, \"p95_ms\": {}, \"p95_ok\": {}, \"preempted_s\": {}}}{}\n",
                t.tenant,
                t.share,
                t.submitted,
                t.admitted,
                t.rejected_quota,
                t.completed,
                t.good_bytes,
                t.p95_s * 1e3,
                t.p95_ok,
                t.preempted_s,
                if i + 1 < self.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"slo\": ");
        s.push_str(&render_slo_json(&self.slo, "  "));
        s.push_str("\n}\n");
        s
    }

    /// Renders a human-readable multi-line summary.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "requests: {} submitted, {} admitted, {} completed ({} timeouts, {} failed)\n",
            self.submitted, self.admitted, self.completed, self.timeouts, self.failed
        ));
        s.push_str(&format!(
            "rejected: {} queue-full, {} deadline, {} unsupported, {} oversized, {} unallocatable, {} quota\n",
            self.rejected_queue_full,
            self.rejected_deadline,
            self.rejected_unsupported,
            self.rejected_oversized,
            self.rejected_unallocatable,
            self.rejected_quota
        ));
        s.push_str(&format!(
            "latency:  p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms | mean {:.3} ms\n",
            self.latency.p50_s * 1e3,
            self.latency.p95_s * 1e3,
            self.latency.p99_s * 1e3,
            self.latency.mean_s * 1e3
        ));
        s.push_str(&format!(
            "goodput:  {:.3} GB/s | {:.1} req/s | makespan {:.3} ms\n",
            self.goodput_gbs,
            self.achieved_rps,
            self.makespan_s * 1e3
        ));
        s.push_str(&format!(
            "queue:    max depth {} | mean depth {:.2} | mean batch {:.2}\n",
            self.queue_max_depth,
            self.queue_mean_depth,
            self.mean_batch_size()
        ));
        for (i, c) in self.cards.iter().enumerate() {
            s.push_str(&format!(
                "card {i}:   {} reqs | {:.1} MiB | util {:.1}% | copy {:.1}% | plans {}/{} hit\n",
                c.requests,
                c.bytes as f64 / (1 << 20) as f64,
                c.utilization * 100.0,
                c.copy_utilization * 100.0,
                c.plan_hits,
                c.plan_hits + c.plan_misses
            ));
        }
        if !self.budget.is_empty() {
            s.push_str("budget:   category      mean_ms    p95_ms   share\n");
            for b in &self.budget {
                s.push_str(&format!(
                    "          {:<10} {:>9.4} {:>9.4} {:>6.1}%\n",
                    b.category,
                    b.mean_s * 1e3,
                    b.p95_s * 1e3,
                    b.share * 100.0
                ));
            }
        }
        if self.preemptions > 0 {
            s.push_str(&format!(
                "preempt:  {} lane preemptions | {:.3} ms wasted\n",
                self.preemptions,
                self.preempted_s * 1e3
            ));
        }
        if self.pipelines > 0 {
            let reads = self.resident_hits + self.resident_misses;
            s.push_str(&format!(
                "pipeline: {} DAGs | {} stages | resident {}/{} reads | {} spills | pcie {:.1}/{:.1} MiB up/down\n",
                self.pipelines,
                self.pipeline_stages,
                self.resident_hits,
                reads,
                self.resident_evictions,
                self.h2d_bytes as f64 / (1 << 20) as f64,
                self.d2h_bytes as f64 / (1 << 20) as f64
            ));
        }
        if self.tenants.len() > 1 {
            s.push_str(&format!(
                "tenants:  {} active | fairness index {:.3}\n",
                self.tenants.len(),
                self.fairness_index
            ));
            for t in &self.tenants {
                s.push_str(&format!(
                    "          tenant{} share {:.1}: {}/{} done | {} quota-rej | p95 {:.3} ms{}\n",
                    t.tenant,
                    t.share,
                    t.completed,
                    t.submitted,
                    t.rejected_quota,
                    t.p95_s * 1e3,
                    if t.p95_ok { "" } else { " (over SLO)" }
                ));
            }
        }
        if self.slo.verdicts.is_empty() {
            s.push_str("slo:      not evaluated\n");
        } else {
            s.push_str(&format!(
                "slo:      {}",
                if self.slo.ok { "ok" } else { "VIOLATED" }
            ));
            for v in &self.slo.verdicts {
                s.push_str(&format!(
                    " | {} {} (target {}, burn {:.2}/{:.2})",
                    v.objective,
                    if v.ok { "ok" } else { "miss" },
                    v.target,
                    v.burn_long,
                    v.burn_short
                ));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_latencies(lat);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert_eq!(s.count, 100);
        assert_eq!(
            LatencyStats::from_latencies(vec![]),
            LatencyStats::default()
        );
        let one = LatencyStats::from_latencies(vec![3.0]);
        assert_eq!(one.p50_s, 3.0);
        assert_eq!(one.p99_s, 3.0);
    }

    #[test]
    fn json_is_deterministic_and_histogram_ordered() {
        let mut r = ServeReport::default();
        r.batch_histogram.insert(4, 2);
        r.batch_histogram.insert(1, 7);
        r.cards.push(CardReport::default());
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"batch_histogram\": {\"1\": 7, \"4\": 2}"));
        assert!(a.contains("\"cards\": ["));
        assert!(a.contains("\"rejected_oversized\": 0"));
        assert!(a.contains("\"rejected_quota\": 0"));
        assert!(a.contains("\"preemptions\": 0"));
        assert!(a.contains("\"fairness_index\": 0"));
        assert!(a.contains("\"tenants\": ["));
        assert!(a.contains("\"slo\": {"));
    }

    #[test]
    fn mean_batch_size_weights_by_launches() {
        let mut r = ServeReport::default();
        assert_eq!(r.mean_batch_size(), 0.0);
        r.batch_histogram.insert(1, 2);
        r.batch_histogram.insert(4, 1);
        assert_eq!(r.mean_batch_size(), 2.0);
    }
}
