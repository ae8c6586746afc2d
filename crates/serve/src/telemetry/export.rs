//! Exporters: the `bifft-metrics-v1` JSON document, Prometheus text
//! exposition (with a parser for round-trip tests and CI validation), and
//! the merged Chrome trace (per-card kernel tracks plus per-request
//! waterfall tracks).
//!
//! All rendering is hand-rolled and deterministic — `BTreeMap` iteration
//! order, shortest-roundtrip `f64` display — in the same style as the
//! bench and report JSON, so same-seed runs export byte-identical
//! documents and CI can gate on them.

use super::attribution::{self, CATEGORIES};
use super::lifecycle::{LifecycleLog, Stage};
use super::registry::MetricsRegistry;
use super::slo::SloReport;
use super::timeline::Timeline;
use fft_math::json::{self, need_arr, need_bool, need_f64, need_obj, need_str, need_u64, Value};
use gpu_sim::Trace;
use std::collections::BTreeMap;

/// Schema tag of the metrics JSON document.
pub const METRICS_SCHEMA: &str = "bifft-metrics-v1";

/// Chrome-trace process id of the per-request waterfall tracks (cards use
/// their own indices; this sorts the request tracks below them).
pub const REQUESTS_PID: usize = 1000;

fn fmt_counters(map: &BTreeMap<String, u64>, indent: &str, out: &mut String) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let n = map.len();
    for (i, (k, v)) in map.iter().enumerate() {
        out.push_str(&format!(
            "{indent}  \"{k}\": {v}{}\n",
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str(indent);
    out.push('}');
}

fn fmt_gauges(map: &BTreeMap<String, f64>, indent: &str, out: &mut String) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let n = map.len();
    for (i, (k, v)) in map.iter().enumerate() {
        out.push_str(&format!(
            "{indent}  \"{k}\": {v}{}\n",
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str(indent);
    out.push('}');
}

fn fmt_inline_counters(map: &BTreeMap<String, u64>) -> String {
    let body: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn fmt_inline_gauges(map: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders the SLO verdict section as a JSON object. `indent` is the
/// indentation of the line the object opens on; inner lines indent two
/// spaces further. Shared by the metrics document and `ServeReport` JSON
/// so the two can never disagree about the verdict's shape.
pub fn render_slo_json(slo: &SloReport, indent: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("{indent}  \"ok\": {},\n", slo.ok));
    s.push_str(&format!("{indent}  \"verdicts\": ["));
    if slo.verdicts.is_empty() {
        s.push(']');
    } else {
        s.push('\n');
        let n = slo.verdicts.len();
        for (i, v) in slo.verdicts.iter().enumerate() {
            s.push_str(&format!(
                "{indent}    {{\"objective\": \"{}\", \"target\": {}, \"observed\": {}, \
                 \"burn_long\": {}, \"burn_short\": {}, \"ok\": {}}}{}\n",
                v.objective,
                v.target,
                v.observed,
                v.burn_long,
                v.burn_short,
                v.ok,
                if i + 1 < n { "," } else { "" }
            ));
        }
        s.push_str(&format!("{indent}  ]"));
    }
    s.push('\n');
    s.push_str(indent);
    s.push('}');
    s
}

/// Renders the full `bifft-metrics-v1` document: final counters, gauges
/// and histograms, the tick-sampled series, and the SLO verdict.
pub fn metrics_json(registry: &MetricsRegistry, timeline: &Timeline, slo: &SloReport) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
    s.push_str(&format!("  \"tick_s\": {},\n", timeline.tick_s()));
    s.push_str("  \"counters\": ");
    fmt_counters(registry.counters(), "  ", &mut s);
    s.push_str(",\n  \"gauges\": ");
    fmt_gauges(registry.gauges(), "  ", &mut s);
    s.push_str(",\n  \"histograms\": {");
    let nh = registry.histograms().len();
    if nh > 0 {
        s.push('\n');
        for (i, (name, h)) in registry.histograms().iter().enumerate() {
            let bounds: Vec<String> = h.bounds.iter().map(|b| format!("{b}")).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| format!("{c}")).collect();
            s.push_str(&format!(
                "    \"{name}\": {{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}{}\n",
                bounds.join(", "),
                counts.join(", "),
                h.sum,
                h.count,
                if i + 1 < nh { "," } else { "" }
            ));
        }
        s.push_str("  ");
    }
    s.push_str("},\n");
    s.push_str("  \"series\": [");
    let ns = timeline.samples().len();
    if ns > 0 {
        s.push('\n');
        for (i, sample) in timeline.samples().iter().enumerate() {
            s.push_str(&format!(
                "    {{\"t_s\": {}, \"counters\": {}, \"gauges\": {}}}{}\n",
                sample.t_s,
                fmt_inline_counters(&sample.counters),
                fmt_inline_gauges(&sample.gauges),
                if i + 1 < ns { "," } else { "" }
            ));
        }
        s.push_str("  ");
    }
    s.push_str("],\n");
    s.push_str(&format!("  \"series_dropped\": {},\n", timeline.dropped()));
    s.push_str("  \"slo\": ");
    s.push_str(&render_slo_json(slo, "  "));
    s.push_str("\n}\n");
    s
}

/// Renders the registry and verdict in Prometheus text-exposition format.
/// Histogram buckets follow the cumulative `le` convention; SLO burn rates
/// export as labelled gauges.
pub fn prometheus_text(registry: &MetricsRegistry, slo: &SloReport) -> String {
    let mut s = String::with_capacity(2048);
    for (name, v) in registry.counters() {
        s.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (name, v) in registry.gauges() {
        s.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    for (name, h) in registry.histograms() {
        s.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cum = 0u64;
        for (i, c) in h.counts.iter().enumerate() {
            cum += c;
            let le = match h.bounds.get(i) {
                Some(b) => format!("{b}"),
                None => "+Inf".to_string(),
            };
            s.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        s.push_str(&format!("{name}_sum {}\n", h.sum));
        s.push_str(&format!("{name}_count {}\n", h.count));
    }
    s.push_str(&format!(
        "# TYPE serve_slo_ok gauge\nserve_slo_ok {}\n",
        u8::from(slo.ok)
    ));
    for (metric, get) in [
        ("serve_slo_burn_long", 0usize),
        ("serve_slo_burn_short", 1),
        ("serve_slo_objective_ok", 2),
    ] {
        s.push_str(&format!("# TYPE {metric} gauge\n"));
        for v in &slo.verdicts {
            let value = match get {
                0 => format!("{}", v.burn_long),
                1 => format!("{}", v.burn_short),
                _ => format!("{}", u8::from(v.ok)),
            };
            s.push_str(&format!(
                "{metric}{{objective=\"{}\"}} {value}\n",
                v.objective
            ));
        }
    }
    s
}

/// Parses Prometheus text exposition back into `name{labels} -> value` —
/// the round-trip check that the exposition stays well-formed.
///
/// # Errors
/// A malformed sample line (no value, unparsable value, duplicate series).
pub fn parse_prometheus(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in '{line}'", lineno + 1))?;
        let v: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value '{value}': {e}", lineno + 1))?;
        if out.insert(name.to_string(), v).is_some() {
            return Err(format!("line {}: duplicate series '{name}'", lineno + 1));
        }
    }
    Ok(out)
}

/// Parses a `bifft-metrics-v1` document and checks it with
/// [`validate_metrics`].
///
/// # Errors
/// A syntax error, or whatever [`validate_metrics`] rejects.
pub fn validate_metrics_json(text: &str) -> Result<bool, String> {
    validate_metrics(&json::parse(text)?)
}

/// Checks a parsed `bifft-metrics-v1` document (schema tag and the required
/// sections with their types) and returns the SLO verdict's overall `ok`.
///
/// # Errors
/// A wrong or missing schema tag, or a missing or mistyped required section.
pub fn validate_metrics(doc: &Value) -> Result<bool, String> {
    let schema = need_str(doc, "schema")?;
    if schema != METRICS_SCHEMA {
        return Err(format!("schema '{schema}' is not '{METRICS_SCHEMA}'"));
    }
    need_f64(doc, "tick_s")?;
    let counters = need_obj(doc, "counters")?;
    need_obj(doc, "gauges")?;
    need_obj(doc, "histograms")?;
    let _series = need_arr(doc, "series")?;
    need_u64(doc, "series_dropped")?;
    // Pre-registered by `Telemetry::new`, so every service-rendered
    // document carries them even with zero traffic.
    need_u64(counters, "serve_lifecycle_dropped_total")?;
    need_u64(counters, "serve_attr_compute_us_total")?;
    need_bool(need_obj(doc, "slo")?, "ok")
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Microseconds, the Chrome trace time unit.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Merges per-card sim-prof traces and per-request waterfalls into one
/// Chrome trace-event document: each card renders as its own process
/// (kernel, span, PCIe and stream tracks, exactly as sim-prof exports
/// them), and every request gets a thread under a `requests` process whose
/// slices are its stage segments, cross-linked to the dispatch span via
/// slice args — the drill-down from a p99 request to the kernels that ran
/// it.
pub fn chrome_trace(cards: &[(usize, Trace)], lifecycle: &LifecycleLog) -> String {
    let mut ev: Vec<String> = Vec::new();
    for (pid, trace) in cards {
        ev.extend(trace.chrome_events(*pid, &format!("card {pid}")));
    }
    ev.push(format!(
        "{{\"ph\":\"M\",\"pid\":{REQUESTS_PID},\"name\":\"process_name\",\"args\":{{\"name\":\"requests\"}}}}"
    ));
    const SEGMENTS: [(Stage, Stage, &str); 6] = [
        (Stage::Submitted, Stage::Admitted, "admit"),
        (Stage::Admitted, Stage::Batched, "queued"),
        (Stage::Batched, Stage::Dispatched, "batch"),
        (Stage::Dispatched, Stage::H2d, "h2d"),
        (Stage::H2d, Stage::Compute, "compute"),
        (Stage::Compute, Stage::D2h, "d2h"),
    ];
    for (id, wf) in lifecycle.iter() {
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{REQUESTS_PID},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"req {} {}\"}}}}",
            id.0,
            id.0,
            esc(wf.shape())
        ));
        let args = match (&wf.span, wf.card) {
            (Some(span), Some(card)) => {
                format!(",\"args\":{{\"span\":\"{}\",\"card\":{card}}}", esc(span))
            }
            (Some(span), None) => format!(",\"args\":{{\"span\":\"{}\"}}", esc(span)),
            _ => String::new(),
        };
        for (from, to, name) in SEGMENTS {
            if let (Some(a), Some(b)) = (wf.stage_s(from), wf.stage_s(to)) {
                let linked = matches!(from, Stage::Dispatched | Stage::H2d | Stage::Compute);
                ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{REQUESTS_PID},\"tid\":{},\"name\":\"{name}\",\"ts\":{},\"dur\":{}{}}}",
                    id.0,
                    us(a),
                    us(b - a),
                    if linked { args.as_str() } else { "" }
                ));
            }
        }
        for stage in [Stage::Rejected, Stage::Failed] {
            if let Some(t) = wf.stage_s(stage) {
                let label = match (stage, wf.reject_reason) {
                    (Stage::Rejected, Some(reason)) => format!("rejected ({reason})"),
                    _ => stage.label().to_string(),
                };
                ev.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{REQUESTS_PID},\"tid\":{},\"name\":\"{}\",\"ts\":{},\"s\":\"t\"}}",
                    id.0,
                    esc(&label),
                    us(t)
                ));
            }
        }
    }
    // Attribution counter track: at each completion, the cumulative
    // attributed microseconds per ledger category — the "where has the
    // time gone so far" stack chart under the request waterfalls.
    let mut ledgers = attribution::collect(lifecycle);
    ledgers
        .sort_by(|a, b| f64::total_cmp(&a.completed_s, &b.completed_s).then(a.id.0.cmp(&b.id.0)));
    let mut cum_us = [0.0f64; CATEGORIES.len()];
    for l in &ledgers {
        for (c, part) in cum_us.iter_mut().zip(l.parts_s()) {
            *c += us(*part);
        }
        let args: Vec<String> = CATEGORIES
            .iter()
            .zip(cum_us)
            .map(|(c, v)| format!("\"{}\":{v}", c.label()))
            .collect();
        ev.push(format!(
            "{{\"ph\":\"C\",\"pid\":{REQUESTS_PID},\"name\":\"attribution_us\",\"ts\":{},\"args\":{{{}}}}}",
            us(l.completed_s),
            args.join(",")
        ));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use crate::telemetry::slo::SloVerdict;

    fn tiny_slo() -> SloReport {
        SloReport {
            verdicts: vec![SloVerdict {
                objective: "latency_p95".to_string(),
                target: 50.0,
                observed: 1.5,
                burn_long: 0.25,
                burn_short: 0.0,
                ok: true,
            }],
            ok: true,
        }
    }

    #[test]
    fn metrics_json_is_valid_and_carries_the_verdict() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("serve_lifecycle_dropped_total", 0);
        reg.set_counter("serve_attr_compute_us_total", 0);
        reg.add("serve_completed_total", 8);
        reg.set_gauge("serve_queue_depth", 2.0);
        reg.declare_histogram("serve_batch_size", &[1.0, 4.0]);
        reg.observe("serve_batch_size", 3.0);
        let mut tl = Timeline::new(1e-3);
        tl.advance(2e-3, &reg);
        let doc = metrics_json(&reg, &tl, &tiny_slo());
        assert_eq!(validate_metrics_json(&doc), Ok(true));
        assert!(doc.contains("\"serve_completed_total\": 8"));
        assert!(doc.contains("\"bounds\": [1, 4]"));
        assert!(doc.contains("\"t_s\": 0.001"));
        let mut violated = tiny_slo();
        violated.ok = false;
        assert_eq!(
            validate_metrics_json(&metrics_json(&reg, &tl, &violated)),
            Ok(false)
        );
    }

    #[test]
    fn extreme_doubles_round_trip_bit_exactly() {
        // `Display` spells 1e-70 and subnormals out in full (no exponent).
        let mut reg = MetricsRegistry::new();
        reg.set_counter("serve_lifecycle_dropped_total", 0);
        reg.set_counter("serve_attr_compute_us_total", 0);
        reg.set_gauge("tiny", 5e-324);
        reg.set_gauge("huge", -f64::MAX);
        let doc = metrics_json(&reg, &Timeline::new(1e-70), &tiny_slo());
        assert_eq!(validate_metrics_json(&doc), Ok(true));
        let v = json::parse(&doc).unwrap();
        assert_eq!(need_f64(&v, "tick_s"), Ok(1e-70));
        let gauges = need_obj(&v, "gauges").unwrap();
        assert_eq!(
            need_f64(gauges, "tiny").map(f64::to_bits),
            Ok(5e-324f64.to_bits())
        );
        assert_eq!(need_f64(gauges, "huge"), Ok(-f64::MAX));
    }

    #[test]
    fn validate_rejects_wrong_schema_and_missing_sections() {
        assert!(validate_metrics_json("{}").is_err());
        let doc = metrics_json(&MetricsRegistry::new(), &Timeline::new(1e-3), &tiny_slo());
        let wrong = doc.replace(METRICS_SCHEMA, "bifft-metrics-v0");
        assert!(validate_metrics_json(&wrong)
            .unwrap_err()
            .contains("schema"));
        let truncated = doc.replace("\"series_dropped\"", "\"elided\"");
        assert!(validate_metrics_json(&truncated).is_err());
    }

    #[test]
    fn prometheus_round_trips_with_cumulative_buckets() {
        let mut reg = MetricsRegistry::new();
        reg.add("serve_completed_total", 8);
        reg.set_gauge("serve_queue_depth", 2.5);
        reg.declare_histogram("serve_batch_size", &[1.0, 4.0]);
        reg.observe("serve_batch_size", 0.5);
        reg.observe("serve_batch_size", 3.0);
        reg.observe("serve_batch_size", 99.0);
        let text = prometheus_text(&reg, &tiny_slo());
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed["serve_completed_total"], 8.0);
        assert_eq!(parsed["serve_queue_depth"], 2.5);
        assert_eq!(parsed["serve_batch_size_bucket{le=\"1\"}"], 1.0);
        assert_eq!(parsed["serve_batch_size_bucket{le=\"4\"}"], 2.0);
        assert_eq!(parsed["serve_batch_size_bucket{le=\"+Inf\"}"], 3.0);
        assert_eq!(parsed["serve_batch_size_count"], 3.0);
        assert_eq!(parsed["serve_slo_ok"], 1.0);
        assert_eq!(
            parsed["serve_slo_burn_long{objective=\"latency_p95\"}"],
            0.25
        );
    }

    #[test]
    fn parse_prometheus_rejects_malformed_lines() {
        assert!(parse_prometheus("novalue\n").is_err());
        assert!(parse_prometheus("a notanumber\n").is_err());
        assert!(parse_prometheus("a 1\na 2\n").is_err());
    }

    #[test]
    fn chrome_trace_merges_cards_and_waterfalls() {
        let mut log = LifecycleLog::default();
        let id = RequestId(5);
        log.start(id, "1d256x16".to_string(), 0.0);
        log.record(id, Stage::Admitted, 0.0);
        log.record(id, Stage::Batched, 1e-3);
        log.record(id, Stage::Dispatched, 1e-3);
        log.record(id, Stage::H2d, 2e-3);
        log.record(id, Stage::Compute, 3e-3);
        log.record(id, Stage::D2h, 4e-3);
        log.record(id, Stage::Completed, 4e-3);
        let wf = log.entry(id).unwrap().wf;
        wf.span = Some("serve_rows_256x16_c0l0".to_string());
        wf.card = Some(0);
        let doc = chrome_trace(&[(0, Trace::default())], &log);
        assert!(doc.contains("\"name\":\"card 0\""));
        assert!(doc.contains("\"name\":\"req 5 1d256x16\""));
        assert!(doc.contains("\"name\":\"compute\""));
        assert!(doc.contains("\"span\":\"serve_rows_256x16_c0l0\",\"card\":0"));
        // The completed request contributes one attribution counter sample.
        assert!(doc.contains("\"ph\":\"C\",\"pid\":1000,\"name\":\"attribution_us\",\"ts\":4000"));
        assert!(doc.contains("\"compute\":"));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }
}
