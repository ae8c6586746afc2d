//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_ops_per_s", "ops/s"),
    ("host_op_p50_ms", "ms"),
    ("host_op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("host_peak_rss_mb", "MiB"),
    ("model_p50_ms", "ms"),
    ("model_p99_ms", "ms"),
    ("model_goodput_gbs", "GB/s"),
    ("model_max_rps", "req/s"),
    ("model_gflops", "GFLOPS"),
    ("model_paper_err_pct", "%"),
    ("max_rel_err", "ratio"),
    ("ok_share", "ratio"),
];

/// The kernels the three paper-kernel algorithms launch at 128³.
pub const KERNELS: &[&str] = &[
    "step1_z16",
    "step2_z16",
    "step3_y16",
    "step4_y16",
    "step5_x",
    "fft_x",
    "transpose_zxy",
    "fft_z",
    "transpose_yzx",
    "fft_y",
    "transpose_xyz",
    "cufft1d_pass1",
    "cufft1d_pass2",
    "cufft_y_multirow",
    "cufft_z_multirow",
    "cufft_copyback",
];

/// The three paper-kernel algorithms, in rotation order.
pub const ALGOS: &[&str] = &["five-step", "six-step", "cufft-like"];

/// The attribution categories reported as shares.
pub const ATTR: &[&str] = &[
    "queue",
    "batch",
    "plan",
    "staging",
    "h2d",
    "compute",
    "d2h",
    "resident",
    "preempted",
];

/// Per-layer metrics with fixed names, printed by every traced run.
const LAYER_FIXED: &[(&str, &str)] = &[
    ("trace.host_ops_per_s", "ops/s"),
    ("trace.untraced_host_ops_per_s", "ops/s"),
    ("trace.overhead_ratio", "ratio"),
    ("alloc.per_transform", "count"),
    ("gpu_sim.launch_fixed_us", "us"),
    ("cpu_fft.oracle_ms", "ms"),
    ("loadgen.schedule_ms", "ms"),
    ("request.materialize_us", "us"),
    ("service.submit_queued_us.p50", "us"),
    ("service.submit_queued_us.p99", "us"),
    ("service.submit_dispatch_us.p50", "us"),
    ("service.submit_dispatch_us.p99", "us"),
    ("service.submit_pipeline_us.p50", "us"),
    ("service.submit_pipeline_us.p99", "us"),
    ("service.dispatch_share", "ratio"),
    ("service.drain_ms", "ms"),
    ("report.render_ms", "ms"),
    ("telemetry.metrics_json_ms", "ms"),
    ("telemetry.attribution_json_ms", "ms"),
    ("telemetry.metrics_json_bytes", "bytes"),
    ("alloc.per_submit", "count"),
    ("alloc.bytes_per_submit", "bytes"),
    ("batcher.batches", "count"),
    ("batcher.mean_batch", "count"),
    ("queue.max_depth", "count"),
    ("queue.mean_depth", "count"),
    ("scheduler.plan_hit_ratio", "ratio"),
    ("scheduler.card_util", "ratio"),
    ("scheduler.copy_util", "ratio"),
    ("qos.preemptions", "count"),
    ("qos.preempted_share", "ratio"),
    ("qos.fairness_index", "ratio"),
    ("pipeline.resident_hit_ratio", "ratio"),
    ("pipeline.evictions", "count"),
    ("pcie.bytes_per_op", "bytes"),
    ("gate.proto.encode_us", "us"),
    ("gate.proto.decode_us", "us"),
    ("gate.proto.bytes_per_submit", "bytes"),
    ("gate.client.ack_us.p50", "us"),
    ("gate.client.ack_us.p99", "us"),
    ("gate.bridge_hold_us", "us"),
    ("gate.backpressure_stalls", "count"),
    ("gate.frames_in", "count"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for k in KERNELS {
        out.push((format!("gpu_sim.{k}.host_ms"), "ms"));
        out.push((format!("gpu_sim.{k}.model_gbs"), "GB/s"));
    }
    for a in ALGOS {
        out.push((format!("gpu_sim.{a}.sim_gb_per_host_s"), "GB/s"));
        out.push((format!("bifft.{a}.upload_ms"), "ms"));
        out.push((format!("bifft.{a}.execute_self_ms"), "ms"));
        out.push((format!("bifft.{a}.download_ms"), "ms"));
    }
    for c in ATTR {
        out.push((format!("attr.{c}_share"), "ratio"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": …, "unit": …` pairs of one metric array in
    /// `BENCHMARK.json`, read with the gateway's JSON parser.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = fft_gate::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric array")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn names_are_well_formed() {
        let mut all: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        all.extend(per_layer().into_iter().map(|m| m.0));
        assert!(all.len() <= 16 + 128);
        let mut seen = std::collections::BTreeSet::new();
        for n in &all {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n.clone()), "{n} printed twice");
        }
    }
}
