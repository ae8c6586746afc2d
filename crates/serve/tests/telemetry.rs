//! Telemetry acceptance tests: golden-pinned export formats, same-seed
//! bit-identical metrics, counter monotonicity across the sampled series
//! (a hand-rolled property test — the real `proptest` crate is not
//! vendored), full-waterfall coverage for every completion, and the
//! Prometheus round-trip.

use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_serve::loadgen::{run_open_loop, Workload};
use fft_serve::request::{RequestSpec, Shape};
use fft_serve::service::{FftService, ServeConfig};
use fft_serve::telemetry::attribution::{self, CONSERVATION_TOLERANCE_S};
use fft_serve::telemetry::export::parse_prometheus;
use fft_serve::telemetry::{names, Stage};
use fft_serve::{validate_metrics_json, QosConfig, TenantId, TenantPolicy};

/// The CI smoke configuration: 64 mixed requests, open loop at 5000 req/s,
/// seed 42, over the default 2-card x 2-stream fleet.
fn smoke_service(record_trace: bool) -> FftService {
    let mut svc = ServeConfig::builder()
        .record_trace(record_trace)
        .build_service()
        .unwrap();
    run_open_loop(&mut svc, &Workload::mixed(), 64, 5000.0, 42);
    svc.drain();
    svc
}

fn check_golden(got: &str, path: &str, what: &str) {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, got).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing; regenerate with BLESS=1");
    assert_eq!(
        got, golden,
        "{what} drifted from {path}; if the change is intended, regenerate with BLESS=1"
    );
}

/// The metrics document of the CI smoke run is pinned byte-for-byte, so
/// any change to the schema or to the simulated timings is a reviewable
/// diff. Regenerate with `BLESS=1 cargo test -p fft-serve --test telemetry`.
#[test]
fn smoke_metrics_json_matches_committed_golden() {
    let svc = smoke_service(false);
    check_golden(
        &svc.metrics_json(),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/smoke_metrics.json"
        ),
        "metrics JSON",
    );
}

/// Same pin for the Prometheus exposition rendering of the same run.
#[test]
fn smoke_prometheus_matches_committed_golden() {
    let svc = smoke_service(false);
    check_golden(
        &svc.prometheus_text(),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/smoke_metrics.prom"
        ),
        "Prometheus text",
    );
}

/// Runs the `fft-serve` binary with `args` plus `flag PATH` (an output
/// option such as `--json` or `--attr-out`) and returns what it wrote.
fn cli_doc(args: &[&str], flag: &str, name: &str) -> String {
    let path = format!("{}/{name}.json", env!("CARGO_TARGET_TMPDIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fft-serve"))
        .args(args)
        .args([flag, &path])
        .output()
        .expect("run fft-serve");
    assert!(out.status.success(), "fft-serve {args:?} failed: {out:?}");
    std::fs::read_to_string(&path).expect("read output document")
}

/// [`cli_doc`] for the `--json` report.
fn cli_report(args: &[&str], name: &str) -> String {
    cli_doc(args, "--json", name)
}

/// The mixed CI smoke (`fft-serve --smoke`) serves rows batches on stream
/// lanes and volumes on whole cards; its report and its attribution
/// ledger are pinned byte-for-byte beside the metrics documents. Regenerate
/// with `BLESS=1`.
#[test]
fn smoke_report_and_attribution_match_committed_goldens() {
    check_golden(
        &cli_report(&["--smoke"], "smoke_report"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/smoke_report.json"
        ),
        "smoke report",
    );
    check_golden(
        &cli_doc(&["--smoke"], "--attr-out", "smoke_attr"),
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/smoke_attr.json"),
        "smoke attribution ledger",
    );
}

/// Pins the `--attr-out` ledger and the `--metrics-out` document of the
/// smoke run `args` as `tests/golden/{name}_attr.json` and
/// `tests/golden/{name}_metrics.json`.
fn check_attr_and_metrics(args: &[&str], name: &str) {
    for (flag, doc) in [("--attr-out", "attr"), ("--metrics-out", "metrics")] {
        let file = format!("{name}_{doc}");
        check_golden(
            &cli_doc(args, flag, &file),
            &format!("{}/tests/golden/{file}.json", env!("CARGO_MANIFEST_DIR")),
            &format!("{name} {doc} document"),
        );
    }
}

/// `fft-serve --smoke --workload pipeline`'s report is pinned byte-for-byte:
/// DAG admission, the shared queue, whole-card placement and residency all
/// show up in it. Its attribution ledger (the only smoke one with the
/// `resident` category) and its metrics document are pinned beside it.
/// Regenerate with `BLESS=1`.
#[test]
fn pipeline_smoke_report_matches_committed_golden() {
    let args = ["--smoke", "--workload", "pipeline"];
    check_golden(
        &cli_report(&args, "pipeline_smoke"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/pipeline_smoke_report.json"
        ),
        "pipeline smoke report",
    );
    check_attr_and_metrics(&args, "pipeline_smoke");
}

/// Same pins for the multi-tenant preemption smoke
/// (`fft-serve --smoke --tenants 3 --preempt --rate 40000`), the only
/// smoke run whose ledger carries the `preempted` category and whose books
/// split by tenant. At the plain smoke's 5000 req/s no lane is ever
/// preempted; at 40000 req/s high-priority arrivals land on busy lanes, so
/// the run must report preemptions.
#[test]
fn qos_smoke_report_matches_committed_golden() {
    let args = ["--smoke", "--tenants", "3", "--preempt", "--rate", "40000"];
    let report = cli_report(&args, "qos_smoke");
    let preemptions = fft_math::json::parse(&report)
        .ok()
        .and_then(|doc| doc.get("preemptions")?.as_u64());
    assert!(
        preemptions.is_some_and(|n| n > 0),
        "the preemption smoke must preempt, report says {preemptions:?}"
    );
    check_golden(
        &report,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/qos_smoke_report.json"
        ),
        "multi-tenant smoke report",
    );
    check_attr_and_metrics(&args, "qos_smoke");
}

/// The acceptance criterion: two smoke runs with the same seed emit
/// bit-identical metrics documents (series and all), and the document
/// validates with an ok SLO verdict.
#[test]
fn same_seed_same_metrics_bits() {
    let a = smoke_service(false).metrics_json();
    let b = smoke_service(false).metrics_json();
    assert_eq!(a, b, "same seed must produce bit-identical metrics");
    assert_eq!(validate_metrics_json(&a), Ok(true));
}

/// SplitMix64 — the repo's stock deterministic generator for hand-rolled
/// property tests.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Property: across every adjacent pair of timeline samples, in randomized
/// run configurations, every counter is monotone non-decreasing (counters
/// never go backwards; gauges may).
#[test]
fn counters_are_monotone_across_sampled_series() {
    let mut rng = 0xC0FFEE_u64;
    for case in 0..8 {
        let requests = 16 + (splitmix64(&mut rng) % 80);
        let rate = 1000.0 + (splitmix64(&mut rng) % 8000) as f64;
        let seed = splitmix64(&mut rng);
        let queue_capacity = 4 + (splitmix64(&mut rng) % 60) as usize;
        let mut svc = ServeConfig::builder()
            .queue_capacity(queue_capacity)
            .build_service()
            .unwrap();
        run_open_loop(&mut svc, &Workload::mixed(), requests, rate, seed);
        svc.drain();
        let samples = svc.telemetry().timeline.samples();
        assert!(
            !samples.is_empty(),
            "case {case}: a drained run has samples"
        );
        for w in samples.windows(2) {
            assert!(w[0].t_s < w[1].t_s, "case {case}: time must advance");
            for (name, &later) in &w[1].counters {
                let earlier = w[0].counters.get(name).copied().unwrap_or(0);
                assert!(
                    later >= earlier,
                    "case {case}: counter {name} went backwards \
                     ({earlier} at t={} -> {later} at t={})",
                    w[0].t_s,
                    w[1].t_s
                );
            }
        }
        // The terminal sample agrees with the live registry.
        let last = samples.last().unwrap();
        for (name, &v) in &last.counters {
            assert_eq!(
                v,
                svc.telemetry().registry.counter(name),
                "case {case}: {name}"
            );
        }
    }
}

/// The waterfall acceptance criterion: every completed smoke request has
/// the full monotone Submitted -> ... -> Completed pipeline recorded, with
/// a sim-prof span cross-link.
#[test]
fn every_completion_has_a_full_monotone_waterfall() {
    let svc = smoke_service(false);
    let report = svc.report();
    assert_eq!(report.completed, 64);
    let mut completed = 0usize;
    for (id, wf) in svc.telemetry().lifecycle.iter() {
        assert!(wf.is_monotone(), "req {} waterfall out of order", id.0);
        if wf.terminal() == Some(Stage::Completed) {
            completed += 1;
            assert!(
                wf.is_complete_pipeline(),
                "req {} completed without a full pipeline",
                id.0
            );
            assert!(wf.span.is_some(), "req {} has no span cross-link", id.0);
        }
    }
    assert_eq!(completed as u64, report.completed);
}

/// The Prometheus rendering round-trips through the crate's own parser:
/// every counter and gauge in the registry comes back with its exact value.
#[test]
fn prometheus_round_trips_through_the_parser() {
    let svc = smoke_service(false);
    let series = parse_prometheus(&svc.prometheus_text()).expect("well-formed exposition");
    let reg = &svc.telemetry().registry;
    for (name, &v) in reg.counters() {
        assert_eq!(series.get(name).copied(), Some(v as f64), "{name}");
    }
    for (name, &v) in reg.gauges() {
        assert_eq!(series.get(name).copied(), Some(v), "{name}");
    }
    assert!(series.contains_key("serve_slo_ok"));
    assert!(series
        .keys()
        .any(|k| k.starts_with("serve_latency_ms_bucket{le=")));
}

#[test]
fn validate_metrics_rejects_garbage_and_wrong_schema() {
    assert!(validate_metrics_json("not json at all").is_err());
    assert!(validate_metrics_json("{}").is_err());
    let svc = smoke_service(false);
    let good = svc.metrics_json();
    let tampered = good.replace("bifft-metrics-v1", "bifft-metrics-v0");
    assert!(validate_metrics_json(&tampered).is_err());
    // Broken syntax anywhere and mistyped required fields are rejected too.
    let tick = good.lines().find(|l| l.contains("\"tick_s\": ")).unwrap();
    let garbage_tick = good.replacen(tick, "  \"tick_s\": garbage,", 1);
    let open_counters = good.replacen("\"counters\": {", "\"counters\": {{{", 1);
    for bad in [
        garbage_tick.clone(),
        open_counters.clone(),
        garbage_tick.replacen("\"counters\": {", "\"counters\": {{{", 1),
        good.replacen("\"ok\": true", "\"ok\": 1", 1),
        good.replacen("\"series_dropped\": 0", "\"series_dropped\": \"0\"", 1),
        format!("{good}}}}} not json [[["),
    ] {
        assert_ne!(bad, good);
        assert!(validate_metrics_json(&bad).is_err(), "{bad}");
    }
    assert!(validate_metrics_json(&garbage_tick)
        .unwrap_err()
        .contains("garbage"));
}

/// The merged Chrome trace carries both per-card tracks and one track per
/// request, and its stage slices line up with the waterfalls.
#[test]
fn chrome_trace_merges_card_and_request_tracks() {
    let mut svc = smoke_service(true);
    let json = svc.chrome_trace().expect("recording was enabled");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // Per-card process tracks from the sim-prof recorder.
    assert!(json.contains("\"args\":{\"name\":\"card 0\"}"));
    assert!(json.contains("\"args\":{\"name\":\"card 1\"}"));
    // The requests process with one named thread per request.
    assert!(json.contains("\"args\":{\"name\":\"requests\"}"));
    for (id, wf) in svc.telemetry().lifecycle.iter() {
        assert!(
            json.contains(&format!("\"name\":\"req {} {}\"", id.0, wf.shape())),
            "request {} has no trace track",
            id.0
        );
    }
    // Stage slices appear in the request process.
    for name in ["admit", "queued", "batch", "h2d", "compute", "d2h"] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name}");
    }
    // Dispatch slices carry the span cross-link.
    assert!(json.contains("\"span\":\"serve_"));
}

/// The attribution acceptance criterion: on the CI smoke grid, every
/// completed request's time ledger balances — the ten category parts sum
/// to the end-to-end latency within [`CONSERVATION_TOLERANCE_S`].
#[test]
fn smoke_grid_conserves_every_request_ledger() {
    // The smoke run plus the two bench serving shapes.
    let grids: &[(usize, usize, u64, f64, u64)] = &[
        (2, 2, 64, 5000.0, 42),
        (2, 2, 96, 4000.0, 42),
        (4, 2, 192, 8000.0, 42),
    ];
    for &(gpus, streams, requests, rate, seed) in grids {
        let mut svc = ServeConfig::builder()
            .gpus(gpus)
            .streams(streams)
            .build_service()
            .unwrap();
        run_open_loop(&mut svc, &Workload::mixed(), requests, rate, seed);
        svc.drain();
        let report = svc.report();
        let ledgers = svc.ledgers();
        assert_eq!(
            ledgers.len() as u64,
            report.completed,
            "{gpus}x{streams}: every completion must be ledgered"
        );
        for l in &ledgers {
            assert!(
                l.conservation_error_s() <= CONSERVATION_TOLERANCE_S,
                "req {} on {gpus}x{streams}: ledger unbalanced by {:e} s",
                l.id.0,
                l.conservation_error_s()
            );
        }
        let audit = svc.attribution_audit();
        assert!(
            audit.ok(),
            "{gpus}x{streams}: {} unbalanced",
            audit.unbalanced
        );
        assert_eq!(audit.requests as u64, report.completed);
    }
}

/// Two same-seed smoke runs export byte-identical attribution documents,
/// and the document parses back with a conserving verdict over every
/// completed request.
#[test]
fn same_seed_same_attribution_bits() {
    let a = smoke_service(false).attribution_json();
    let b = smoke_service(false).attribution_json();
    assert_eq!(a, b, "same seed must produce bit-identical attribution");
    let summary = attribution::parse_attr_json(&a).expect("well-formed attribution document");
    assert!(summary.conservation_ok);
    assert_eq!(summary.requests, 64);
    let shares: f64 = summary.cat_share.iter().sum();
    assert!((shares - 1.0).abs() < 1e-9, "shares partition all time");
}

/// Every per-category attribution counter reaches the Prometheus
/// exposition, and the exported microsecond totals line up with the
/// ledger (each request's parts are rounded to whole microseconds).
#[test]
fn attribution_counters_are_exported() {
    let svc = smoke_service(false);
    let series = parse_prometheus(&svc.prometheus_text()).expect("well-formed exposition");
    let ledgers = svc.ledgers();
    let exported: f64 = names::ATTR_US
        .iter()
        .map(|n| {
            series
                .get(*n)
                .copied()
                .unwrap_or_else(|| panic!("{n} missing"))
        })
        .sum();
    let ledgered_us: f64 = ledgers.iter().map(|l| l.sum_s()).sum::<f64>() * 1e6;
    let slack = 0.5 * names::ATTR_US.len() as f64 * ledgers.len() as f64;
    assert!(
        (exported - ledgered_us).abs() <= slack,
        "exported {exported} us vs ledgered {ledgered_us} us (slack {slack})"
    );
    assert!(exported > 0.0, "the smoke run attributes nonzero time");
}

/// Rejected requests still get waterfalls: terminal `Rejected` stage with
/// the machine-readable reason, and the per-reason counter matches.
#[test]
fn rejections_are_traced_with_reasons() {
    let mut svc = ServeConfig::builder()
        .gpus(1)
        .streams(1)
        .queue_capacity(4)
        .build_service()
        .unwrap();
    run_open_loop(&mut svc, &Workload::rows(), 120, 400_000.0, 3);
    // One unsupported non-power-of-two request on top of the overload.
    let bad = RequestSpec::seeded(Shape::Rows1d { n: 100, rows: 1 }, Direction::Forward, 1);
    assert!(svc.submit(bad, 1.0).is_err());
    svc.drain();
    let report = svc.report();
    assert!(report.rejected_queue_full > 0);
    assert_eq!(report.rejected_unsupported, 1);
    let mut by_reason = std::collections::BTreeMap::new();
    for (_, wf) in svc.telemetry().lifecycle.iter() {
        if wf.terminal() == Some(Stage::Rejected) {
            assert!(wf.stage_s(Stage::Submitted).is_some());
            *by_reason.entry(wf.reject_reason.unwrap()).or_insert(0u64) += 1;
        }
    }
    assert_eq!(
        by_reason.get("queue_full"),
        Some(&report.rejected_queue_full)
    );
    assert_eq!(by_reason.get("unsupported"), Some(&1));
    let reg = &svc.telemetry().registry;
    assert_eq!(
        reg.counter("serve_rejected_queue_full_total"),
        report.rejected_queue_full
    );
    assert_eq!(reg.counter("serve_rejected_unsupported_total"), 1);
}

/// The service configured as `fft-serve --smoke` is for `workload` spread
/// over `tenants` tenants with shares `1..=tenants`, preemption on when
/// `preempt` — the three CI smoke mixes are `mixed`, `pipeline`, and
/// `mixed` over 3 tenants with preemption.
fn smoke_mix(mut workload: Workload, tenants: u32, preempt: bool, seed: u64) -> FftService {
    let mut qos = QosConfig {
        preemption: preempt,
        ..QosConfig::default()
    };
    for t in 0..u64::from(tenants) {
        let share = (t + 1) as f64;
        let policy = TenantPolicy {
            share,
            ..TenantPolicy::default()
        };
        qos.tenants.insert(TenantId(t), policy);
    }
    workload.tenants = tenants;
    let mut svc = ServeConfig::builder().qos(qos).build_service().unwrap();
    run_open_loop(&mut svc, &workload, 64, 5000.0, seed);
    svc.drain();
    svc
}

/// The registry, the report, the per-tenant books and the waterfalls are
/// four views of one run, so after `drain` they must agree: every
/// submission is admitted or rejected for exactly one reason, every
/// admission completes or fails, the tenants partition the totals, the
/// launch counters match the batch histogram, every waterfall ends in
/// exactly one terminal stage, and no lifecycle write was dropped.
#[test]
fn books_agree_across_seeded_smoke_mixes() {
    let mut rng = SplitMix64::new(0x0b00_c5ee_d5a1_7e57);
    for round in 0..2 {
        let seed = rng.next_u64();
        let mixes = [
            ("mixed", smoke_mix(Workload::mixed(), 1, false, seed)),
            ("pipeline", smoke_mix(Workload::pipeline(), 1, false, seed)),
            ("qos", smoke_mix(Workload::mixed(), 3, true, seed)),
        ];
        for (mix, svc) in mixes {
            let ctx = format!("{mix} round {round} seed {seed:#x}");
            let r = svc.report();
            let reg = &svc.telemetry().registry;
            let rejected = r.rejected_queue_full
                + r.rejected_deadline
                + r.rejected_unsupported
                + r.rejected_oversized
                + r.rejected_unallocatable
                + r.rejected_quota;
            assert_eq!(r.submitted, r.admitted + rejected, "{ctx}");
            assert_eq!(r.admitted, r.completed + r.failed, "{ctx}");
            assert_eq!(r.submitted, reg.counter(names::SUBMITTED), "{ctx}");
            assert_eq!(r.completed, reg.counter(names::COMPLETED), "{ctx}");
            let sum = |f: fn(&fft_serve::report::TenantReport) -> u64| -> u64 {
                r.tenants.iter().map(f).sum()
            };
            assert_eq!(sum(|t| t.submitted), r.submitted, "{ctx}");
            assert_eq!(sum(|t| t.admitted), r.admitted, "{ctx}");
            assert_eq!(sum(|t| t.rejected_quota), r.rejected_quota, "{ctx}");
            assert_eq!(sum(|t| t.completed), r.completed, "{ctx}");
            assert_eq!(
                sum(|t| t.good_bytes),
                reg.counter(names::GOOD_BYTES),
                "{ctx}"
            );
            let launches: u64 = r.batch_histogram.values().sum();
            let batched: u64 = r.batch_histogram.iter().map(|(&s, &n)| s as u64 * n).sum();
            assert_eq!(reg.counter(names::LAUNCHES), launches, "{ctx}");
            assert_eq!(reg.counter(names::BATCHED_REQUESTS), batched, "{ctx}");
            assert_eq!(reg.counter(names::LIFECYCLE_DROPPED), 0, "{ctx}");
            assert_eq!(svc.telemetry().lifecycle.len() as u64, r.submitted, "{ctx}");
            for (id, wf) in svc.telemetry().lifecycle.iter() {
                let terminals = [Stage::Completed, Stage::Rejected, Stage::Failed]
                    .into_iter()
                    .filter(|&s| wf.stage_s(s).is_some())
                    .count();
                assert_eq!(terminals, 1, "{ctx}: req {} terminal stages", id.0);
            }
        }
    }
}
