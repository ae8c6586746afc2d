//! The `fft-serve` binary: seeded load-generator runs over the service,
//! with optional hazard checking, JSON report output, and the telemetry
//! surface (windowed metrics, SLO verdicts, Chrome-trace waterfalls).
//!
//! ```text
//! fft-serve [--smoke] [--gpus N] [--streams N] [--requests N] [--rate RPS]
//!           [--seed S] [--workload rows|mixed|pipeline] [--closed N]
//!           [--tenants N] [--preempt]
//!           [--check-hazards] [--json PATH]
//!           [--metrics-out PATH] [--metrics-format json|prom]
//!           [--trace PATH] [--attr-out PATH] [--attr-audit]
//! fft-serve --validate-metrics PATH
//! ```
//!
//! `--smoke` is the CI entry point: a small mixed open-loop run whose
//! report is deterministic for a given seed; with `--check-hazards` the
//! whole fleet runs under the PR 4 validator and any diagnostic fails the
//! process (exit 1). `--metrics-out` writes the metrics document
//! ([`crate::telemetry::export::METRICS_SCHEMA`] JSON or Prometheus
//! exposition text), `--trace` writes a merged Chrome-trace timeline
//! (per-card tracks plus one track per request), and `--validate-metrics`
//! re-reads a previously written JSON metrics file and exits 0 only when
//! the schema validates AND the recorded SLO verdict is ok — the CI gate
//! (it also surfaces the run's dropped-lifecycle-stamp counter).
//! `--attr-out` writes the run's [`crate::ATTR_SCHEMA`] attribution document
//! (what `fft-prof` analyzes) and `--attr-audit` fails the process when
//! any completed request's ledger breaks the conservation invariant.
//! `--tenants N` spreads the workload across `N` tenants with weighted
//! shares `1..=N` (tenant `i` gets share `i + 1`) so the QoS scheduler has
//! something to arbitrate, and `--preempt` lets high-priority arrivals
//! abort a dispatched lower-priority batch at the next stream-safe point.

use crate::loadgen::{run_closed_loop, run_open_loop, Workload};
use crate::qos::{QosConfig, TenantId, TenantPolicy};
use crate::service::ServeConfig;
use crate::telemetry::validate_metrics;
use fft_math::json::{self, Value};

struct Cli {
    gpus: usize,
    streams: usize,
    requests: u64,
    rate_rps: f64,
    seed: u64,
    workload: String,
    closed: Option<u64>,
    tenants: u32,
    preempt: bool,
    check_hazards: bool,
    json_path: Option<String>,
    metrics_out: Option<String>,
    metrics_format: String,
    trace_path: Option<String>,
    attr_out: Option<String>,
    attr_audit: bool,
    validate_metrics: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            gpus: 2,
            streams: 2,
            requests: 200,
            rate_rps: 2000.0,
            seed: 42,
            workload: "mixed".to_string(),
            closed: None,
            tenants: 1,
            preempt: false,
            check_hazards: false,
            json_path: None,
            metrics_out: None,
            metrics_format: "json".to_string(),
            trace_path: None,
            attr_out: None,
            attr_audit: false,
            validate_metrics: None,
        }
    }
}

fn usage() {
    eprintln!(
        "usage: fft-serve [--smoke] [--gpus N] [--streams N] [--requests N] [--rate RPS] \
         [--seed S] [--workload rows|mixed|pipeline] [--closed N] [--tenants N] [--preempt] \
         [--check-hazards] [--json PATH] \
         [--metrics-out PATH] [--metrics-format json|prom] [--trace PATH] \
         [--attr-out PATH] [--attr-audit]\n\
         \u{20}      fft-serve --validate-metrics PATH"
    );
}

/// Entry point for the `fft-serve` binary; returns the process exit code.
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli::default();
    let mut it = args.iter();
    macro_rules! take {
        ($flag:literal, $parse:expr) => {
            match it.next().and_then(|v| $parse(v.as_str())) {
                Some(v) => v,
                None => {
                    eprintln!(concat!("fft-serve: ", $flag, " needs a value"));
                    return 2;
                }
            }
        };
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                cli.requests = 64;
                cli.rate_rps = 5000.0;
            }
            "--check-hazards" => cli.check_hazards = true,
            "--gpus" => cli.gpus = take!("--gpus", |v: &str| v.parse().ok()),
            "--streams" => cli.streams = take!("--streams", |v: &str| v.parse().ok()),
            "--requests" => cli.requests = take!("--requests", |v: &str| v.parse().ok()),
            "--rate" => cli.rate_rps = take!("--rate", |v: &str| v.parse().ok()),
            "--seed" => cli.seed = take!("--seed", |v: &str| v.parse().ok()),
            "--workload" => {
                cli.workload = take!("--workload", |v: &str| Some(v.to_string()));
            }
            "--closed" => cli.closed = Some(take!("--closed", |v: &str| v.parse().ok())),
            "--tenants" => {
                cli.tenants = take!("--tenants", |v: &str| v.parse().ok().filter(|&n| n > 0));
            }
            "--preempt" => cli.preempt = true,
            "--json" => cli.json_path = Some(take!("--json", |v: &str| Some(v.to_string()))),
            "--metrics-out" => {
                cli.metrics_out = Some(take!("--metrics-out", |v: &str| Some(v.to_string())));
            }
            "--metrics-format" => {
                cli.metrics_format = take!("--metrics-format", |v: &str| match v {
                    "json" | "prom" => Some(v.to_string()),
                    _ => None,
                });
            }
            "--trace" => {
                cli.trace_path = Some(take!("--trace", |v: &str| Some(v.to_string())));
            }
            "--attr-out" => {
                cli.attr_out = Some(take!("--attr-out", |v: &str| Some(v.to_string())));
            }
            "--attr-audit" => cli.attr_audit = true,
            "--validate-metrics" => {
                cli.validate_metrics =
                    Some(take!("--validate-metrics", |v: &str| Some(v.to_string())));
            }
            other => {
                eprintln!("fft-serve: unknown argument {other}");
                usage();
                return 2;
            }
        }
    }

    // Standalone mode: re-validate a previously written metrics document.
    // Exit 0 only when the schema parses AND the recorded SLO verdict was
    // ok — this is what CI runs against the smoke run's --metrics-out.
    if let Some(path) = &cli.validate_metrics {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fft-serve: cannot read {path}: {e}");
                return 1;
            }
        };
        let verdict = json::parse(&text).and_then(|doc| {
            // Surface the dropped-lifecycle-stamp counter (a required
            // section, so a validating document always carries it).
            // Dropped stamps mean the waterfalls — and everything
            // attribution derives from them — are incomplete; a healthy
            // service keeps this at 0.
            let counters = doc.get("counters");
            let dropped = counters.and_then(|c| c.get("serve_lifecycle_dropped_total"));
            match dropped.and_then(Value::as_u64) {
                Some(0) => eprintln!("fft-serve: {path}: lifecycle stamps: none dropped"),
                Some(n) => eprintln!("fft-serve: {path}: WARNING: {n} lifecycle stamp(s) dropped"),
                None => {}
            }
            validate_metrics(&doc)
        });
        return match verdict {
            Ok(true) => {
                eprintln!("fft-serve: {path}: schema ok, slo ok");
                0
            }
            Ok(false) => {
                eprintln!("fft-serve: {path}: schema ok, but SLO VIOLATED");
                1
            }
            Err(e) => {
                eprintln!("fft-serve: {path}: invalid metrics document: {e}");
                1
            }
        };
    }

    let mut workload: Workload = match cli.workload.parse() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("fft-serve: {e}");
            return 2;
        }
    };
    workload.tenants = cli.tenants;
    // Weighted shares 1..=N give the fair scheduler distinct entitlements
    // to arbitrate (equal shares would make WFQ look like FIFO).
    let mut qos = QosConfig {
        preemption: cli.preempt,
        ..QosConfig::default()
    };
    for t in 0..u64::from(cli.tenants) {
        qos.tenants.insert(
            TenantId(t),
            TenantPolicy {
                share: (t + 1) as f64,
                ..TenantPolicy::default()
            },
        );
    }
    let mut svc = match ServeConfig::builder()
        .gpus(cli.gpus)
        .streams(cli.streams)
        .check_hazards(cli.check_hazards)
        .record_trace(cli.trace_path.is_some())
        .qos(qos)
        .build_service()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fft-serve: cannot bring the fleet up: {e}");
            return 2;
        }
    };
    let load = match cli.closed {
        Some(c) => run_closed_loop(&mut svc, &workload, cli.requests, c, cli.seed),
        None => run_open_loop(&mut svc, &workload, cli.requests, cli.rate_rps, cli.seed),
    };
    svc.drain();
    let report = svc.report();
    println!(
        "fft-serve: {} x {} ({} stream(s)/card), workload {}, seed {}",
        cli.gpus,
        svc_model(),
        cli.streams,
        cli.workload,
        cli.seed
    );
    println!(
        "offered:  {} requests at {:.1} req/s over {:.3} ms ({} accepted)",
        load.offered,
        load.offered_rps,
        load.span_s * 1e3,
        load.accepted
    );
    print!("{}", report.to_text());

    if let Some(path) = &cli.json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("fft-serve: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("fft-serve: report written to {path}");
    }

    if let Some(path) = &cli.metrics_out {
        let doc = match cli.metrics_format.as_str() {
            "prom" => svc.prometheus_text(),
            _ => svc.metrics_json(),
        };
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("fft-serve: cannot write {path}: {e}");
            return 1;
        }
        eprintln!(
            "fft-serve: metrics ({}) written to {path}",
            cli.metrics_format
        );
    }

    if let Some(path) = &cli.trace_path {
        match svc.chrome_trace() {
            Some(doc) => {
                if let Err(e) = std::fs::write(path, doc) {
                    eprintln!("fft-serve: cannot write {path}: {e}");
                    return 1;
                }
                eprintln!("fft-serve: chrome trace written to {path}");
            }
            None => {
                eprintln!("fft-serve: --trace produced no events (recording disabled?)");
                return 1;
            }
        }
    }

    if let Some(path) = &cli.attr_out {
        if let Err(e) = std::fs::write(path, svc.attribution_json()) {
            eprintln!("fft-serve: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("fft-serve: attribution written to {path}");
    }

    if cli.attr_audit {
        let audit = svc.attribution_audit();
        if audit.ok() {
            eprintln!(
                "fft-serve: attr-audit: conservation ok over {} request(s) (worst error {:e} s)",
                audit.requests, audit.worst_err_s
            );
        } else {
            eprintln!(
                "fft-serve: attr-audit: {} of {} ledger(s) UNBALANCED (worst error {:e} s)",
                audit.unbalanced, audit.requests, audit.worst_err_s
            );
            return 1;
        }
    }

    if cli.check_hazards {
        match svc.check_report() {
            Some(rep) if rep.clean() => eprintln!(
                "fft-serve: check-hazards: clean ({} kernels, {} ops tracked)",
                rep.kernels_checked, rep.ops_tracked
            ),
            Some(rep) => {
                eprintln!("{rep}");
                eprintln!(
                    "fft-serve: check-hazards: {} diagnostic(s)",
                    rep.access.len() + rep.hazards.len()
                );
                return 1;
            }
            None => {
                eprintln!("fft-serve: check-hazards: no report collected");
                return 1;
            }
        }
    }
    0
}

fn svc_model() -> &'static str {
    "GTS8800-sim"
}
