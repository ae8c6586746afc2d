//! `profile` — nvprof-style traced runs of the simulated FFTs.
//!
//! ```text
//! cargo run --release -p fft-bench --bin profile -- \
//!     --algo five-step --n 256 --card gts --trace t.json --metrics m.json
//! cargo run --release -p fft-bench --bin profile -- \
//!     --algo out-of-core --n 64 --streams 2 --trace overlap.json
//! cargo run --release -p fft-bench --bin profile -- --algo multi-gpu --gpus 4 --n 64
//! cargo run --release -p fft-bench --bin profile -- --diff a.json b.json
//! ```
//!
//! `--trace` writes Chrome trace-event JSON (open in `chrome://tracing` or
//! Perfetto); `--metrics` writes the flat counters file `--diff` consumes.
//! Without either flag the flamegraph-style step table prints to stdout.
//!
//! Exit codes: 0 on success, 1 on a runtime failure (planning, transform,
//! file I/O), 2 on a usage error.

use bifft::plan::Algorithm;
use fft_bench::profile::{diff_metrics, parse_metrics, run_profile_any};
use gpu_sim::DeviceSpec;

const USAGE: &str = "usage: profile --algo NAME --n N [--card gt|gts|gtx|c1060] [--streams K] [--gpus N] [--trace PATH] [--metrics PATH] [--check-hazards]\n       profile --diff A.json B.json";

fn usage_error(msg: &str) -> ! {
    eprintln!("profile: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn run_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("profile: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let mut algo = Algorithm::FiveStep;
    let mut n = 64usize;
    let mut spec = DeviceSpec::gts8800();
    let mut streams = 2usize;
    let mut gpus = 2usize;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut check = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algo" => {
                let name = it
                    .next()
                    .unwrap_or_else(|| usage_error("--algo needs NAME"));
                algo = name.parse().unwrap_or_else(|e: String| usage_error(&e));
            }
            "--n" => {
                n = it
                    .next()
                    .unwrap_or_else(|| usage_error("--n needs N"))
                    .parse()
                    .unwrap_or_else(|_| usage_error("--n needs a cube size"));
            }
            "--card" => {
                let name = it
                    .next()
                    .unwrap_or_else(|| usage_error("--card needs NAME"));
                spec = name.parse().unwrap_or_else(|e: String| usage_error(&e));
            }
            "--streams" => {
                streams = it
                    .next()
                    .unwrap_or_else(|| usage_error("--streams needs K"))
                    .parse()
                    .unwrap_or_else(|_| usage_error("--streams needs a count"));
            }
            "--gpus" => {
                gpus = it
                    .next()
                    .unwrap_or_else(|| usage_error("--gpus needs N"))
                    .parse()
                    .unwrap_or_else(|_| usage_error("--gpus needs a count"));
            }
            "--trace" => {
                trace_path = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--trace needs PATH"))
                        .clone(),
                )
            }
            "--metrics" => {
                metrics_path = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--metrics needs PATH"))
                        .clone(),
                )
            }
            "--check-hazards" => check = true,
            "--diff" => {
                let a_path = it
                    .next()
                    .unwrap_or_else(|| usage_error("--diff needs A.json B.json"));
                let b_path = it
                    .next()
                    .unwrap_or_else(|| usage_error("--diff needs A.json B.json"));
                let read = |p: &str| {
                    let text = std::fs::read_to_string(p)
                        .unwrap_or_else(|e| run_error(format!("cannot read {p}: {e}")));
                    parse_metrics(&text).unwrap_or_else(|e| run_error(format!("{p}: {e}")))
                };
                print!("{}", diff_metrics(&read(a_path), &read(b_path)));
                return;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }

    let run = run_profile_any(spec, algo, n, streams, gpus, check)
        .unwrap_or_else(|e| run_error(format!("cannot run {} at {n}^3: {e}", algo.name())));
    if let Some(p) = &trace_path {
        std::fs::write(p, run.trace.chrome_json())
            .unwrap_or_else(|e| run_error(format!("write {p}: {e}")));
        eprintln!("trace: {p} ({} events)", run.trace.len());
    }
    if let Some(p) = &metrics_path {
        match &run.metrics_json {
            Some(json) => {
                std::fs::write(p, json).unwrap_or_else(|e| run_error(format!("write {p}: {e}")));
                eprintln!("metrics: {p}");
            }
            None => eprintln!("metrics: not available for {} runs", algo.name()),
        }
    }
    print!("{}", run.table);
    if let Some(rep) = &run.check {
        if rep.clean() {
            eprintln!(
                "check-hazards: clean ({} kernels, {} ops tracked)",
                rep.kernels_checked, rep.ops_tracked
            );
        } else {
            eprintln!("{rep}");
            run_error(format!(
                "check-hazards: {} diagnostic(s)",
                rep.access.len() + rep.hazards.len()
            ));
        }
    }
}
