//! Two-clock benchmark: measured host wall time beside the simulator's
//! modelled time, on four seeded workloads.
//!
//! ```text
//! perfbench --workload <paper-kernel|serve-small|serve-pipeline|gate-small>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` repeats the
//! workload untraced and traced and prints every per-layer metric. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every output check
//! and determinism check passed.

mod alloc;
mod gate;
mod host;
mod metrics;
mod paper;
mod probes;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A second seed, never used while the benchmark was tuned, for checking
/// a later claim on data held back from it.
pub const HELD_OUT_SEED: u64 = 0x5eed_0b5e_55ed_2026;

/// Cold set-ups measured per run, each in a fresh process.
const SETUP_PROBES: usize = 5;

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output or determinism checks.
    pub problems: Vec<String>,
    /// Provenance lines printed before the metrics.
    pub notes: Vec<String>,
    /// Spans of the traced run, written out at the end.
    pub spans: Option<trace::Spans>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    PaperKernel,
    ServeSmall,
    ServePipeline,
    GateSmall,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperKernel,
        Workload::ServeSmall,
        Workload::ServePipeline,
        Workload::GateSmall,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperKernel => "paper-kernel",
            Workload::ServeSmall => "serve-small",
            Workload::ServePipeline => "serve-pipeline",
            Workload::GateSmall => "gate-small",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One cold set-up, in reference seconds (see [`host`]). The
    /// calibration runs after the set-up, which stays cold.
    fn setup_once(self) -> f64 {
        let t = Instant::now();
        let s = match self {
            Workload::PaperKernel => {
                drop(std::hint::black_box(paper::setup()));
                t.elapsed().as_secs_f64()
            }
            Workload::ServeSmall => {
                drop(std::hint::black_box(serve::Kind::Small.setup()));
                t.elapsed().as_secs_f64()
            }
            Workload::ServePipeline => {
                drop(std::hint::black_box(serve::Kind::Pipeline.setup()));
                t.elapsed().as_secs_f64()
            }
            // Timed inside: the gateway's teardown is not set-up.
            Workload::GateSmall => gate::setup_probe(),
        };
        s * host::scale()
    }

    fn run(self, ctx: &Ctx) -> Outcome {
        match self {
            Workload::PaperKernel => paper::run(ctx, &mut paper::setup()),
            Workload::ServeSmall => serve::run(ctx, serve::Kind::Small),
            Workload::ServePipeline => serve::run(ctx, serve::Kind::Pipeline),
            Workload::GateSmall => gate::run(ctx),
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Median of [`SETUP_PROBES`] cold set-ups, each in a fresh child process,
/// in reference seconds.
fn measure_setup(w: Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--setup-probe", w.name()])
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let s: f64 = text
            .trim()
            .parse()
            .map_err(|_| format!("set-up probe printed {text:?} (status {})", out.status))?;
        samples.push(s);
    }
    Ok(fft_math::stats::percentile(&samples, 0.5))
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn write_spans(w: Workload, seed: u64, spans: &trace::Spans) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-{seed}.jsonl", w.name());
    std::fs::write(&path, spans.to_jsonl())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, w] = args.as_slice() {
        if flag == "--setup-probe" {
            return match Workload::parse(w) {
                Some(w) => {
                    println!("{}", w.setup_once());
                    ExitCode::SUCCESS
                }
                None => usage(&format!("unknown workload {w:?}")),
            };
        }
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad --seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage(&format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return usage(&format!("bad --trace {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(traced)) = (workload, seed, seconds, traced)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let ctx = Ctx {
        seed,
        seconds,
        traced,
    };
    let setup_s = if traced {
        None
    } else {
        match measure_setup(w) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    // The set-up probes above ran unpinned, in processes of their own. The
    // run is pinned to one CPU, so that its calibration loops and its timed
    // threads see the same vCPU (see `host::pin_to_current_cpu`).
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = host::pin_to_current_cpu();
    let mut out = w.run(&ctx);
    if let Some(s) = setup_s {
        out.set("setup_s", s);
        out.set(
            "ok_share",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    let threads = if w == Workload::GateSmall { 2 } else { 1 };
    println!(
        "workload {} seed {seed} (held-out seed {HELD_OUT_SEED}) seconds {seconds} trace {} \
         threads {threads} nproc {nproc} pinned to CPU {}",
        w.name(),
        u8::from(traced),
        pinned.map_or("none (the kernel refused)".to_string(), |c| c.to_string())
    );
    for n in &out.notes {
        println!("  {n}");
    }
    if let Some(spans) = &out.spans {
        match write_spans(w, seed, spans) {
            Ok(path) => println!("  spans: {} written to {path}", spans.spans().len()),
            Err(e) => out.problems.push(format!("writing spans: {e}")),
        }
    }
    let names: Vec<(String, &str)> = if traced {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut json = String::new();
    for (name, unit) in &names {
        // A layer the workload does not run reads 0.
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() {
            v
        } else {
            out.problems.push(format!("{name} is not finite"));
            0.0
        };
        println!("  {name:<40} {v:>24} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    if !traced {
        for &(name, _) in metrics::END_TO_END {
            if !out.metrics.contains_key(name) {
                out.problems.push(format!("{name} was not measured"));
            }
        }
    }
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
