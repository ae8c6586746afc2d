//! The sim-prof driver: runs one algorithm under the recorder and exports
//! the artefacts the `profile` binary writes — a Chrome trace-event JSON for
//! `chrome://tracing`/Perfetto and a flat `metrics.json` — plus its reader
//! (through the workspace JSON codec) so two runs can be diffed from their
//! files alone.

use bifft::multi_gpu::MultiGpuFft3d;
use bifft::plan::{Algorithm, Fft3d, FftError};
use bifft::{OutOfCoreFft, RunReport};
use fft_math::json::{self, need_arr, need_f64, need_str};
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{CheckReport, DeviceSpec, Gpu, Trace};

/// Deterministic test volume (no RNG, so traces are byte-reproducible).
fn signal(len: usize) -> Vec<Complex32> {
    (0..len)
        .map(|i| Complex32::new((i as f32 * 0.173).sin(), (i as f32 * 0.311).cos()))
        .collect()
}

/// Runs a traced forward `n`³ transform of `algo` on a fresh device.
///
/// Returns the run report (with the trace attached) and the trace itself.
///
/// # Errors
/// Propagates the planner's [`FftError`] (unsupported size/algorithm,
/// allocation failure) instead of panicking, so binaries can exit with a
/// proper status code.
pub fn run_profile(
    spec: DeviceSpec,
    algo: Algorithm,
    n: usize,
) -> Result<(RunReport, Trace), FftError> {
    let mut gpu = Gpu::new(spec);
    let rec = gpu.install_recorder();
    let plan = Fft3d::builder(n, n, n).algorithm(algo).build(&mut gpu)?;
    let host = signal(n * n * n);
    let (_, rep) = plan.transform(&mut gpu, &host, Direction::Forward)?;
    drop(plan);
    let trace = rec.borrow_mut().take_trace();
    Ok((rep.with_trace(trace.clone()), trace))
}

/// One traced profiling run, for any [`Algorithm`] including the paths that
/// do not go through the in-core [`Fft3d`] facade.
pub struct ProfileRun {
    /// Human-readable timing summary (step table or stage summary).
    pub table: String,
    /// Flat counters file, present only for in-core runs.
    pub metrics_json: Option<String>,
    /// The recorded trace (card 0's trace for multi-GPU runs).
    pub trace: Trace,
    /// Checker findings (merged across cards for multi-GPU), present only
    /// when the run was checked.
    pub check: Option<CheckReport>,
}

/// Runs a traced forward `n`³ transform of any algorithm.
///
/// In-core algorithms delegate to [`run_profile`]; `out-of-core` cycles the
/// slabs over `streams` CUDA-style streams, and `multi-gpu` shards the
/// volume across `gpus` cards (the returned trace is card 0's — each
/// simulated card records independently). With `check` the run executes
/// under the validation layer ([`Gpu::check_enable`]) and the findings ride
/// along in [`ProfileRun::check`].
///
/// # Errors
/// Propagates planner/shard validation failures as [`FftError`].
pub fn run_profile_any(
    spec: DeviceSpec,
    algo: Algorithm,
    n: usize,
    streams: usize,
    gpus: usize,
    check: bool,
) -> Result<ProfileRun, FftError> {
    Ok(match algo {
        Algorithm::OutOfCore => {
            // Keep the slab Z extent at 16+ so the in-slab passes tile.
            let slabs = (n / 16).clamp(2, 16);
            let plan = OutOfCoreFft::new(&spec, n, n, n, slabs)?.with_streams(streams)?;
            let mut gpu = Gpu::new(spec);
            if check {
                gpu.check_enable();
            }
            let rec = gpu.install_recorder();
            let mut host = signal(n * n * n);
            let rep = plan.execute(&mut gpu, &mut host, Direction::Forward)?;
            let trace = rec.borrow_mut().take_trace();
            let table = format!(
                "{}\n{} stream(s): wall {:.4} s vs {:.4} s serial legs\n",
                bifft::out_of_core::summarize(&rep, (n, n, n)),
                rep.streams,
                rep.wall_s,
                rep.total_s()
            );
            ProfileRun {
                table,
                metrics_json: None,
                trace,
                check: gpu.check_report(),
            }
        }
        Algorithm::MultiGpu => {
            let mut plan = MultiGpuFft3d::new(&spec, gpus, n, n, n)?;
            if check {
                plan.check_enable();
            }
            let rec = plan.gpu_mut(0).install_recorder();
            let host = signal(n * n * n);
            let (_, rep) = plan.transform(&host, Direction::Forward)?;
            let trace = rec.borrow_mut().take_trace();
            ProfileRun {
                table: format!("{}\n", bifft::multi_gpu::summarize(&rep, (n, n, n))),
                metrics_json: None,
                trace,
                check: plan.check_report(),
            }
        }
        _ => {
            let mut gpu = Gpu::new(spec);
            let rec = gpu.install_recorder();
            let plan = Fft3d::builder(n, n, n)
                .algorithm(algo)
                .checked(check)
                .build(&mut gpu)?;
            let host = signal(n * n * n);
            let (_, rep) = plan.transform(&mut gpu, &host, Direction::Forward)?;
            drop(plan);
            let trace = rec.borrow_mut().take_trace();
            let rep = rep.with_trace(trace.clone());
            ProfileRun {
                table: rep.step_table(),
                metrics_json: Some(rep.metrics_json()),
                trace,
                check: gpu.check_report(),
            }
        }
    })
}

/// The fields [`diff_metrics`] compares, read back out of a
/// `metrics.json` file.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsFile {
    /// Algorithm label.
    pub algorithm: String,
    /// Run total, seconds.
    pub total_time_s: f64,
    /// Per step: `(name, time_s, coalesced_fraction)`.
    pub steps: Vec<(String, f64, f64)>,
}

/// Reads a `metrics.json` produced by [`RunReport::metrics_json`].
///
/// # Errors
/// A syntax error, or a missing or mistyped field.
pub fn parse_metrics(text: &str) -> Result<MetricsFile, String> {
    let doc = json::parse(text)?;
    let steps = need_arr(&doc, "steps")?
        .map(|s| {
            let name = need_str(s, "name")?;
            let step = |key| need_f64(s, key).map_err(|e| format!("step {name}: {e}"));
            Ok((
                name.to_string(),
                step("time_s")?,
                step("coalesced_fraction")?,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(MetricsFile {
        algorithm: need_str(&doc, "algorithm")?.to_string(),
        total_time_s: need_f64(&doc, "total_time_s")?,
        steps,
    })
}

/// Renders a per-step comparison of two metrics files (per-step
/// Δtime and Δcoalesced, paired by position).
pub fn diff_metrics(a: &MetricsFile, b: &MetricsFile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} vs {}: {:+.3} ms total ({:.3} -> {:.3} ms)\n",
        a.algorithm,
        b.algorithm,
        (b.total_time_s - a.total_time_s) * 1e3,
        a.total_time_s * 1e3,
        b.total_time_s * 1e3
    ));
    let n = a.steps.len().max(b.steps.len());
    for i in 0..n {
        let blank = (String::new(), 0.0, 0.0);
        let (an, at, ac) = a.steps.get(i).unwrap_or(&blank);
        let (bn, bt, bc) = b.steps.get(i).unwrap_or(&blank);
        let name = if an.is_empty() { bn } else { an };
        out.push_str(&format!(
            "  {:<18} {:+9.3} ms  coalesced {:+6.1} pp\n",
            name,
            (bt - at) * 1e3,
            (bc - ac) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_run_exports_consistent_artifacts() {
        let (rep, trace) = run_profile(DeviceSpec::gts8800(), Algorithm::FiveStep, 16).unwrap();
        assert_eq!(trace.kernel_count(), rep.steps.len());
        assert_eq!(trace.kernel_time_s(), rep.total_time_s());
        assert!(rep.trace.is_some());
        let json = trace.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("step5_x"));
    }

    #[test]
    fn metrics_roundtrip_through_the_scanner() {
        let (rep, _) = run_profile(DeviceSpec::gt8800(), Algorithm::SixStep, 16).unwrap();
        let parsed = parse_metrics(&rep.metrics_json()).unwrap();
        assert_eq!(parsed.algorithm, "six-step");
        assert_eq!(
            parsed.total_time_s,
            rep.total_time_s(),
            "exact f64 roundtrip"
        );
        assert_eq!(parsed.steps.len(), rep.steps.len());
        for (p, s) in parsed.steps.iter().zip(&rep.steps) {
            assert_eq!(p.0, s.name);
            assert_eq!(p.1, s.timing.time_s);
        }
    }

    #[test]
    fn parse_metrics_rejects_broken_documents() {
        for bad in [
            r#"{"algorithm": "five-step", "total_time_s": 1.0, "steps": [ ]] garbage {{{"#,
            r#"{"algorithm": "five-step", "total_time_s": "1.0", "steps": []}"#,
            r#"{"algorithm": "five-step", "total_time_s": 1.0}"#,
            r#"{"algorithm": "x", "total_time_s": 1, "steps": [{"name": "a", "time_s": 1}]}"#,
        ] {
            assert!(parse_metrics(bad).is_err(), "{bad}");
        }
        let err = parse_metrics(r#"{"algorithm": 5, "total_time_s": 1.0, "steps": []}"#);
        assert_eq!(err.unwrap_err(), "field 'algorithm' is not a string");
    }

    #[test]
    fn extreme_step_times_round_trip_bit_exactly() {
        // `Display` spells 1e-70 and subnormals out in full (no exponent).
        let (mut rep, _) = run_profile(DeviceSpec::gts8800(), Algorithm::FiveStep, 16).unwrap();
        rep.steps[0].timing.time_s = 1e-70;
        rep.steps[1].timing.time_s = 5e-324;
        let parsed = parse_metrics(&rep.metrics_json()).unwrap();
        assert_eq!(parsed.steps[0].1.to_bits(), 1e-70f64.to_bits());
        assert_eq!(parsed.steps[1].1.to_bits(), 5e-324f64.to_bits());
        assert_eq!(parsed.total_time_s, rep.total_time_s());
    }

    #[test]
    fn diff_of_identical_files_is_all_zeros() {
        let (rep, _) = run_profile(DeviceSpec::gts8800(), Algorithm::FiveStep, 16).unwrap();
        let m = parse_metrics(&rep.metrics_json()).unwrap();
        let text = diff_metrics(&m, &m);
        assert!(text.contains("+0.000 ms total"));
        assert!(text.contains("step1_z16"));
    }

    #[test]
    fn any_profile_covers_the_non_facade_paths() {
        let ooc =
            run_profile_any(DeviceSpec::gts8800(), Algorithm::OutOfCore, 32, 2, 1, false).unwrap();
        assert!(ooc.table.contains("out-of-core"));
        assert!(ooc.metrics_json.is_none());
        assert!(ooc.trace.chrome_json().contains("stream 0"));

        let mg =
            run_profile_any(DeviceSpec::gts8800(), Algorithm::MultiGpu, 16, 1, 2, false).unwrap();
        assert!(mg.table.contains("multi-gpu"));
        assert!(mg.trace.chrome_json().contains("mgpu"));

        let five =
            run_profile_any(DeviceSpec::gts8800(), Algorithm::FiveStep, 16, 1, 1, false).unwrap();
        assert!(five.metrics_json.is_some());
        assert!(five.table.contains("step5_x"));
        assert!(five.check.is_none(), "unchecked runs carry no report");
    }

    #[test]
    fn checked_profiles_come_back_clean() {
        for algo in [
            Algorithm::FiveStep,
            Algorithm::OutOfCore,
            Algorithm::MultiGpu,
        ] {
            let run = run_profile_any(DeviceSpec::gts8800(), algo, 32, 2, 2, true).unwrap();
            let rep = run.check.expect("checked run must carry a report");
            assert!(rep.clean(), "{}: {rep}", algo.name());
            assert!(rep.kernels_checked > 0);
        }
    }
}
