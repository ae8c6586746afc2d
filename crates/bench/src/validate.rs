//! Functional ↔ analytic cross-validation.
//!
//! The paper-scale tables come from the analytic estimators; this module
//! proves they describe the *same* kernels by running the functional
//! simulator at a tractable size and comparing (a) numerical results against
//! the CPU reference and (b) per-step modelled times against the estimator,
//! which must agree because both paths share launch configurations.

use bifft::five_step::FiveStepFft;
use bifft::six_step::SixStepFft;
use cpu_fft::CpuFft3d;
use fft_math::error::rel_l2_error_f32;
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{DeviceSpec, Gpu};
use std::fmt::Write as _;

/// Outcome of one cross-check.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// Cube edge used.
    pub n: usize,
    /// Relative L2 error of the GPU five-step result against the CPU FFT.
    pub five_step_err: f64,
    /// Relative L2 error of the GPU six-step result.
    pub six_step_err: f64,
    /// Max relative deviation between functional and estimated step times.
    pub timing_gap: f64,
}

/// Runs both GPU algorithms functionally at `n`³ on the GTS, checks them
/// against the CPU transform, and compares functional vs estimated timing.
pub fn functional_crosscheck(n: usize) -> CrossCheck {
    let mut rng = SplitMix64::new(90);
    let host: Vec<Complex32> = (0..n * n * n)
        .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect();

    // CPU reference.
    let mut want = host.clone();
    CpuFft3d::new(n, n, n).execute(&mut want, Direction::Forward);

    // Five-step functional.
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let five = FiveStepFft::new(&mut gpu, n, n, n);
    let (v, w) = five.alloc_buffers(&mut gpu).expect("fits");
    five.upload(&mut gpu, v, &host);
    let run5 = five.execute(&mut gpu, v, w, Direction::Forward);
    run5.assert_clean();
    let got5 = five.download(&gpu, v);
    let five_step_err = rel_l2_error_f32(&got5, &want);

    // Six-step functional.
    let mut gpu2 = Gpu::new(DeviceSpec::gts8800());
    let six = SixStepFft::new(&mut gpu2, n, n, n);
    let (v2, w2) = six.alloc_buffers(&mut gpu2).expect("fits");
    six.upload(&mut gpu2, v2, &host);
    let _run6 = six.execute(&mut gpu2, v2, w2, Direction::Forward);
    let got6 = six.download(&gpu2, v2);
    let six_step_err = rel_l2_error_f32(&got6, &want);

    // Functional vs estimated timing: both read the plan's launch list, so
    // they differ only where the functional launch measures coalescing, bank
    // conflicts or strided texture reads the estimate does not assume (step
    // 5's rows coalesce below 1 under 64 points).
    let est = FiveStepFft::estimate(gpu.spec(), n, n, n);
    let mut timing_gap: f64 = 0.0;
    for (step, (_, e)) in run5.steps.iter().zip(&est) {
        let gap = (step.timing.time_s - e.time_s).abs() / e.time_s;
        timing_gap = timing_gap.max(gap);
    }

    CrossCheck {
        n,
        five_step_err,
        six_step_err,
        timing_gap,
    }
}

/// Human-readable cross-check section for the report.
pub fn crosscheck_report(n: usize) -> String {
    let c = functional_crosscheck(n);
    let mut s = format!("Functional cross-check at {n}³ (8800 GTS, real kernel execution):\n");
    let _ = writeln!(
        s,
        "  five-step vs CPU FFT: rel L2 error {:.2e}",
        c.five_step_err
    );
    let _ = writeln!(
        s,
        "  six-step  vs CPU FFT: rel L2 error {:.2e}",
        c.six_step_err
    );
    let _ = writeln!(
        s,
        "  functional vs analytic step times: max deviation {:.2}%",
        c.timing_gap * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosscheck_holds_at_64() {
        // 64³ is the smallest size the paper evaluates (Figure 2), and the
        // smallest where step 5's blocks are at least a half-warp wide — at
        // 32³ and below, 8-thread blocks genuinely break alignment rule (c)
        // on some stages, exactly as they would on hardware.
        let c = functional_crosscheck(64);
        assert!(c.five_step_err < 1e-5, "five-step err {}", c.five_step_err);
        assert!(c.six_step_err < 1e-5, "six-step err {}", c.six_step_err);
        assert!(c.timing_gap < 0.02, "timing gap {}", c.timing_gap);
    }
}
