//! Each plan's launch list against the functional launches it describes.
//!
//! An in-core plan builds one launch list: `execute` launches its
//! configurations, and `Algorithm::estimate_steps` prices the same entries.
//! This sweep runs every shape with axes in {16, 32, 64} through each
//! in-core algorithm on each card (plus 256³ on the GTS in release builds)
//! and checks, step by step, that:
//!
//! * the plan's list is the estimator's, and the run's steps are the list's
//!   by name and count;
//! * each step loads and stores exactly the elements its entry lists;
//! * its modelled time equals the estimate to 1e-9 relative wherever the
//!   functional launch coalesces fully and has no strided texture reads,
//!   bank conflicts or constant serialisation, which the estimate assumes.
//!
//! The steps outside that proviso are counted. Today they are the row FFTs
//! of 16- and 32-point axes (five-step step 5, the six-step X, Y and Z
//! FFTs), whose rows coalesce below 1, and every cufft-like multirow step,
//! which measures coalescing 1/3. Each runs slower than its estimate: a
//! change to how the model prices measured coalescing (§2.1) moves these
//! counts.

use bifft::{Algorithm, Fft3d};
use fft_math::{Complex32, Direction};
use gpu_sim::memory::ELEM_BYTES;
use gpu_sim::{DeviceSpec, Gpu};

/// Runs one transform and checks its steps against the launch list.
/// Returns how many steps fall outside the equal-time proviso.
fn check(algo: Algorithm, spec: DeviceSpec, (nx, ny, nz): (usize, usize, usize)) -> usize {
    let what = format!("{} {nx}x{ny}x{nz} on {}", algo.name(), spec.name);
    let mut gpu = Gpu::new(spec);
    let plan = Fft3d::builder(nx, ny, nz)
        .algorithm(algo)
        .build(&mut gpu)
        .unwrap();
    let launches = plan.launches().to_vec();
    assert_eq!(
        launches,
        algo.launches(&spec, nx, ny, nz).unwrap(),
        "{what}: the plan's list is the estimator's"
    );
    let host = vec![Complex32::ZERO; plan.volume()];
    let (_, rep) = plan.transform(&mut gpu, &host, Direction::Forward).unwrap();
    let ran: Vec<&str> = rep.steps.iter().map(|s| s.name).collect();
    let listed: Vec<&str> = launches.iter().map(|l| l.cfg.name).collect();
    assert_eq!(ran, listed, "{what}: steps");

    let est = algo.estimate_steps(&spec, nx, ny, nz).unwrap();
    let mut gaps = 0;
    for ((step, launch), (_, want)) in rep.steps.iter().zip(&launches).zip(&est) {
        let s = &step.stats;
        let bytes = launch.elems * ELEM_BYTES;
        assert_eq!(
            (s.load_bytes(), s.store_bytes()),
            (bytes, bytes),
            "{what} {}: traffic",
            step.name
        );
        let (got, want) = (step.timing.time_s, want.time_s);
        let ideal = s.coalesce_efficiency() == 1.0
            && s.tex_reads_strided == 0
            && s.shared_conflict_rate() == 0.0
            && s.const_serial_rate() == 0.0;
        if ideal {
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "{what} {}: functional {got} s vs estimate {want} s",
                step.name
            );
        } else {
            assert!(
                got > want,
                "{what} {}: coalescing {} but functional {got} s <= estimate {want} s",
                step.name,
                s.coalesce_efficiency()
            );
            gaps += 1;
        }
    }
    gaps
}

/// Every shape with axes in {16, 32, 64} through every in-core algorithm
/// on `spec`; returns the steps outside the equal-time proviso.
fn sweep(spec: DeviceSpec) -> usize {
    let axes = [16, 32, 64];
    let mut gaps = 0;
    for algo in Algorithm::IN_CORE {
        for nz in axes {
            for ny in axes {
                for nx in axes {
                    gaps += check(algo, spec, (nx, ny, nz));
                }
            }
        }
    }
    gaps
}

/// Per card, of the 27 shapes' 432 steps: 18 five-step step 5s and 54
/// six-step row FFTs (one per 16- or 32-point axis), and all 54 cufft-like
/// multirow steps.
const GAPS_PER_CARD: usize = 18 + 54 + 54;

#[test]
fn launch_lists_match_functional_runs_on_the_gt() {
    assert_eq!(sweep(DeviceSpec::gt8800()), GAPS_PER_CARD);
}

#[test]
fn launch_lists_match_functional_runs_on_the_gts() {
    assert_eq!(sweep(DeviceSpec::gts8800()), GAPS_PER_CARD);
}

#[test]
fn launch_lists_match_functional_runs_on_the_gtx() {
    assert_eq!(sweep(DeviceSpec::gtx8800()), GAPS_PER_CARD);
}

#[test]
fn launch_lists_match_functional_runs_on_the_c1060() {
    assert_eq!(sweep(DeviceSpec::tesla_c1060()), GAPS_PER_CARD);
}

/// The paper's 256³ on the GTS: every five-step and six-step step equals
/// its estimate, and only the two cufft-like multirow steps fall outside.
/// About 12 s in release, so debug builds skip it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn launch_lists_match_functional_runs_at_256_cubed_on_the_gts() {
    let gaps = Algorithm::IN_CORE.map(|algo| check(algo, DeviceSpec::gts8800(), (256, 256, 256)));
    assert_eq!(gaps, [0, 0, 2]);
}
