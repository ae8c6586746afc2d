//! End-to-end pattern-audit checks: the classifier really observes the
//! Tables 2–4 classes on executed transforms, and the audit judges them.

use bifft::{expected_patterns, Algorithm, Fft3d, PatternAudit, RunReport};
use fft_math::layout::AccessPattern;
use fft_math::{Complex32, Direction};
use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};

fn signal(n: usize) -> Vec<Complex32> {
    (0..n)
        .map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
        .collect()
}

fn audited_run(algo: Algorithm, n: usize) -> PatternAudit {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = Fft3d::builder(n, n, n)
        .algorithm(algo)
        .build(&mut gpu)
        .unwrap();
    let host = signal(n * n * n);
    let (_, rep) = plan.transform(&mut gpu, &host, Direction::Forward).unwrap();
    PatternAudit::of_report(&rep)
}

#[test]
fn five_step_steps_1_to_4_store_only_a_or_b() {
    let audit = audited_run(Algorithm::FiveStep, 64);
    assert!(audit.clean(), "five-step audit:\n{}", audit.table());
    assert_eq!(
        audit.forbidden_count(),
        0,
        "five-step must never pair two far patterns:\n{}",
        audit.table()
    );
    // Steps 1-4: gather along the decomposed axis (far-family loads), but
    // every store lands literally in Table 4's A/B classes.
    for step in &audit.steps[..4] {
        let store = step.observed.store.expect("stores sampled");
        assert!(
            matches!(store.pattern, AccessPattern::A | AccessPattern::B),
            "{} stored {} (expected A or B)",
            step.name,
            store.pattern.label()
        );
        let load = step.observed.load.expect("loads sampled");
        assert_eq!(
            load.pattern,
            AccessPattern::D,
            "{} should gather with far-stride loads",
            step.name
        );
    }
    // The expectation table alternates A and B exactly.
    let stores: Vec<&str> = audit.steps[..4]
        .iter()
        .map(|s| s.observed.store.unwrap().pattern.label())
        .collect();
    assert_eq!(stores, ["A", "B", "A", "B"]);
}

#[test]
fn six_step_transposes_are_forbidden_pairs_and_expected() {
    let audit = audited_run(Algorithm::SixStep, 64);
    // Conformant: the observed patterns match the annotations...
    assert!(audit.clean(), "six-step audit:\n{}", audit.table());
    // ...and the annotations *are* the slow far x far transposes, three of
    // them — the paper's argument for avoiding the six-step structure.
    assert_eq!(
        audit.forbidden_count(),
        3,
        "six-step audit:\n{}",
        audit.table()
    );
    for step in &audit.steps {
        let is_transpose = step.name.starts_with("transpose_");
        assert_eq!(
            step.forbidden,
            is_transpose,
            "{}:\n{}",
            step.name,
            audit.table()
        );
    }
}

#[test]
fn cufft_like_multirow_kernels_observe_far_far() {
    let audit = audited_run(Algorithm::CufftLike, 64);
    assert!(audit.clean(), "cufft-like audit:\n{}", audit.table());
    assert_eq!(
        audit.forbidden_count(),
        2,
        "the two multirow kernels are the far x far offenders:\n{}",
        audit.table()
    );
    for step in &audit.steps {
        assert_eq!(step.forbidden, step.name.ends_with("_multirow"));
    }
}

#[test]
fn deliberately_strided_copy_is_flagged_class_d() {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let n = 1 << 14;
    let src = gpu.mem_mut().alloc(n).unwrap();
    let dst = gpu.mem_mut().alloc(n).unwrap();
    let cfg = LaunchConfig::copy("strided_copy", 4, 64);
    let total = 4 * 64usize;
    let rep = gpu.launch(&cfg, |t| {
        let mut i = t.gid();
        while i < n {
            let v = t.ld(src, (i * 16) % n);
            t.st(dst, i, v);
            i += total;
        }
    });
    let run = RunReport {
        algorithm: "strided-copy",
        dims: (64, 64, 64),
        nominal_flops: 0,
        steps: vec![rep],
        trace: None,
    };
    let audit = PatternAudit::of_report(&run);
    // No annotations for an ad-hoc kernel, so the audit can't mismatch...
    assert!(audit.clean());
    // ...but the classifier still calls the load stream what it is.
    let load = audit.steps[0].observed.load.expect("loads sampled");
    assert_eq!(load.pattern, AccessPattern::D);
    assert!(audit.table().contains("strided_copy"));
}

/// The audit matches expectations to steps by name, and an unmatched step
/// passes unannotated: each in-core algorithm's table must list exactly
/// its launch list's steps, in order, so a renamed step cannot slip past.
#[test]
fn expectations_name_every_launched_step() {
    let spec = DeviceSpec::gts8800();
    for algo in Algorithm::IN_CORE {
        let launched: Vec<&str> = algo
            .launches(&spec, 64, 64, 64)
            .unwrap()
            .iter()
            .map(|l| l.cfg.name)
            .collect();
        let annotated: Vec<&str> = expected_patterns(algo.name())
            .iter()
            .map(|e| e.step)
            .collect();
        assert_eq!(annotated, launched, "{}", algo.name());
    }
}
