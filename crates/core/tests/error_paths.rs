//! Failure-path tests: every [`FftError`] variant's exact `Display` string,
//! and every way the builder / multi-GPU planner can refuse a request. The
//! messages are part of the CLI contract (the `profile` and `bench` binaries
//! print them verbatim), so they are pinned here byte-for-byte.

use bifft::multi_gpu::MultiGpuFft3d;
use bifft::plan::{Algorithm, Fft3d, FftError};
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{DeviceSpec, Gpu};

#[test]
fn display_strings_are_pinned() {
    let cases: [(FftError, &str); 5] = [
        (
            FftError::VolumeMismatch {
                expected: 4096,
                got: 4095,
            },
            "volume mismatch: plan covers 4096 elements, host slice has 4095",
        ),
        (
            FftError::UnsupportedSize {
                axis: 'y',
                n: 24,
                max: 512,
            },
            "unsupported y-dimension 24: must be a power of two in 16..=512",
        ),
        // The five-step Y/Z bound is the one the message names.
        (
            FftError::UnsupportedSize {
                axis: 'z',
                n: 512,
                max: 256,
            },
            "unsupported z-dimension 512: must be a power of two in 16..=256",
        ),
        (
            FftError::BadShardCount {
                n_gpus: 3,
                reason: "card count must be a power of two",
            },
            "cannot shard across 3 GPUs: card count must be a power of two",
        ),
        (
            FftError::UnsupportedAlgorithm {
                algorithm: Algorithm::OutOfCore,
                reason: "use OutOfCoreFft::new for volumes larger than device memory",
            },
            "cannot plan 'out-of-core' here: use OutOfCoreFft::new for volumes \
             larger than device memory",
        ),
    ];
    for (err, want) in cases {
        assert_eq!(format!("{err}"), want);
    }
}

#[test]
fn builder_rejects_bad_sizes_per_axis() {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    // Too small, not a power of two, too large — each names its axis and
    // the bound the default five-step plan gives it.
    for (nx, ny, nz, axis, n, max) in [
        (8usize, 64usize, 64usize, 'x', 8usize, 512usize),
        (64, 24, 64, 'y', 24, 256),
        (64, 64, 1024, 'z', 1024, 256),
        (64, 512, 64, 'y', 512, 256),
    ] {
        let err = Fft3d::builder(nx, ny, nz).build(&mut gpu).err().unwrap();
        assert_eq!(err, FftError::UnsupportedSize { axis, n, max });
    }
}

/// For every in-core algorithm, one axis varied across and around its
/// envelope: the builder, the estimator and `check_shape` give the same
/// verdict, and none of them panics.
#[test]
fn builder_estimator_and_envelope_agree() {
    let spec = DeviceSpec::gts8800();
    for algo in Algorithm::IN_CORE {
        for axis in 0..3 {
            for n in [8usize, 16, 24, 256, 512, 1024] {
                let mut dims = [16usize; 3];
                dims[axis] = n;
                let [nx, ny, nz] = dims;
                let verdicts = std::panic::catch_unwind(|| {
                    let mut gpu = Gpu::new(spec);
                    let built = Fft3d::builder(nx, ny, nz).algorithm(algo).build(&mut gpu);
                    (
                        algo.check_shape(nx, ny, nz),
                        algo.estimate_steps(&spec, nx, ny, nz).map(drop),
                        built.map(drop),
                    )
                });
                let what = format!("{} {nx}x{ny}x{nz}", algo.name());
                let (envelope, estimate, build) =
                    verdicts.unwrap_or_else(|_| panic!("{what} panicked"));
                assert_eq!(estimate, envelope, "{what}: estimator");
                assert_eq!(build, envelope, "{what}: builder");
                let max = if algo == Algorithm::FiveStep && axis > 0 {
                    256
                } else {
                    512
                };
                let inside = n.is_power_of_two() && (16..=max).contains(&n);
                assert_eq!(envelope.is_ok(), inside, "{what}: envelope");
            }
        }
    }
}

/// A failed in-core build leaves the card's usage where it started: on a
/// 3 MiB card a 64³ plan's data buffer (2 MiB) fits and its work buffer
/// does not, and the data buffer is freed before the error returns.
#[test]
fn failed_in_core_builds_leak_no_device_memory() {
    for algo in Algorithm::IN_CORE {
        let mut spec = DeviceSpec::gts8800();
        spec.memory_bytes = 3 << 20;
        let mut gpu = Gpu::new(spec);
        let start = gpu.mem().used_bytes();
        let err = Fft3d::builder(64, 64, 64)
            .algorithm(algo)
            .build(&mut gpu)
            .err()
            .unwrap();
        assert!(
            matches!(err, FftError::Alloc(_)),
            "{}: {err:?}",
            algo.name()
        );
        assert_eq!(gpu.mem().used_bytes(), start, "{}", algo.name());
    }
}

#[test]
fn builder_refuses_out_of_core_and_multi_gpu() {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    for (algo, entry_point) in [
        (Algorithm::OutOfCore, "OutOfCoreFft::new"),
        (Algorithm::MultiGpu, "MultiGpuFft3d::new"),
    ] {
        let err = Fft3d::builder(64, 64, 64)
            .algorithm(algo)
            .build(&mut gpu)
            .err()
            .unwrap();
        match &err {
            FftError::UnsupportedAlgorithm { algorithm, reason } => {
                assert_eq!(*algorithm, algo);
                assert!(reason.contains(entry_point), "{reason}");
            }
            other => panic!("expected UnsupportedAlgorithm, got {other:?}"),
        }
        // And the rendered message points at the right entry point.
        assert!(format!("{err}").contains(entry_point));
    }
}

#[test]
fn transform_rejects_wrong_host_volume() {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = Fft3d::builder(16, 16, 16).build(&mut gpu).unwrap();
    let short = vec![Complex32::new(0.0, 0.0); 16 * 16 * 16 - 1];
    let err = plan
        .transform(&mut gpu, &short, Direction::Forward)
        .err()
        .unwrap();
    assert_eq!(
        err,
        FftError::VolumeMismatch {
            expected: 4096,
            got: 4095,
        }
    );
}

#[test]
fn multi_gpu_shard_count_failures() {
    let spec = DeviceSpec::gts8800();
    // Not a power of two.
    let err = MultiGpuFft3d::new(&spec, 3, 64, 64, 64).err().unwrap();
    assert_eq!(
        err,
        FftError::BadShardCount {
            n_gpus: 3,
            reason: "card count must be a power of two",
        }
    );
    // Zero cards is rejected by the same rule.
    assert!(matches!(
        MultiGpuFft3d::new(&spec, 0, 64, 64, 64),
        Err(FftError::BadShardCount { n_gpus: 0, .. })
    ));
    // More cards than Z planes / Y rows: nothing left to give each card.
    let err = MultiGpuFft3d::new(&spec, 32, 64, 16, 16).err().unwrap();
    assert_eq!(
        err,
        FftError::BadShardCount {
            n_gpus: 32,
            reason: "need at least one Z plane and one Y row per card",
        }
    );
}

#[test]
fn algorithm_parse_error_lists_the_choices() {
    let err = "seven-step".parse::<Algorithm>().err().unwrap();
    assert_eq!(
        err,
        "unknown algorithm 'seven-step' (expected five-step, six-step, \
         cufft-like, out-of-core or multi-gpu)"
    );
}

/// A cufft-like plan's spill area is charged to the card from planning on
/// and freed with the plan's buffers, also when the build fails.
#[test]
fn cufft_like_plans_leak_no_device_memory() {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let start = gpu.mem().used_bytes();
    let build = |gpu: &mut Gpu, nx, ny, nz| {
        Fft3d::builder(nx, ny, nz)
            .algorithm(Algorithm::CufftLike)
            .build(gpu)
    };
    let plan = build(&mut gpu, 32, 16, 64).unwrap();
    let vol = 32 * 16 * 64;
    assert!(gpu.mem().used_bytes() > start + 2 * vol as u64 * 8);
    let host = vec![Complex32::new(1.0, 0.0); vol];
    for _ in 0..2 {
        plan.transform(&mut gpu, &host, Direction::Forward).unwrap();
    }
    drop(plan);
    assert_eq!(gpu.mem().used_bytes(), start);
    // Builds that fail at the spill area (a 4 KiB card), at `work` (64³
    // needs 2 × 2 MiB) and at `v` (512³ on the 512 MiB GTS).
    for (mib, n) in [(1.0 / 256.0, 16), (3.0, 64), (512.0, 512)] {
        let mut spec = DeviceSpec::gts8800();
        spec.memory_bytes = (mib * 1024.0 * 1024.0) as u64;
        let mut gpu = Gpu::new(spec);
        let err = build(&mut gpu, n, n, n).err().unwrap();
        assert!(matches!(err, FftError::Alloc(_)), "{n}³: {err:?}");
        assert_eq!(gpu.mem().used_bytes(), 0, "{n}³ on {mib} MiB");
    }
}
