//! Property-style tests on the FFT kernels and plans.
//!
//! Formerly `proptest`-driven (10 cases per property); the workspace builds
//! against an empty cargo registry, so the same properties now run over a
//! deterministic SplitMix64 case sweep.

use bifft::five_step::FiveStepFft;
use bifft::kernel256::{batched_config, bind_twiddle_texture, run_batched_fft, FineFftPlan};
use bifft::plan::{Algorithm, Fft3d};
use fft_math::error::rel_l2_error_f32;
use fft_math::fft1d::fft_pow2;
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{DeviceSpec, Gpu};

fn signal(len: usize, seed: u64) -> Vec<Complex32> {
    (0..len)
        .map(|i| {
            let t = (i as f64 * 0.317 + seed as f64 * 0.011).sin();
            Complex32::new(t as f32, ((i as f64 * 0.7).cos() * t) as f32)
        })
        .collect()
}

/// The fine-grained kernel plan is bank-conflict-free at every supported
/// half-warp-wide size, and the functional run confirms it.
#[test]
fn fine_plan_always_conflict_free() {
    for logn in 6u32..10 {
        let n = 1usize << logn; // 64..512
        let plan = FineFftPlan::new(n);
        assert_eq!(plan.planned_conflicts, 0);
        assert!(plan.resources().shared_bytes_per_block <= 16 * 1024);

        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let rows = 4usize;
        let buf = gpu.mem_mut().alloc(n * rows).unwrap();
        gpu.mem_mut().upload(buf, 0, &signal(n * rows, logn as u64));
        let tw = bind_twiddle_texture(&mut gpu, n, Direction::Forward);
        let cfg = batched_config(gpu.spec(), &plan, rows, true, "p");
        let rep = run_batched_fft(
            &mut gpu,
            &cfg,
            &plan,
            buf,
            buf,
            rows,
            Direction::Forward,
            tw,
        );
        assert_eq!(rep.stats.shared_races, 0);
        assert_eq!(rep.stats.shared_conflict_rate(), 0.0);
        assert!(rep.stats.coalesced_fraction() > 0.999);
    }
}

/// The fine kernel matches the scalar Stockham at arbitrary row counts.
#[test]
fn fine_kernel_matches_reference() {
    let mut rng = SplitMix64::new(0xC04E_0001);
    for _ in 0..10 {
        let rows = 1 + rng.below(5);
        let seed = rng.next_u64() as u32;
        let n = 128usize;
        let host = signal(n * rows, seed as u64);
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = FineFftPlan::new(n);
        let buf = gpu.mem_mut().alloc(n * rows).unwrap();
        gpu.mem_mut().upload(buf, 0, &host);
        let tw = bind_twiddle_texture(&mut gpu, n, Direction::Forward);
        let cfg = batched_config(gpu.spec(), &plan, rows, true, "p");
        run_batched_fft(
            &mut gpu,
            &cfg,
            &plan,
            buf,
            buf,
            rows,
            Direction::Forward,
            tw,
        );
        let mut out = vec![Complex32::ZERO; n * rows];
        gpu.mem_mut().download(buf, 0, &mut out);
        for r in 0..rows {
            let mut want = host[r * n..(r + 1) * n].to_vec();
            fft_pow2(&mut want, Direction::Forward);
            assert!(rel_l2_error_f32(&out[r * n..(r + 1) * n], &want) < 1e-5);
        }
    }
}

/// Five-step and six-step agree through the facade for random dims
/// (>= 16: the six-step transpose tiles are 16 wide).
#[test]
fn facade_algorithms_agree() {
    let mut rng = SplitMix64::new(0xC04E_0002);
    for _ in 0..10 {
        let (nx, ny, nz) = (
            1usize << (4 + rng.below(2)),
            1usize << (4 + rng.below(2)),
            1usize << (4 + rng.below(2)),
        );
        let seed = rng.next_u64() as u32;
        let host = signal(nx * ny * nz, seed as u64);
        let mut out = Vec::new();
        for algo in [Algorithm::FiveStep, Algorithm::SixStep] {
            let mut gpu = Gpu::new(DeviceSpec::gts8800());
            let plan = Fft3d::builder(nx, ny, nz)
                .algorithm(algo)
                .build(&mut gpu)
                .unwrap();
            let (r, _) = plan.transform(&mut gpu, &host, Direction::Forward).unwrap();
            out.push(r);
        }
        assert!(rel_l2_error_f32(&out[1], &out[0]) < 1e-5);
        out.clear();
    }
}

/// Conjugation symmetry: for real input, F(-k) = conj(F(k)).
#[test]
fn hermitian_symmetry_for_real_input() {
    let mut rng = SplitMix64::new(0xC04E_0003);
    for _ in 0..10 {
        let seed = rng.next_u64() as u32;
        let n = 8usize;
        let host: Vec<Complex32> = signal(n * n * n, seed as u64)
            .into_iter()
            .map(|z| Complex32::new(z.re, 0.0))
            .collect();
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let five = FiveStepFft::new(&mut gpu, n, n, n);
        let (v, w) = five.alloc_buffers(&mut gpu).unwrap();
        five.upload(&mut gpu, v, &host);
        five.execute(&mut gpu, v, w, Direction::Forward);
        let f = five.download(&gpu, v);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let a = f[x + n * (y + n * z)];
                    let b = f[(n - x) % n + n * ((n - y) % n + n * ((n - z) % n))];
                    assert!((a - b.conj()).abs() < 1e-3, "({x},{y},{z}): {a} vs {b}");
                }
            }
        }
    }
}

/// A recorded trace is a faithful account of the run: the kernel slices
/// sum to the report's total exactly, and every span closes after it
/// opens with the top-level span covering the whole run.
#[test]
fn trace_accounts_for_all_modelled_time() {
    let mut rng = SplitMix64::new(0xC04E_0004);
    for _ in 0..10 {
        let (lx, ly, lz) = (4 + rng.below(2), 4 + rng.below(2), 4 + rng.below(2));
        let (nx, ny, nz) = (1usize << lx, 1usize << ly, 1usize << lz);
        let algo = [
            Algorithm::FiveStep,
            Algorithm::SixStep,
            Algorithm::CufftLike,
        ][rng.below(3)];
        let host = signal(nx * ny * nz, (lx + 8 * ly + 64 * lz) as u64);
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let rec = gpu.install_recorder();
        let plan = Fft3d::builder(nx, ny, nz)
            .algorithm(algo)
            .build(&mut gpu)
            .unwrap();
        let (_, rep) = plan.transform(&mut gpu, &host, Direction::Forward).unwrap();
        let trace = rec.borrow_mut().take_trace();

        assert_eq!(trace.kernel_count(), rep.steps.len());
        assert_eq!(trace.kernel_time_s(), rep.total_time_s());

        let spans = trace.spans();
        assert!(!spans.is_empty());
        let total = rep.total_time_s();
        for s in &spans {
            assert!(s.end_s >= s.start_s, "span {} runs backwards", s.name);
        }
        // The outermost span covers the whole run to within float
        // reassociation noise.
        let outer = spans.iter().find(|s| s.depth == 0).unwrap();
        assert!(
            (outer.duration_s() - total).abs() <= 1e-9 * total.max(1.0),
            "outer span {} vs total {}",
            outer.duration_s(),
            total
        );
    }
}

/// Any interleaving of kernels across streams takes exactly as long as
/// the serial schedule and leaves identical device memory, because the
/// device has a single compute engine — streams only buy overlap when
/// an async copy can hide behind compute, and this program has none.
#[test]
fn stream_interleavings_match_serial_schedule() {
    let mut rng = SplitMix64::new(0xC04E_0005);
    for _ in 0..10 {
        let len = 1 + rng.below(11);
        let assignment: Vec<usize> = (0..len).map(|_| rng.below(3)).collect();
        use gpu_sim::LaunchConfig;
        let n = 1024usize;
        let run = |use_streams: bool| {
            let mut gpu = Gpu::new(DeviceSpec::gt8800());
            let buf = gpu.mem_mut().alloc(n).unwrap();
            gpu.mem_mut().upload(buf, 0, &signal(n, 5));
            let streams: Vec<_> = (0..3).map(|_| gpu.stream_create()).collect();
            let mut serial_sum = 0.0;
            for (i, &s) in assignment.iter().enumerate() {
                let cfg = LaunchConfig::copy("op", 2, 64);
                let c = Complex32::new(i as f32 * 0.25, 1.0 / (i + 1) as f32);
                let total = 2 * 64;
                let body = |t: &mut gpu_sim::ThreadCtx| {
                    let mut j = t.gid();
                    while j < n {
                        let v = t.ld(buf, j);
                        t.st(buf, j, v + c);
                        j += total;
                    }
                };
                let rep = if use_streams {
                    gpu.with_stream(streams[s], |g| g.launch(&cfg, body))
                } else {
                    gpu.launch(&cfg, body)
                };
                serial_sum += rep.timing.time_s;
            }
            gpu.synchronize();
            let mut out = vec![Complex32::ZERO; n];
            gpu.mem_mut().download(buf, 0, &mut out);
            (gpu.clock_s(), serial_sum, out)
        };
        let (t_streamed, kernel_sum, mem_streamed) = run(true);
        let (t_serial, _, mem_serial) = run(false);
        assert_eq!(mem_streamed, mem_serial);
        assert!((t_streamed - kernel_sum).abs() <= 1e-9 * kernel_sum.max(1.0));
        assert!((t_serial - kernel_sum).abs() <= 1e-9 * kernel_sum.max(1.0));
    }
}

/// The DC bin is the plain sum of the volume.
#[test]
fn dc_bin_is_the_sum() {
    let mut rng = SplitMix64::new(0xC04E_0006);
    for _ in 0..10 {
        let seed = rng.next_u64() as u32;
        let n = 8usize;
        let host = signal(n * n * n, seed as u64);
        let want: Complex32 = host.iter().copied().sum();
        let mut gpu = Gpu::new(DeviceSpec::gtx8800());
        let five = FiveStepFft::new(&mut gpu, n, n, n);
        let (v, w) = five.alloc_buffers(&mut gpu).unwrap();
        five.upload(&mut gpu, v, &host);
        five.execute(&mut gpu, v, w, Direction::Forward);
        let f = five.download(&gpu, v);
        assert!((f[0] - want).abs() < 1e-3 * want.abs().max(1.0));
    }
}
