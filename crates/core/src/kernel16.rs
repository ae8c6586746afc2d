//! The coarse-grained strided-pass kernel (steps 1–4 of the paper).
//!
//! One simulated thread computes one complete small FFT (16 points for 256³)
//! entirely in registers — no shared memory, no inter-thread communication
//! (§3.2: "we employ coarse-grained parallelism, i.e., compute one 16-point
//! FFT transform per thread"). Rows are assigned to threads cyclically with
//! the X digit fastest, so every half-warp touches 16 consecutive complex
//! elements at each strided offset: all global traffic coalesces, and the
//! pass reads pattern D while writing pattern A or B (never C/D x C/D).
//!
//! The first-half passes additionally multiply by the inter-digit twiddle
//! `W_axis^{k1·n2}` — the paper keeps these "in registers", which we model by
//! capturing the host-side table in the kernel closure at zero memory cost.

use fft_math::codelets::{codelet_flops, fft_small};
use fft_math::flops::nominal_flops_1d;
use fft_math::lanes::{lanes_to_side_by_side, side_by_side_to_lanes, C32x8, FftValue, LANES};
use fft_math::layout::{StridedPass, View5};
use fft_math::twiddle::{Direction, InterTwiddle};
use fft_math::Complex32;
use gpu_sim::{
    BufferId, DeviceMemory, DeviceSpec, Gpu, KernelClass, KernelReport, KernelResources,
    LaunchConfig,
};

/// Register demand of the coarse kernel for an `n`-point per-thread FFT.
///
/// Calibrated so that n = 16 gives the paper's 51–52 registers (data: 2n,
/// twiddles/temporaries: ~n, addressing: 4).
pub fn coarse_regs(n: usize) -> usize {
    3 * n + 4
}

/// Launch resources for one strided pass.
pub fn coarse_resources(fft_len: usize) -> KernelResources {
    KernelResources {
        threads_per_block: 64,
        regs_per_thread: coarse_regs(fft_len),
        shared_bytes_per_block: 0,
    }
}

/// The launch of one strided pass on `spec`: the one configuration the
/// functional pass and the analytic estimator both use.
pub fn pass_config(spec: &DeviceSpec, pass: &StridedPass, name: &'static str) -> LaunchConfig {
    let n = pass.fft_len;
    assert!(
        n <= 16,
        "coarse kernel is register-resident: fft_len must be <= 16"
    );
    let resources = coarse_resources(n);
    LaunchConfig {
        name,
        grid_blocks: spec.fill_grid(&resources),
        resources,
        class: KernelClass::RegisterFft,
        read_pattern: pass.read_pattern,
        write_pattern: pass.write_pattern,
        in_place: false,
        nominal_flops: (pass.input.len() as u64 / n as u64) * nominal_flops_1d(n),
        streams: n,
    }
}

/// The coarse pass's work split: row `r`'s `(x, f1, f2, f3)` coordinates in
/// the input view, X fastest so half-warps coalesce.
#[inline]
fn row_coords(in_view: &View5, r: usize) -> (usize, [usize; 3]) {
    let x = r % in_view.nx;
    let mut rest = r / in_view.nx;
    let f1 = rest % in_view.extents[0];
    rest /= in_view.extents[0];
    let f2 = rest % in_view.extents[1];
    rest /= in_view.extents[1];
    let f3 = rest % in_view.extents[2];
    (x, [f1, f2, f3])
}

/// Output index of bin `k` of row `(x, f)`: the digit relabelling of the
/// five-step plan pushes the new digit into slot 1 for first halves and
/// slot 2 for second halves (write patterns A and B respectively).
#[inline]
fn out_index(pass: &StridedPass, x: usize, [f1, f2, f3]: [usize; 3], k: usize) -> usize {
    if pass.first_half {
        pass.output.index(x, [k, f1, f2, f3])
    } else {
        pass.output.index(x, [f1, k, f2, f3])
    }
}

/// The register-resident arithmetic of one row: the small FFT, then for
/// first halves the inter-digit twiddle, whose `n2` is the input slot-3
/// digit `f3`. Returns the twiddle's FLOPs. The simulated body (one row of
/// [`Complex32`]) and the native executor (eight rows in [`C32x8`] lanes)
/// both call this.
#[inline]
fn coarse_row<T: FftValue>(
    row: &mut [T],
    dir: Direction,
    inter: Option<&InterTwiddle>,
    f3: usize,
) -> u64 {
    fft_small(row, dir);
    let mut extra = 0u64;
    if let Some(tw) = inter {
        for (k1, v) in row.iter_mut().enumerate() {
            if k1 != 0 && f3 != 0 {
                *v *= tw.get(k1, f3);
                extra += 6;
            }
        }
    }
    extra
}

/// Inter-digit twiddles for first halves: `W_axis^{k1 * n2}` where `n2` is
/// the input slot-3 digit (extent `axis_len / fft_len`).
fn inter_twiddle(pass: &StridedPass, dir: Direction) -> Option<InterTwiddle> {
    let n = pass.fft_len;
    pass.first_half
        .then(|| InterTwiddle::new(n, pass.axis_len / n, dir))
}

/// [`run_strided_pass`] through [`Gpu::launch_replay`]: the first pass of a
/// shape is simulated, and every later one computes the same rows in plain
/// loops and reuses its report. Outputs and report are bit-identical to
/// [`run_strided_pass`]'s.
pub fn replay_strided_pass(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    src: BufferId,
    dst: BufferId,
    pass: &StridedPass,
    dir: Direction,
) -> KernelReport {
    // As for the row FFT, the direction changes only the values computed.
    let (i, o) = (pass.input, pass.output);
    let shape = [
        pass.step,
        i.nx,
        i.extents[0],
        i.extents[1],
        i.extents[2],
        i.extents[3],
        o.nx,
        o.extents[0],
        o.extents[1],
        o.extents[2],
        o.extents[3],
        pass.fft_len,
        pass.axis_len,
        pass.first_half as usize,
    ]
    .map(|w| w as u64);
    gpu.launch_replay(
        cfg,
        &[src, dst],
        &shape,
        |g| run_strided_pass(g, cfg, src, dst, pass, dir),
        |mem, _| native_strided_pass(mem, src, dst, pass, dir),
    )
}

/// Executes one strided pass (`src` → `dst`) on the device as `cfg`, its
/// [`pass_config`]: one simulated thread per row, gathered and scattered
/// through global memory.
///
/// `pass` carries the 5-D views, FFT length, and declared access patterns
/// from [`fft_math::layout::FiveStepPlanLayout::strided_passes`]. The kernel
/// is fully functional; the returned report carries measured coalescing and
/// modelled timing.
pub fn run_strided_pass(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    src: BufferId,
    dst: BufferId,
    pass: &StridedPass,
    dir: Direction,
) -> KernelReport {
    let n = pass.fft_len;
    let in_view = pass.input;
    let rows = in_view.len() / n;
    let inter = inter_twiddle(pass, dir);
    let flops_per_row = codelet_flops(n) as u64;
    gpu.launch_items(cfg, rows, |t, r| {
        let mut buf = [Complex32::ZERO; 16];
        let (x, f) = row_coords(&in_view, r);
        // Gather the strided row (pattern D read).
        for (j, v) in buf[..n].iter_mut().enumerate() {
            *v = t.ld(src, in_view.index(x, [f[0], f[1], f[2], j]));
        }
        let extra = coarse_row(&mut buf[..n], dir, inter.as_ref(), f[2]);
        t.flops(flops_per_row + extra);
        for (k, v) in buf[..n].iter().enumerate() {
            t.st(dst, out_index(pass, x, f, k), *v);
        }
    })
}

/// The native pass: the same rows, eight consecutive `x` to a group of
/// [`C32x8`] lanes (the last group partial when 8 does not divide `nx`),
/// gathered and scattered in plain loops. Both views are linear in every
/// digit, so each row's elements sit at a fixed stride from its first, and
/// at each of those offsets the `nx` rows of one `(f1, f2, f3)` are
/// consecutive: the `n` runs of `nx` elements are copied into one staging
/// buffer with [`Backed::read`] (reading zeros past the backed prefix, as
/// the simulated loads do), all their groups are filled from it at once,
/// and every strided output point is written as one `nx`-long run.
///
/// [`Backed::read`]: gpu_sim::Backed::read
fn native_strided_pass(
    mem: &mut DeviceMemory,
    src: BufferId,
    dst: BufferId,
    pass: &StridedPass,
    dir: Direction,
) {
    let n = pass.fft_len;
    let in_view = pass.input;
    let nx = in_view.nx;
    let inter = inter_twiddle(pass, dir);
    let in_stride = in_view.slot_stride(4);
    let out_stride = out_index(pass, 0, [0; 3], 1);
    let (src, dst) = mem.src_dst(src, dst, pass.output.len());
    let mut staged = vec![Complex32::ZERO; n * nx];
    let mut groups = vec![C32x8::ZERO; nx.div_ceil(LANES) * n];
    let [e1, e2, e3, _] = in_view.extents;
    for f3 in 0..e3 {
        for f2 in 0..e2 {
            for f1 in 0..e1 {
                let from = in_view.index(0, [f1, f2, f3, 0]);
                for (j, run) in staged.chunks_exact_mut(nx).enumerate() {
                    src.read(from + j * in_stride, run);
                }
                side_by_side_to_lanes(nx, nx, &mut groups, &staged);
                for row in groups.chunks_exact_mut(n) {
                    coarse_row(row, dir, inter.as_ref(), f3);
                }
                let to = out_index(pass, 0, [f1, f2, f3], 0);
                lanes_to_side_by_side(&groups, nx, out_stride, &mut dst[to..]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::dft::dft_oracle;
    use fft_math::layout::{AccessPattern, FiveStepPlanLayout};
    use gpu_sim::DeviceSpec;

    fn make_gpu() -> Gpu {
        Gpu::new(DeviceSpec::gts8800())
    }

    /// Runs pass 1 of a small plan and checks each Z_hi-row against the
    /// 1-D oracle with the inter-twiddle applied.
    #[test]
    fn pass1_computes_twiddled_row_ffts() {
        let plan = FiveStepPlanLayout::new(16, 16, 16);
        let pass = plan.strided_passes()[0];
        let n = pass.fft_len; // 4 for 16 = 4x4
        let vol = plan.volume();

        let mut gpu = make_gpu();
        let src = gpu.mem_mut().alloc(vol).unwrap();
        let dst = gpu.mem_mut().alloc(vol).unwrap();
        let host: Vec<Complex32> = (0..vol)
            .map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        gpu.mem_mut().upload(src, 0, &host);

        let cfg = pass_config(gpu.spec(), &pass, "p1");
        run_strided_pass(&mut gpu, &cfg, src, dst, &pass, Direction::Forward);

        let in_view = pass.input;
        let out_view = pass.output;
        for f1 in 0..in_view.extents[0] {
            for f2 in 0..in_view.extents[1] {
                for f3 in 0..in_view.extents[2] {
                    for x in [0usize, 7, 15] {
                        let row: Vec<Complex32> = (0..n)
                            .map(|j| host[in_view.index(x, [f1, f2, f3, j])])
                            .collect();
                        let want = dft_oracle(&row, Direction::Forward);
                        for (k1, want_k) in want.iter().enumerate() {
                            let tw = fft_math::twiddle::twiddle(
                                k1 * f3,
                                pass.axis_len,
                                Direction::Forward,
                            );
                            let expect = want_k.narrow() * tw;
                            let got = gpu.mem().read(dst, out_view.index(x, [k1, f1, f2, f3]));
                            assert!(
                                (got - expect).abs() < 1e-3,
                                "row ({x},{f1},{f2},{f3}) bin {k1}: {got} vs {expect}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pass_traffic_is_fully_coalesced() {
        let plan = FiveStepPlanLayout::new(64, 16, 16);
        let pass = plan.strided_passes()[0];
        let vol = plan.volume();
        let mut gpu = make_gpu();
        let src = gpu.mem_mut().alloc(vol).unwrap();
        let dst = gpu.mem_mut().alloc(vol).unwrap();
        let cfg = pass_config(gpu.spec(), &pass, "p1");
        let rep = run_strided_pass(&mut gpu, &cfg, src, dst, &pass, Direction::Forward);
        assert!(rep.stats.coalesced_fraction() > 0.999, "{:?}", rep.stats);
        assert_eq!(rep.stats.loads, vol as u64);
        assert_eq!(rep.stats.stores, vol as u64);
        assert_eq!(
            rep.stats.shared_reads, 0,
            "coarse kernel must not touch shared memory"
        );
    }

    #[test]
    fn pass_patterns_are_d_in_a_or_b_out() {
        let plan = FiveStepPlanLayout::new(16, 16, 16);
        for (i, pass) in plan.strided_passes().iter().enumerate() {
            assert_eq!(pass.read_pattern, AccessPattern::D);
            let want = if i % 2 == 0 {
                AccessPattern::A
            } else {
                AccessPattern::B
            };
            assert_eq!(pass.write_pattern, want);
        }
    }

    #[test]
    fn forward_then_inverse_pass_pair_is_identity_on_z() {
        // Running pass 1 forward then the matching inverse first-half on the
        // *output* undoes the twiddled column FFTs (up to 1/len scaling).
        use fft_math::layout::FiveStepPlanLayout;
        let plan = FiveStepPlanLayout::new(16, 16, 16);
        let passes = plan.strided_passes();
        let vol = plan.volume();
        let mut gpu = make_gpu();
        let a = gpu.mem_mut().alloc(vol).unwrap();
        let b = gpu.mem_mut().alloc(vol).unwrap();
        let host: Vec<Complex32> = (0..vol)
            .map(|i| Complex32::new((i as f32).sin(), (i as f32).cos()))
            .collect();
        gpu.mem_mut().upload(a, 0, &host);
        let cfg = pass_config(gpu.spec(), &passes[0], "fwd");
        run_strided_pass(&mut gpu, &cfg, a, b, &passes[0], Direction::Forward);
        // Invert: an inverse pass over the *output's* slot-1 digit with the
        // same (input-view, output-view) roles swapped is pass 1 of the
        // split-swapped plan run on different digits; the cheap check here
        // is numerical: forward pass energy is conserved (unitary x len).
        let out = gpu.mem_mut().as_slice(b);
        let e_in: f64 = host.iter().map(|z| z.norm_sqr() as f64).sum();
        let e_out: f64 =
            out.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / passes[0].fft_len as f64;
        assert!((e_in - e_out).abs() < 1e-3 * e_in, "{e_in} vs {e_out}");
    }

    #[test]
    fn paper_register_count() {
        // §3.1: "kernels of 16-point FFT with 51 or 52 registers".
        assert_eq!(coarse_regs(16), 52);
    }

    #[test]
    fn occupancy_of_coarse_kernel_is_128_threads() {
        let gpu = make_gpu();
        let occ = gpu_sim::occupancy(&gpu.spec().arch, &coarse_resources(16));
        assert_eq!(occ.threads_per_sm, 128);
    }
}
