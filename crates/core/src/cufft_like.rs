//! A CUFFT-1.1-style baseline (the library the paper beats 3x).
//!
//! Two characteristics of the 2007-era CUFFT explain its Figure-1 numbers,
//! and both are reproduced mechanistically here:
//!
//! * **1-D path**: radix kernels executed in two global-memory passes with a
//!   register-hungry, non-fused instruction mix (`KernelClass::LegacyFft`,
//!   calibrated to Table 8's CUFFT1D column — including the GTX losing to
//!   the GTS because the passes are compute-bound).
//! * **3-D path**: no transposes — the Y and Z axes are transformed in place
//!   by *whole-transform-per-thread* multirow kernels. A 256-point transform
//!   per thread needs ~1024 registers, so only 8 threads fit on an SM
//!   (§3.1), and achieved bandwidth collapses to a quarter of saturation.
//!   The Z axis additionally walks C/D-class strides.

use crate::report::RunReport;
use fft_math::fft1d::Fft1dPlan;
use fft_math::flops::{nominal_flops_1d, nominal_flops_3d};
use fft_math::layout::AccessPattern;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::occupancy::occupancy;
use gpu_sim::timing::{estimate_pass, KernelTiming};
use gpu_sim::{
    AllocError, BufferId, DeviceSpec, Gpu, KernelClass, KernelReport, KernelResources, LaunchConfig,
};

/// Batched 1-D FFT the way CUFFT 1.1 ran it: the transform's arithmetic
/// split over two full passes through device memory.
///
/// Functionally, pass 1 computes the whole transform and pass 2 copies —
/// together they move exactly the traffic (2 x read+write) and execute
/// exactly the arithmetic (charged half per pass) of the historical two-pass
/// radix pipeline.
pub fn cufft1d_batch(
    gpu: &mut Gpu,
    src: BufferId,
    dst: BufferId,
    n: usize,
    rows: usize,
    dir: Direction,
) -> Vec<KernelReport> {
    let res = KernelResources {
        threads_per_block: 64,
        regs_per_thread: 32,
        shared_bytes_per_block: 4 * 1024,
    };
    let grid = gpu.fill_grid(&res);
    let cfg = |name: &'static str| LaunchConfig {
        name,
        grid_blocks: grid,
        resources: res,
        class: KernelClass::LegacyFft,
        read_pattern: AccessPattern::X,
        write_pattern: AccessPattern::X,
        in_place: false,
        nominal_flops: rows as u64 * nominal_flops_1d(n) / 2,
        streams: 1,
    };
    let plan = Fft1dPlan::new(n);
    // Pass 1: one block per row (grid-strided), lanes own interleaved
    // elements so loads and stores coalesce — the shape of the historical
    // radix kernels. The row maths runs at block level over the staged data.
    let mut scratch = vec![Complex32::ZERO; n];
    let mut row_buf = vec![Complex32::ZERO; n];
    let r1 = gpu.launch_coop_items(&cfg("cufft1d_pass1"), rows, |blk, r| {
        blk.threads(|tid, ctx| {
            for j in (tid..n).step_by(64) {
                row_buf[j] = ctx.ld(src, r * n + j);
            }
        });
        plan.execute(&mut row_buf, &mut scratch, dir);
        blk.threads(|tid, ctx| {
            if tid == 0 {
                ctx.flops(5 * n as u64 * n.trailing_zeros() as u64 / 2);
            }
            for j in (tid..n).step_by(64) {
                ctx.st(dst, r * n + j, row_buf[j]);
            }
        });
    });
    let r2 = gpu.launch_items(&cfg("cufft1d_pass2"), rows * n, |t, i| {
        let v = t.ld(dst, i);
        t.st(dst, i, v);
        t.flops(5 * n as u64 / 2);
    });
    vec![r1, r2]
}

/// The multirow whole-axis-per-thread kernel CUFFT 1.1 used for the Y and Z
/// axes: each thread gathers a full `n`-point strided row, transforms it
/// "in registers", and scatters it back.
///
/// A 256-point working set (512+ data registers) cannot actually live in the
/// 8192-register file; the compiler spills roughly half of it to *local
/// memory* — which on G80 is plain device memory, thread-interleaved so the
/// spill traffic at least coalesces. The kernel models that faithfully: half
/// the row takes one extra round trip through a device-resident spill
/// buffer, adding 50% to the pass's useful traffic. Combined with the
/// 8-thread occupancy (§3.1), this reproduces Figure 1's CUFFT3D bars.
#[allow(clippy::too_many_arguments)]
fn run_multirow_axis(
    gpu: &mut Gpu,
    buf: BufferId,
    n: usize,
    stride: usize,
    rows: usize,
    row_index: impl Fn(usize) -> usize + Copy,
    pattern: AccessPattern,
    dir: Direction,
    name: &'static str,
) -> KernelReport {
    // >512 data registers round to a 1024-register allocation; 8-thread
    // blocks are the only launchable shape (§3.1).
    let res = KernelResources {
        threads_per_block: 8,
        regs_per_thread: 1024,
        shared_bytes_per_block: 0,
    };
    let grid = gpu.fill_grid(&res);
    let cfg = LaunchConfig {
        name,
        grid_blocks: grid,
        resources: res,
        class: KernelClass::LegacyFft,
        read_pattern: pattern,
        write_pattern: pattern,
        in_place: true,
        nominal_flops: rows as u64 * nominal_flops_1d(n),
        streams: n,
    };
    let plan = Fft1dPlan::new(n);
    let total = grid * 8;
    let spill_elems = n / 2;
    // Thread-interleaved local-memory spill area (as the hardware lays it out).
    let spill = gpu
        .mem_mut()
        .alloc(spill_elems * total)
        .expect("spill area fits");
    let mut scratch = vec![Complex32::ZERO; n];
    let mut row_buf = vec![Complex32::ZERO; n];
    let rep = gpu.launch_items(&cfg, rows, |t, r| {
        let gid = t.gid();
        let base = row_index(r);
        for (j, v) in row_buf.iter_mut().enumerate() {
            *v = t.ld(buf, base + j * stride);
        }
        // Spill the second half of the working set to local memory and
        // reload it (one round trip), then transform.
        for j in 0..spill_elems {
            t.st(spill, j * total + gid, row_buf[spill_elems + j]);
        }
        for j in 0..spill_elems {
            row_buf[spill_elems + j] = t.ld(spill, j * total + gid);
        }
        plan.execute(&mut row_buf, &mut scratch, dir);
        t.flops(5 * n as u64 * n.trailing_zeros() as u64);
        for (j, v) in row_buf.iter().enumerate() {
            t.st(buf, base + j * stride, *v);
        }
    });
    gpu.mem_mut().free(spill);
    rep
}

/// A CUFFT-1.1-style 3-D FFT on the natural layout.
pub struct CufftLikeFft {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl CufftLikeFft {
    /// Plans the transform.
    pub fn new(_gpu: &mut Gpu, nx: usize, ny: usize, nz: usize) -> Self {
        CufftLikeFft { nx, ny, nz }
    }

    /// Total elements.
    pub fn volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Allocates data + scratch.
    pub fn alloc_buffers(&self, gpu: &mut Gpu) -> Result<(BufferId, BufferId), AllocError> {
        Ok((
            gpu.mem_mut().alloc(self.volume())?,
            gpu.mem_mut().alloc(self.volume())?,
        ))
    }

    /// Executes: X via the two-pass 1-D path, Y and Z via strided multirow
    /// kernels. Input/output in `v`, natural order.
    pub fn execute(&self, gpu: &mut Gpu, v: BufferId, work: BufferId, dir: Direction) -> RunReport {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let vol = self.volume();
        gpu.span_begin("cufft_like");
        gpu.span_begin("cufft_1d_x");
        let mut steps = cufft1d_batch(gpu, v, work, nx, vol / nx, dir);
        gpu.span_end("cufft_1d_x");
        // Copy result back into v (the 1-D path is out-of-place). Real CUFFT
        // alternated buffers; we fold this copy into the pass structure by
        // running Y from `work` in place... keep it simple: Y and Z operate
        // on `work`, and the final result lives there; we swap names below.
        let y_pattern = classify_stride(nx * 8);
        gpu.span_begin("cufft_y");
        steps.push(run_multirow_axis(
            gpu,
            work,
            ny,
            nx,
            vol / ny,
            move |r| {
                let x = r % nx;
                let z = r / nx;
                x + nx * ny * z
            },
            y_pattern,
            dir,
            "cufft_y_multirow",
        ));
        gpu.span_end("cufft_y");
        let z_pattern = classify_stride(nx * ny * 8);
        gpu.span_begin("cufft_z");
        steps.push(run_multirow_axis(
            gpu,
            work,
            nz,
            nx * ny,
            vol / nz,
            move |r| r,
            z_pattern,
            dir,
            "cufft_z_multirow",
        ));
        gpu.span_end("cufft_z");
        // Final copy back to v, as CUFFT's API contract (out-of-place into
        // the user buffer) required.
        gpu.span_begin("cufft_copyback");
        let res = KernelResources {
            threads_per_block: 64,
            regs_per_thread: 16,
            shared_bytes_per_block: 0,
        };
        let grid = gpu.fill_grid(&res);
        let cfg = LaunchConfig {
            name: "cufft_copyback",
            grid_blocks: grid,
            resources: res,
            class: KernelClass::Copy,
            read_pattern: AccessPattern::X,
            write_pattern: AccessPattern::X,
            in_place: false,
            nominal_flops: 0,
            streams: 1,
        };
        steps.push(gpu.launch_items(&cfg, vol, |t, i| {
            let val = t.ld(work, i);
            t.st(v, i, val);
        }));
        gpu.span_end("cufft_copyback");
        gpu.span_end("cufft_like");
        RunReport {
            algorithm: "cufft-like",
            dims: (nx, ny, nz),
            nominal_flops: nominal_flops_3d(nx, ny, nz),
            steps,
            trace: None,
        }
    }
}

impl CufftLikeFft {
    /// Analytic per-step estimate (same configurations as the functional
    /// kernels; no execution).
    pub fn estimate(
        spec: &DeviceSpec,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Vec<(&'static str, KernelTiming)> {
        let vol = (nx * ny * nz) as u64;
        let mut out = Vec::new();
        // Two legacy 1-D passes along X.
        let res1d = KernelResources {
            threads_per_block: 64,
            regs_per_thread: 32,
            shared_bytes_per_block: 4 * 1024,
        };
        let occ = occupancy(&spec.arch, &res1d);
        let grid = spec.sms * occ.blocks_per_sm;
        for name in ["cufft1d_pass1", "cufft1d_pass2"] {
            let cfg = LaunchConfig {
                name,
                grid_blocks: grid,
                resources: res1d,
                class: KernelClass::LegacyFft,
                read_pattern: AccessPattern::X,
                write_pattern: AccessPattern::X,
                in_place: false,
                nominal_flops: vol / nx as u64 * nominal_flops_1d(nx) / 2,
                streams: 1,
            };
            out.push((name, estimate_pass(spec, &cfg, &occ, vol)));
        }
        // Whole-axis-per-thread multirow passes for Y and Z.
        let res_mr = KernelResources {
            threads_per_block: 8,
            regs_per_thread: 1024,
            shared_bytes_per_block: 0,
        };
        let occ = occupancy(&spec.arch, &res_mr);
        let grid = spec.sms * occ.blocks_per_sm;
        for (axis, n, stride, name) in [
            ('y', ny, nx * 8, "cufft_y_multirow"),
            ('z', nz, nx * ny * 8, "cufft_z_multirow"),
        ] {
            let _ = axis;
            let p = classify_stride(stride);
            let cfg = LaunchConfig {
                name,
                grid_blocks: grid,
                resources: res_mr,
                class: KernelClass::LegacyFft,
                read_pattern: p,
                write_pattern: p,
                in_place: true,
                nominal_flops: vol / n as u64 * nominal_flops_1d(n),
                streams: n,
            };
            // +50% traffic: the local-memory spill round trip (see
            // run_multirow_axis).
            out.push((name, estimate_pass(spec, &cfg, &occ, vol * 3 / 2)));
        }
        // Final copy back into the caller's buffer.
        let res_cp = KernelResources {
            threads_per_block: 64,
            regs_per_thread: 16,
            shared_bytes_per_block: 0,
        };
        let occ = occupancy(&spec.arch, &res_cp);
        let cfg = LaunchConfig {
            name: "cufft_copyback",
            grid_blocks: spec.sms * occ.blocks_per_sm,
            resources: res_cp,
            class: KernelClass::Copy,
            read_pattern: AccessPattern::X,
            write_pattern: AccessPattern::X,
            in_place: false,
            nominal_flops: 0,
            streams: 1,
        };
        out.push(("cufft_copyback", estimate_pass(spec, &cfg, &occ, vol)));
        out
    }
}

/// Classifies a byte stride into Table 2's locality classes for the DRAM
/// model (thresholds from the 256³ pattern strides: A = 2 KB, B = 32 KB,
/// C = 512 KB, D = 8 MB).
pub fn classify_stride(stride_bytes: usize) -> AccessPattern {
    if stride_bytes <= 4 * 1024 {
        AccessPattern::A
    } else if stride_bytes <= 64 * 1024 {
        AccessPattern::B
    } else if stride_bytes <= 1024 * 1024 {
        AccessPattern::C
    } else {
        AccessPattern::D
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::dft::dft3d_oracle;
    use fft_math::error::rel_l2_error;
    use fft_math::rng::SplitMix64;
    use gpu_sim::DeviceSpec;

    #[test]
    fn cufft_like_is_numerically_correct() {
        let mut rng = SplitMix64::new(31);
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = CufftLikeFft::new(&mut gpu, 16, 16, 16);
        let (v, w) = plan.alloc_buffers(&mut gpu).unwrap();
        let host: Vec<Complex32> = (0..plan.volume())
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect();
        gpu.mem_mut().upload(v, 0, &host);
        plan.execute(&mut gpu, v, w, Direction::Forward);
        let mut got = vec![Complex32::ZERO; plan.volume()];
        gpu.mem_mut().download(v, 0, &mut got);
        let want = dft3d_oracle(&host, 16, 16, 16, Direction::Forward);
        assert!(rel_l2_error(&got, &want) < 1e-4);
    }

    #[test]
    fn multirow_kernels_run_at_8_threads_per_sm() {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let plan = CufftLikeFft::new(&mut gpu, 16, 16, 16);
        let (v, w) = plan.alloc_buffers(&mut gpu).unwrap();
        let rep = plan.execute(&mut gpu, v, w, Direction::Forward);
        let y = rep
            .steps
            .iter()
            .find(|s| s.name == "cufft_y_multirow")
            .unwrap();
        assert_eq!(y.occupancy.threads_per_sm, 8);
    }

    #[test]
    fn stride_classes() {
        assert_eq!(classify_stride(2048), AccessPattern::A);
        assert_eq!(classify_stride(32 * 1024), AccessPattern::B);
        assert_eq!(classify_stride(512 * 1024), AccessPattern::C);
        assert_eq!(classify_stride(8 * 1024 * 1024), AccessPattern::D);
    }

    #[test]
    fn cufft1d_is_two_passes() {
        let mut gpu = Gpu::new(DeviceSpec::gtx8800());
        let src = gpu.mem_mut().alloc(256 * 4).unwrap();
        let dst = gpu.mem_mut().alloc(256 * 4).unwrap();
        let reps = cufft1d_batch(&mut gpu, src, dst, 256, 4, Direction::Forward);
        assert_eq!(reps.len(), 2);
    }
}
