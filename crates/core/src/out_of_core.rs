//! §3.3: FFTs larger than device memory, split over PCI-Express.
//!
//! "To compute an FFT which is larger than the capacity of the device
//! memory, we divide the large FFT into multiple small FFTs. For example, a
//! 3-D FFT of size 512³ ... is split into eight 3-D FFTs of size
//! 512 x 512 x 64."
//!
//! The decomposition is a decimation-in-time split of the Z axis,
//! `z = slabs·j + s`:
//!
//! * **Stage 1** (per slab `s`, the planes with `z ≡ s (mod slabs)`): upload,
//!   3-D FFT of the slab (full X and Y transforms + the length-`nz/slabs`
//!   half of Z), multiply by the inter-slab twiddle `W_nz^{s·k_j}`
//!   (`MULTIPLY_TWIDDLE(I)`), download into the gathered plane order
//!   `slabs·k_j + s`.
//! * **Stage 2** (per group of `slabs` consecutive planes): upload, compute
//!   the length-`slabs` FFTs across the planes (`FFT1X1X8`), download with
//!   the final digit scatter `k = k_j + (nz/slabs)·k_s`.
//!
//! Every byte crosses PCIe twice, which is why Table 12's performance is
//! transfer-dominated — and why §4.4 argues for keeping working sets on the
//! card.

use crate::elementwise::run_slab_twiddle;
use crate::plan::{Algorithm, FftError};
use crate::six_step::SixStepFft;
use fft_math::codelets::{codelet_flops, fft_small};
use fft_math::flops::{nominal_flops_1d, nominal_flops_3d};
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::pcie::{transfer_time, Dir as PcieDir};
use gpu_sim::timing::estimate_pass;
use gpu_sim::{
    DeviceSpec, Gpu, KernelClass, KernelReport, KernelResources, LaunchConfig, StreamId,
};

/// Timing summary of one out-of-core run, structured like Table 12's row.
#[derive(Clone, Debug, Default)]
pub struct OutOfCoreReport {
    /// Stage-1 host-to-device transfer seconds (all slabs).
    pub s1_h2d_s: f64,
    /// Stage-1 on-device 3-D FFT seconds.
    pub s1_fft_s: f64,
    /// Stage-1 twiddle-multiply seconds.
    pub s1_twiddle_s: f64,
    /// Stage-1 device-to-host seconds.
    pub s1_d2h_s: f64,
    /// Stage-2 host-to-device seconds.
    pub s2_h2d_s: f64,
    /// Stage-2 cross-slab FFT seconds.
    pub s2_fft_s: f64,
    /// Stage-2 device-to-host seconds.
    pub s2_d2h_s: f64,
    /// Bytes shipped each way (total both stages).
    pub bytes_transferred: u64,
    /// Nominal FLOPs of the whole transform.
    pub nominal_flops: u64,
    /// Streams the run actually used (after adaptive buffer fallback).
    pub streams: usize,
    /// End-to-end simulated wall-clock seconds. With more than one stream
    /// this is less than [`OutOfCoreReport::total_s`], because transfer
    /// windows hide behind compute; the per-leg columns above always sum
    /// the individual durations.
    pub wall_s: f64,
}

impl OutOfCoreReport {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.s1_h2d_s
            + self.s1_fft_s
            + self.s1_twiddle_s
            + self.s1_d2h_s
            + self.s2_h2d_s
            + self.s2_fft_s
            + self.s2_d2h_s
    }

    /// Overall nominal GFLOPS.
    pub fn gflops(&self) -> f64 {
        self.nominal_flops as f64 / self.total_s() / 1e9
    }
}

/// An out-of-core 3-D FFT plan: Z decimated into `slabs` card-sized pieces.
pub struct OutOfCoreFft {
    nx: usize,
    ny: usize,
    nz: usize,
    slabs: usize,
    streams: usize,
}

impl OutOfCoreFft {
    /// Plans the decomposition. `slabs` must divide `nz` into slabs inside
    /// the six-step envelope ([`Algorithm::check_shape`]), and two slab
    /// buffers must fit on the card.
    ///
    /// # Errors
    /// [`FftError::BadPlanConfig`] for a slab count that cannot decimate
    /// `nz` into slabs of 16+ planes, [`FftError::UnsupportedSize`] for an
    /// `nx` or `ny` outside the envelope, and [`FftError::Alloc`] when even
    /// two slab buffers exceed device memory.
    pub fn new(
        spec: &DeviceSpec,
        nx: usize,
        ny: usize,
        nz: usize,
        slabs: usize,
    ) -> Result<Self, FftError> {
        let bad = |reason: String| FftError::BadPlanConfig {
            param: "slabs",
            value: slabs,
            reason,
        };
        // The cross-slab FFT is one codelet, so at most 16 slabs.
        if !(2..=16).contains(&slabs) || !slabs.is_power_of_two() || !nz.is_multiple_of(slabs) {
            return Err(bad(format!(
                "slabs must be a power of two in 2..=16 dividing nz = {nz}"
            )));
        }
        // Each slab is an in-core six-step plan; a Z extent outside its
        // envelope is the slab count's to fix.
        let slab_z = nz / slabs;
        match Algorithm::SixStep.check_shape(nx, ny, slab_z) {
            Err(e @ FftError::UnsupportedSize { axis: 'z', .. }) => return Err(bad(e.to_string())),
            r => r?,
        }
        let slab_bytes = (nx * ny * slab_z) as u64 * 8;
        if 2 * slab_bytes > spec.memory_bytes {
            return Err(FftError::Alloc(gpu_sim::AllocError {
                requested: 2 * slab_bytes,
                free: spec.memory_bytes,
            }));
        }
        Ok(OutOfCoreFft {
            nx,
            ny,
            nz,
            slabs,
            streams: 2,
        })
    }

    /// Sets how many CUDA-style streams [`OutOfCoreFft::execute`] cycles the
    /// slabs over (default 2). Each extra stream needs one more slab buffer
    /// on the card; buffers that don't fit degrade the run gracefully to
    /// fewer streams (down to fully serial at 1).
    ///
    /// # Errors
    /// [`FftError::BadPlanConfig`] for a stream count of zero.
    pub fn with_streams(self, streams: usize) -> Result<Self, FftError> {
        if streams == 0 {
            return Err(FftError::BadPlanConfig {
                param: "streams",
                value: streams,
                reason: "at least one stream is required".into(),
            });
        }
        Ok(OutOfCoreFft { streams, ..self })
    }

    /// Streams requested (the run may use fewer if buffers don't fit).
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Z extent of one slab.
    pub fn slab_z(&self) -> usize {
        self.nz / self.slabs
    }

    /// Number of slabs.
    pub fn slabs(&self) -> usize {
        self.slabs
    }

    /// Full volume in elements.
    pub fn volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Executes the transform on a natural-order host volume, in place.
    ///
    /// Device work runs functionally; the returned report carries the
    /// modelled stage times (Table 12's columns). Slabs are cycled over
    /// [`OutOfCoreFft::with_streams`] CUDA-style streams, one slab buffer
    /// per stream, so each slab's H2D window hides behind the previous
    /// slab's kernels (§4.4 double-buffering) — a recorded trace shows the
    /// overlap directly, and `wall_s` reports the pipelined end-to-end
    /// time. Streams whose extra slab buffer doesn't fit on the card are
    /// dropped, down to a fully serial single-stream run. The report's leg
    /// times sum the individual durations either way.
    ///
    /// # Errors
    /// [`FftError::VolumeMismatch`] when `host.len()` is not the planned
    /// volume, and [`FftError::Alloc`] when the first slab or group buffer
    /// does not fit on the card.
    pub fn execute(
        &self,
        gpu: &mut Gpu,
        host: &mut [Complex32],
        dir: Direction,
    ) -> Result<OutOfCoreReport, FftError> {
        if host.len() != self.volume() {
            return Err(FftError::VolumeMismatch {
                expected: self.volume(),
                got: host.len(),
            });
        }
        let (nx, ny, nz, slabs) = (self.nx, self.ny, self.nz, self.slabs);
        let slab_z = self.slab_z();
        let plane = nx * ny;
        let slab_elems = plane * slab_z;
        let t0 = gpu.clock_s();

        let mut rep = OutOfCoreReport {
            nominal_flops: nominal_flops_3d(nx, ny, nz),
            ..Default::default()
        };
        let mut work_host = vec![Complex32::ZERO; host.len()];
        let mut stage_in = vec![Complex32::ZERO; slab_elems];
        let mut stage_out = vec![Complex32::ZERO; slab_elems];

        // On-device plan, one slab buffer per stream (extras allocated
        // opportunistically), and a single work buffer shared by all
        // streams — safe because only kernels touch it and the device has
        // one compute engine, so kernels never actually overlap.
        let slab_plan = SixStepFft::new(gpu, nx, ny, slab_z);
        let (v, w) = slab_plan.alloc_buffers(gpu)?;
        let mut slab_bufs = vec![v];
        while slab_bufs.len() < self.streams.min(slabs) {
            match gpu.mem_mut().alloc(slab_elems) {
                Ok(b) => slab_bufs.push(b),
                Err(_) => break,
            }
        }
        let k = slab_bufs.len();
        let streams: Vec<StreamId> = (0..k).map(|_| gpu.stream_create()).collect();
        rep.streams = k;

        // ---- Stage 1 ----
        gpu.span_begin("out_of_core_stage1");
        for s in 0..slabs {
            let st = streams[s % k];
            let cur = slab_bufs[s % k];
            // The stream serialises this upload behind slab s-k's download
            // of the same buffer; across streams the H2D engine overlaps
            // other slabs' compute.
            gather_slab(host, &mut stage_in, plane, slab_z, slabs, s);
            let label = format!("pcie_h2d_slab{s}");
            let (r, _) = gpu.memcpy_h2d_async(st, cur, 0, &stage_in, slab_z, &label);
            rep.s1_h2d_s += r.time_s;

            gpu.with_stream(st, |gpu| {
                let span = format!("stage1_slab{s}");
                gpu.span_begin(&span);
                let run = slab_plan.execute(gpu, cur, w, dir);
                rep.s1_fft_s += run.total_time_s();
                rep.s1_twiddle_s += run_slab_twiddle(gpu, cur, plane, slab_z, nz, s, dir)
                    .timing
                    .time_s;
                gpu.span_end(&span);
            });

            let label = format!("pcie_d2h_slab{s}");
            let (r, _) = gpu.memcpy_d2h_async(st, cur, 0, &mut stage_out, slab_z, &label);
            rep.s1_d2h_s += r.time_s;
            // Scatter: slab s's output plane k_j lands at slabs*k_j + s.
            for kj in 0..slab_z {
                let g = slabs * kj + s;
                work_host[g * plane..(g + 1) * plane]
                    .copy_from_slice(&stage_out[kj * plane..(kj + 1) * plane]);
            }
        }
        gpu.synchronize();
        gpu.span_end("out_of_core_stage1");

        // ---- Stage 2 ----
        gpu.span_begin("out_of_core_stage2");
        let group_elems = plane * slabs;
        let first_group = match gpu.mem_mut().alloc(group_elems) {
            Ok(b) => b,
            Err(e) => {
                // Release stage-1 buffers before bailing, so a failed run
                // doesn't pin half the card.
                for b in slab_bufs {
                    gpu.mem_mut().free(b);
                }
                gpu.mem_mut().free(w);
                return Err(e.into());
            }
        };
        let mut group_bufs = vec![first_group];
        while group_bufs.len() < k {
            match gpu.mem_mut().alloc(group_elems) {
                Ok(b) => group_bufs.push(b),
                Err(_) => break,
            }
        }
        let gk = group_bufs.len();
        for i in 0..slab_z {
            let st = streams[i % gk];
            let g2 = group_bufs[i % gk];
            let base = i * slabs;
            let label = format!("pcie_h2d_group{i}");
            let (r, _) = gpu.memcpy_h2d_async(
                st,
                g2,
                0,
                &work_host[base * plane..(base + slabs) * plane],
                slabs,
                &label,
            );
            rep.s2_h2d_s += r.time_s;

            gpu.with_stream(st, |gpu| {
                let span = format!("stage2_group{i}");
                gpu.span_begin(&span);
                let krep = run_cross_plane_fft(gpu, g2, plane, slabs, dir);
                gpu.span_end(&span);
                rep.s2_fft_s += krep.timing.time_s;
            });

            let mut out = vec![Complex32::ZERO; group_elems];
            let label = format!("pcie_d2h_group{i}");
            let (r, _) = gpu.memcpy_d2h_async(st, g2, 0, &mut out, slabs, &label);
            rep.s2_d2h_s += r.time_s;
            // Final scatter: bin k = k_j + slab_z*k_s → plane i + slab_z*ks.
            for ks in 0..slabs {
                let g = i + slab_z * ks;
                host[g * plane..(g + 1) * plane]
                    .copy_from_slice(&out[ks * plane..(ks + 1) * plane]);
            }
        }
        gpu.synchronize();
        gpu.span_end("out_of_core_stage2");
        for b in group_bufs {
            gpu.mem_mut().free(b);
        }
        for b in slab_bufs {
            gpu.mem_mut().free(b);
        }
        gpu.mem_mut().free(w);

        rep.bytes_transferred = 4 * self.volume() as u64 * 8;
        rep.wall_s = gpu.clock_s() - t0;
        Ok(rep)
    }

    /// Analytic estimate with **asynchronous transfer overlap** — the §4.4
    /// extension ("the latest devices support asynchronous transfers, which
    /// enable overlap between data transfer and computation").
    ///
    /// With double-buffered slabs, each stage becomes a three-deep pipeline
    /// (upload | compute | download); its steady-state time is the maximum
    /// of the three totals, plus one fill and one drain leg.
    pub fn estimate_overlapped(&self, spec: &DeviceSpec) -> OutOfCoreReport {
        let serial = self.estimate(spec);
        let slabs = self.slabs as f64;
        let groups = self.slab_z() as f64;

        let s1_compute = serial.s1_fft_s + serial.s1_twiddle_s;
        let s1 = (serial.s1_h2d_s.max(s1_compute).max(serial.s1_d2h_s))
            + serial.s1_h2d_s / slabs
            + serial.s1_d2h_s / slabs;
        let s2 = (serial.s2_h2d_s.max(serial.s2_fft_s).max(serial.s2_d2h_s))
            + serial.s2_h2d_s / groups
            + serial.s2_d2h_s / groups;

        // Attribute the pipelined time back to the dominant legs so the
        // report columns stay meaningful: scale every leg by the stage's
        // compression factor.
        let f1 = s1 / (serial.s1_h2d_s + s1_compute + serial.s1_d2h_s);
        let f2 = s2 / (serial.s2_h2d_s + serial.s2_fft_s + serial.s2_d2h_s);
        OutOfCoreReport {
            s1_h2d_s: serial.s1_h2d_s * f1,
            s1_fft_s: serial.s1_fft_s * f1,
            s1_twiddle_s: serial.s1_twiddle_s * f1,
            s1_d2h_s: serial.s1_d2h_s * f1,
            s2_h2d_s: serial.s2_h2d_s * f2,
            s2_fft_s: serial.s2_fft_s * f2,
            s2_d2h_s: serial.s2_d2h_s * f2,
            streams: 2,
            wall_s: s1 + s2,
            ..serial
        }
    }

    /// Analytic Table 12 estimate (no functional execution, any size).
    pub fn estimate(&self, spec: &DeviceSpec) -> OutOfCoreReport {
        let (nx, ny, nz, slabs) = (self.nx, self.ny, self.nz, self.slabs);
        let slab_z = self.slab_z();
        let plane = nx * ny;
        let slab_bytes = (plane * slab_z) as u64 * 8;
        let group_bytes = (plane * slabs) as u64 * 8;
        let n_groups = slab_z;

        let slab_fft: f64 = Algorithm::SixStep
            .estimate_steps(spec, nx, ny, slab_z)
            .expect("OutOfCoreFft::new checked the slab shape")
            .iter()
            .map(|(_, t)| t.time_s)
            .sum();
        let twiddle = {
            // One read+write pass over the slab at streaming bandwidth.
            let bw = gpu_sim::dram::copy_base_gbs(spec) * 1e9;
            2.0 * slab_bytes as f64 / bw
        };
        let cross_plane = cross_plane_cfg(spec, plane, slabs);
        let s2_fft =
            estimate_pass(spec, &cross_plane, (plane * slabs) as u64).time_s * n_groups as f64;

        let mut rep = OutOfCoreReport {
            s1_h2d_s: slabs as f64
                * transfer_time(spec.pcie, PcieDir::H2D, slab_bytes, slab_z).time_s,
            s1_fft_s: slabs as f64 * slab_fft,
            s1_twiddle_s: slabs as f64 * twiddle,
            s1_d2h_s: slabs as f64
                * transfer_time(spec.pcie, PcieDir::D2H, slab_bytes, slab_z).time_s,
            s2_h2d_s: n_groups as f64
                * transfer_time(spec.pcie, PcieDir::H2D, group_bytes, slabs).time_s,
            s2_fft_s: s2_fft,
            s2_d2h_s: n_groups as f64
                * transfer_time(spec.pcie, PcieDir::D2H, group_bytes, slabs).time_s,
            bytes_transferred: 4 * self.volume() as u64 * 8,
            nominal_flops: nominal_flops_3d(nx, ny, nz),
            streams: 1,
            wall_s: 0.0,
        };
        rep.wall_s = rep.total_s();
        rep
    }
}

/// Gathers slab `s`'s decimated planes (`z = slabs·j + s`) into `dst`.
fn gather_slab(
    host: &[Complex32],
    dst: &mut [Complex32],
    plane: usize,
    slab_z: usize,
    slabs: usize,
    s: usize,
) {
    for j in 0..slab_z {
        let z = slabs * j + s;
        dst[j * plane..(j + 1) * plane].copy_from_slice(&host[z * plane..(z + 1) * plane]);
    }
}

/// The cross-plane kernel's launch on `spec`: `slabs`-point FFTs across
/// planes of `plane` elements.
fn cross_plane_cfg(spec: &DeviceSpec, plane: usize, slabs: usize) -> LaunchConfig {
    let resources = KernelResources {
        threads_per_block: 64,
        regs_per_thread: 3 * slabs + 4,
        shared_bytes_per_block: 0,
    };
    LaunchConfig {
        name: "fft_cross_plane",
        grid_blocks: spec.fill_grid(&resources),
        resources,
        class: KernelClass::RegisterFft,
        read_pattern: crate::cufft_like::classify_stride(plane * 8),
        write_pattern: crate::cufft_like::classify_stride(plane * 8),
        in_place: true,
        nominal_flops: plane as u64 * nominal_flops_1d(slabs),
        streams: slabs,
    }
}

/// The `FFT1X1X8` kernel: length-`slabs` FFTs across `slabs` consecutive
/// planes, one transform per thread (coarse-grained, registers).
fn run_cross_plane_fft(
    gpu: &mut Gpu,
    buf: gpu_sim::BufferId,
    plane: usize,
    slabs: usize,
    dir: Direction,
) -> KernelReport {
    let cfg = cross_plane_cfg(gpu.spec(), plane, slabs);
    let fl = codelet_flops(slabs) as u64;
    gpu.launch_items(&cfg, plane, |t, r| {
        let mut buf16 = [Complex32::ZERO; 16];
        for (j, v) in buf16[..slabs].iter_mut().enumerate() {
            *v = t.ld(buf, r + j * plane);
        }
        fft_small(&mut buf16[..slabs], dir);
        t.flops(fl);
        for (j, v) in buf16[..slabs].iter().enumerate() {
            t.st(buf, r + j * plane, *v);
        }
    })
}

/// Converts an out-of-core report into a one-line summary.
pub fn summarize(rep: &OutOfCoreReport, dims: (usize, usize, usize)) -> String {
    format!(
        "out-of-core {}x{}x{}: total {:.3} s ({:.1} GFLOPS) | stage1: h2d {:.3} fft {:.3} tw {:.3} d2h {:.3} | stage2: h2d {:.3} fft {:.3} d2h {:.3}",
        dims.0, dims.1, dims.2,
        rep.total_s(), rep.gflops(),
        rep.s1_h2d_s, rep.s1_fft_s, rep.s1_twiddle_s, rep.s1_d2h_s,
        rep.s2_h2d_s, rep.s2_fft_s, rep.s2_d2h_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::dft::dft3d_oracle;
    use fft_math::error::rel_l2_error;
    use fft_math::rng::SplitMix64;
    use gpu_sim::DeviceSpec;

    #[test]
    fn out_of_core_matches_oracle() {
        let (nx, ny, nz) = (16usize, 16, 32);
        let spec = DeviceSpec::gts8800();
        let plan = OutOfCoreFft::new(&spec, nx, ny, nz, 2).unwrap();
        let mut gpu = Gpu::new(spec);
        let mut rng = SplitMix64::new(41);
        let orig: Vec<Complex32> = (0..nx * ny * nz)
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect();
        let mut host = orig.clone();
        let rep = plan
            .execute(&mut gpu, &mut host, Direction::Forward)
            .unwrap();
        let want = dft3d_oracle(&orig, nx, ny, nz, Direction::Forward);
        let err = rel_l2_error(&host, &want);
        assert!(err < 1e-4, "rel err {err}");
        assert!(rep.total_s() > 0.0);
        assert!(rep.s1_h2d_s > 0.0 && rep.s2_d2h_s > 0.0);
    }

    #[test]
    fn out_of_core_matches_in_core_at_larger_size() {
        let (nx, ny, nz) = (16usize, 16, 64);
        let spec = DeviceSpec::gt8800();
        let plan = OutOfCoreFft::new(&spec, nx, ny, nz, 4).unwrap();
        let mut gpu = Gpu::new(spec);
        let mut rng = SplitMix64::new(42);
        let orig: Vec<Complex32> = (0..nx * ny * nz)
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect();
        let mut host = orig.clone();
        plan.execute(&mut gpu, &mut host, Direction::Forward)
            .unwrap();

        // Reference: the in-core six-step on a fresh device.
        let mut gpu2 = Gpu::new(DeviceSpec::gtx8800());
        let six = SixStepFft::new(&mut gpu2, nx, ny, nz);
        let (v, w) = six.alloc_buffers(&mut gpu2).unwrap();
        six.upload(&mut gpu2, v, &orig);
        six.execute(&mut gpu2, v, w, Direction::Forward);
        let want = six.download(&gpu2, v);
        for (i, (g, wv)) in host.iter().zip(&want).enumerate() {
            assert!((*g - *wv).abs() < 2e-2, "bin {i}: {g} vs {wv}");
        }
    }

    #[test]
    fn estimate_matches_table12_shape() {
        // Table 12 on the GT: total 1.32 s, 13.7 GFLOPS, transfer-dominated.
        let spec = DeviceSpec::gt8800();
        let plan = OutOfCoreFft::new(&spec, 512, 512, 512, 8).unwrap();
        let est = plan.estimate(&spec);
        let total = est.total_s();
        assert!((total - 1.32).abs() / 1.32 < 0.25, "total {total}");
        let transfers = est.s1_h2d_s + est.s1_d2h_s + est.s2_h2d_s + est.s2_d2h_s;
        assert!(transfers > 0.5 * total, "must be transfer-dominated");
        let g = est.gflops();
        assert!((g - 13.7).abs() / 13.7 < 0.3, "gflops {g}");
    }

    #[test]
    fn gtx_slower_than_gt_due_to_pcie() {
        // Table 12: the GTX (PCIe 1.1) total 1.75 s vs GT 1.32 s.
        let gt = DeviceSpec::gt8800();
        let gtx = DeviceSpec::gtx8800();
        let e_gt = OutOfCoreFft::new(&gt, 512, 512, 512, 8)
            .unwrap()
            .estimate(&gt);
        let e_gtx = OutOfCoreFft::new(&gtx, 512, 512, 512, 8)
            .unwrap()
            .estimate(&gtx);
        assert!(e_gtx.total_s() > 1.2 * e_gt.total_s());
    }

    #[test]
    fn overlap_extension_beats_serial() {
        // §4.4: async transfers should hide most of the PCIe time; the
        // pipelined 512³ estimate must be substantially faster while staying
        // bounded below by its longest leg.
        for spec in DeviceSpec::all_cards() {
            let plan = OutOfCoreFft::new(&spec, 512, 512, 512, 8).unwrap();
            let serial = plan.estimate(&spec);
            let overlap = plan.estimate_overlapped(&spec);
            assert!(
                overlap.total_s() < 0.75 * serial.total_s(),
                "{}: {} vs {}",
                spec.name,
                overlap.total_s(),
                serial.total_s()
            );
            let floor =
                (serial.s1_h2d_s.max(serial.s1_fft_s + serial.s1_twiddle_s)).max(serial.s1_d2h_s);
            assert!(overlap.total_s() > floor, "cannot beat the longest leg");
        }
    }

    #[test]
    fn bad_slab_count_rejected() {
        let spec = DeviceSpec::gt8800();
        // Not a divisor, then slabs thinner than the 16 planes an in-slab
        // six-step plan needs (which `execute` would trip over).
        for (nx, ny, nz, slabs) in [(64, 64, 64, 3), (32, 32, 16, 2), (16, 16, 32, 4)] {
            match OutOfCoreFft::new(&spec, nx, ny, nz, slabs) {
                Err(FftError::BadPlanConfig { param, value, .. }) => {
                    assert_eq!(param, "slabs");
                    assert_eq!(value, slabs);
                }
                Err(other) => panic!("expected BadPlanConfig, got {other:?}"),
                Ok(_) => panic!("expected BadPlanConfig, got a plan"),
            }
        }
        // An X the slab plan cannot run is no slab count's fault.
        assert!(matches!(
            OutOfCoreFft::new(&spec, 8, 16, 64, 4),
            Err(FftError::UnsupportedSize {
                axis: 'x',
                n: 8,
                ..
            })
        ));
        assert!(matches!(
            OutOfCoreFft::new(&spec, 64, 64, 64, 4)
                .unwrap()
                .with_streams(0),
            Err(FftError::BadPlanConfig {
                param: "streams",
                ..
            })
        ));
    }

    #[test]
    fn two_streams_beat_serial_wall_clock() {
        let (nx, ny, nz) = (16usize, 16, 64);
        let run = |streams: usize| {
            let spec = DeviceSpec::gts8800();
            let plan = OutOfCoreFft::new(&spec, nx, ny, nz, 4)
                .unwrap()
                .with_streams(streams)
                .unwrap();
            let mut gpu = Gpu::new(spec);
            let mut rng = SplitMix64::new(43);
            let mut host: Vec<Complex32> = (0..nx * ny * nz)
                .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
                .collect();
            let rep = plan
                .execute(&mut gpu, &mut host, Direction::Forward)
                .unwrap();
            (rep, host)
        };
        let (serial, out1) = run(1);
        let (piped, out2) = run(2);
        assert_eq!(serial.streams, 1);
        assert_eq!(piped.streams, 2);
        // Streams change the schedule, never the numbers.
        assert_eq!(out1, out2);
        // Serial wall-clock is the sum of the legs; two streams hide
        // transfer windows behind compute and finish strictly earlier.
        assert!((serial.wall_s - serial.total_s()).abs() < 1e-9 * serial.total_s());
        assert!(
            piped.wall_s < 0.95 * serial.wall_s,
            "2-stream wall {} vs serial {}",
            piped.wall_s,
            serial.wall_s
        );
        // But never better than the longest single engine's total work.
        let floor = (piped.s1_fft_s + piped.s1_twiddle_s + piped.s2_fft_s)
            .max(piped.s1_h2d_s + piped.s2_h2d_s)
            .max(piped.s1_d2h_s + piped.s2_d2h_s);
        assert!(piped.wall_s >= floor - 1e-12, "wall below engine floor");
    }
}
