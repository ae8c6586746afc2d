//! Batched 1-D and 2-D GPU plan APIs.
//!
//! The paper's evaluation exercises the batched 1-D form directly (Table 8:
//! "65536 sets of 256-point 1-D FFTs"), and a 2-D form falls out of the same
//! kernels — the shapes a CUFFT-class library exposes. Both operate on the
//! natural contiguous layout.

use crate::kernel256::{batched_config, bind_twiddle_texture, run_batched_fft, FineFftPlan};
use crate::plan::FftError;
use crate::report::RunReport;
use crate::transpose::{run_transpose_2d, transpose_2d_config};
use crate::wisdom;
use fft_math::flops::nominal_flops_1d;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{AllocError, BufferId, DeviceSpec, Gpu, KernelReport, Launch, TextureId};

/// A planned batch of contiguous `n`-point 1-D FFTs on the device.
pub struct Fft1dBatchGpu {
    plan: FineFftPlan,
    tw: [TextureId; 2],
    n: usize,
}

impl Fft1dBatchGpu {
    /// The rows envelope: the lengths the fine-grained kernel transforms,
    /// powers of two in `4..=512`.
    ///
    /// # Errors
    /// [`FftError::BadPlanConfig`] naming `n` when it is outside.
    pub fn check_len(n: usize) -> Result<(), FftError> {
        if !n.is_power_of_two() || !(4..=512).contains(&n) {
            return Err(FftError::BadPlanConfig {
                param: "n",
                value: n,
                reason: "1-D batch length must be a power of two in 4..=512".to_string(),
            });
        }
        Ok(())
    }

    /// Plans transforms of length `n`.
    ///
    /// # Errors
    /// [`Fft1dBatchGpu::check_len`]'s, for a length outside the envelope.
    pub fn new(gpu: &mut Gpu, n: usize) -> Result<Self, FftError> {
        Self::check_len(n)?;
        let plan = wisdom::plan(n);
        let tw = [
            bind_twiddle_texture(gpu, n, Direction::Forward),
            bind_twiddle_texture(gpu, n, Direction::Inverse),
        ];
        Ok(Fft1dBatchGpu { plan, tw, n })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transforms `rows` rows stored back to back: row `r` at
    /// `[r*n, (r+1)*n)`. `src` may equal `dst` (in-place).
    pub fn execute(
        &self,
        gpu: &mut Gpu,
        src: BufferId,
        dst: BufferId,
        rows: usize,
        dir: Direction,
    ) -> KernelReport {
        let tw = match dir {
            Direction::Forward => self.tw[0],
            Direction::Inverse => self.tw[1],
        };
        let cfg = batched_config(gpu.spec(), &self.plan, rows, src == dst, "fft1d_batch");
        run_batched_fft(gpu, &cfg, &self.plan, src, dst, rows, dir, tw)
    }
}

/// A planned batch of 2-D `nx x ny` FFTs on the device.
///
/// Each plane transforms as: X rows (fine kernel) → per-plane transpose →
/// Y rows (fine kernel) → transpose back; both transposes use the padded
/// 16x16 tile kernel.
pub struct Fft2dGpu {
    fine_x: FineFftPlan,
    fine_y: FineFftPlan,
    tw: [[TextureId; 2]; 2], // [axis][dir]
    nx: usize,
    ny: usize,
}

impl Fft2dGpu {
    /// Plans `nx x ny` transforms (powers of two, multiples of 16 for the
    /// tiled transpose, each in 16..=512).
    pub fn new(gpu: &mut Gpu, nx: usize, ny: usize) -> Self {
        assert!(
            nx.is_multiple_of(16) && ny.is_multiple_of(16),
            "2-D dims must be multiples of 16"
        );
        let fine_x = wisdom::plan(nx);
        let fine_y = wisdom::plan(ny);
        let tw = [nx, ny].map(|n| {
            [
                bind_twiddle_texture(gpu, n, Direction::Forward),
                bind_twiddle_texture(gpu, n, Direction::Inverse),
            ]
        });
        Fft2dGpu {
            fine_x,
            fine_y,
            tw,
            nx,
            ny,
        }
    }

    /// Plane dimensions.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Elements per plane.
    pub fn plane(&self) -> usize {
        self.nx * self.ny
    }

    /// Allocates data + scratch buffers for a batch of `planes` planes.
    pub fn alloc_buffers(
        &self,
        gpu: &mut Gpu,
        planes: usize,
    ) -> Result<(BufferId, BufferId), AllocError> {
        let n = self.plane() * planes;
        Ok((gpu.mem_mut().alloc(n)?, gpu.mem_mut().alloc(n)?))
    }

    /// The launches of a batch of `planes` planes on `spec` whose X and Y
    /// row FFTs run `fine`, in execution order: X rows, transpose, Y rows,
    /// transpose back. Each moves every plane once each way.
    pub(crate) fn launch_list(
        spec: &DeviceSpec,
        fine: [&FineFftPlan; 2],
        planes: usize,
    ) -> [Launch; 4] {
        let [x, y] = fine;
        let (nx, ny) = (x.len(), y.len());
        let elems = (nx * ny * planes) as u64;
        [
            batched_config(spec, x, ny * planes, false, "fft2d_x"),
            transpose_2d_config(spec, nx, ny, "fft2d_t1"),
            batched_config(spec, y, nx * planes, false, "fft2d_y"),
            transpose_2d_config(spec, ny, nx, "fft2d_t2"),
        ]
        .map(|cfg| Launch { cfg, elems })
    }

    /// Transforms `planes` planes in `v` (natural order, x fastest), using
    /// `work` as scratch; results land back in `v`.
    pub fn execute(
        &self,
        gpu: &mut Gpu,
        v: BufferId,
        work: BufferId,
        planes: usize,
        dir: Direction,
    ) -> RunReport {
        let di = match dir {
            Direction::Forward => 0,
            Direction::Inverse => 1,
        };
        let (nx, ny) = (self.nx, self.ny);
        let [fft_x, t1, fft_y, t2] =
            Self::launch_list(gpu.spec(), [&self.fine_x, &self.fine_y], planes).map(|l| l.cfg);
        let steps = vec![
            run_batched_fft(
                gpu,
                &fft_x,
                &self.fine_x,
                v,
                work,
                ny * planes,
                dir,
                self.tw[0][di],
            ),
            run_transpose_2d(gpu, &t1, work, v, nx, ny, planes),
            run_batched_fft(
                gpu,
                &fft_y,
                &self.fine_y,
                v,
                work,
                nx * planes,
                dir,
                self.tw[1][di],
            ),
            run_transpose_2d(gpu, &t2, work, v, ny, nx, planes),
        ];
        RunReport {
            algorithm: "fft2d",
            dims: (nx, ny, planes),
            nominal_flops: planes as u64
                * (ny as u64 * nominal_flops_1d(nx) + nx as u64 * nominal_flops_1d(ny)),
            steps,
            trace: None,
        }
    }
}

/// CPU reference for a batch of 2-D transforms (tests and verification).
pub fn fft2d_reference(data: &mut [Complex32], nx: usize, ny: usize, dir: Direction) {
    use fft_math::fft1d::Fft1dPlan;
    assert_eq!(data.len() % (nx * ny), 0);
    let plan_x = Fft1dPlan::new(nx);
    let plan_y = Fft1dPlan::new(ny);
    let mut scratch = vec![Complex32::ZERO; nx.max(ny)];
    let mut col = vec![Complex32::ZERO; ny];
    for plane in data.chunks_mut(nx * ny) {
        for row in plane.chunks_mut(nx) {
            plan_x.execute(row, &mut scratch, dir);
        }
        for x in 0..nx {
            for (y, c) in col.iter_mut().enumerate() {
                *c = plane[x + nx * y];
            }
            plan_y.execute(&mut col, &mut scratch, dir);
            for (y, c) in col.iter().enumerate() {
                plane[x + nx * y] = *c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::error::rel_l2_error_f32;
    use fft_math::fft1d::fft_pow2;
    use gpu_sim::DeviceSpec;

    fn signal(len: usize) -> Vec<Complex32> {
        (0..len)
            .map(|i| Complex32::new((0.19 * i as f32).sin(), (0.41 * i as f32).cos()))
            .collect()
    }

    #[test]
    fn batched_1d_matches_reference() {
        let (n, rows) = (128usize, 6);
        let host = signal(n * rows);
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = Fft1dBatchGpu::new(&mut gpu, n).unwrap();
        let src = gpu.mem_mut().alloc(n * rows).unwrap();
        let dst = gpu.mem_mut().alloc(n * rows).unwrap();
        gpu.mem_mut().upload(src, 0, &host);
        let rep = plan.execute(&mut gpu, src, dst, rows, Direction::Forward);
        assert!(rep.stats.coalesced_fraction() > 0.999);
        let mut out = vec![Complex32::ZERO; n * rows];
        gpu.mem_mut().download(dst, 0, &mut out);
        for r in 0..rows {
            let mut want = host[r * n..(r + 1) * n].to_vec();
            fft_pow2(&mut want, Direction::Forward);
            assert!(rel_l2_error_f32(&out[r * n..(r + 1) * n], &want) < 1e-5);
        }
    }

    #[test]
    fn fft2d_matches_reference() {
        let (nx, ny, planes) = (32usize, 16, 3);
        let host = signal(nx * ny * planes);
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let plan = Fft2dGpu::new(&mut gpu, nx, ny);
        let (v, w) = plan.alloc_buffers(&mut gpu, planes).unwrap();
        gpu.mem_mut().upload(v, 0, &host);
        let rep = plan.execute(&mut gpu, v, w, planes, Direction::Forward);
        // Rows narrower than 64 points cannot fully coalesce the X pass.
        rep.assert_clean_with_floor(0.2);
        assert_eq!(rep.steps.len(), 4);
        let mut out = vec![Complex32::ZERO; host.len()];
        gpu.mem_mut().download(v, 0, &mut out);
        let mut want = host.clone();
        fft2d_reference(&mut want, nx, ny, Direction::Forward);
        assert!(rel_l2_error_f32(&out, &want) < 1e-5);
    }

    #[test]
    fn fft2d_roundtrip() {
        let (nx, ny, planes) = (16usize, 16, 2);
        let host = signal(nx * ny * planes);
        let mut gpu = Gpu::new(DeviceSpec::gtx8800());
        let plan = Fft2dGpu::new(&mut gpu, nx, ny);
        let (v, w) = plan.alloc_buffers(&mut gpu, planes).unwrap();
        gpu.mem_mut().upload(v, 0, &host);
        plan.execute(&mut gpu, v, w, planes, Direction::Forward);
        plan.execute(&mut gpu, v, w, planes, Direction::Inverse);
        let mut out = vec![Complex32::ZERO; host.len()];
        gpu.mem_mut().download(v, 0, &mut out);
        let s = 1.0 / (nx * ny) as f32;
        for (o, h) in out.iter().zip(&host) {
            assert!((o.scale(s) - *h).abs() < 1e-4);
        }
    }

    #[test]
    fn batched_1d_rejects_bad_lengths_typed() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        for bad in [0usize, 3, 48, 1024] {
            match Fft1dBatchGpu::new(&mut gpu, bad) {
                Err(FftError::BadPlanConfig { param, value, .. }) => {
                    assert_eq!(param, "n");
                    assert_eq!(value, bad);
                }
                other => panic!("n={bad}: expected BadPlanConfig, got {:?}", other.is_ok()),
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn fft2d_rejects_narrow_dims() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        Fft2dGpu::new(&mut gpu, 8, 32);
    }
}
