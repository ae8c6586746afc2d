//! The conventional six-step 3-D FFT baseline (§3 of the paper).
//!
//! "Step 1. Compute 1-D FFTs for dimension X. Step 2. Transpose from (x,y,z)
//! to (z,x,y). Step 3. Compute 1-D FFTs for dimension Z. Step 4. Transpose
//! from (z,x,y) to (y,z,x). Step 5. Compute 1-D FFTs for dimension Y.
//! Step 6. Transpose from (y,z,x) to (x,y,z)."
//!
//! The FFT steps reuse the fine-grained shared-memory kernel (they are
//! contiguous batched transforms); the transposes use the tiled rotation
//! kernel, whose bandwidth collapses to the N-stream copy rate — the
//! paper's Table 6 shows exactly this, and it is why the five-step
//! algorithm wins by ~2x despite doing slightly more arithmetic.

use crate::kernel256::{batched_config, bind_twiddle_texture, replay_batched_fft, FineFftPlan};
use crate::report::RunReport;
use crate::transpose::{replay_rotate_zxy, rotate_config};
use fft_math::flops::nominal_flops_3d;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{AllocError, BufferId, DeviceSpec, Gpu, Launch, TextureId};

/// A planned six-step 3-D FFT. Operates on the natural row-major layout
/// (`x` fastest) with no packing.
pub struct SixStepFft {
    nx: usize,
    ny: usize,
    nz: usize,
    fine_x: FineFftPlan,
    fine_y: FineFftPlan,
    fine_z: FineFftPlan,
    launches: Vec<Launch>,
    tw: [[TextureId; 3]; 2], // [dir][axis]
}

impl SixStepFft {
    /// Plans an `nx x ny x nz` transform with dims inside the six-step
    /// envelope ([`crate::plan::Algorithm::check_shape`]).
    pub fn new(gpu: &mut Gpu, nx: usize, ny: usize, nz: usize) -> Self {
        let fine_x = crate::wisdom::plan(nx);
        let fine_y = crate::wisdom::plan(ny);
        let fine_z = crate::wisdom::plan(nz);
        let launches = Self::launch_list(gpu.spec(), [&fine_x, &fine_y, &fine_z]);
        let tw = [Direction::Forward, Direction::Inverse]
            .map(|d| [nx, ny, nz].map(|n| bind_twiddle_texture(gpu, n, d)));
        SixStepFft {
            nx,
            ny,
            nz,
            fine_x,
            fine_y,
            fine_z,
            launches,
            tw,
        }
    }

    /// The launches of a plan on `spec` whose X, Y and Z row FFTs run
    /// `fine`, in execution order: each axis's row FFT, then the rotation
    /// that brings the next axis to the front. Each moves the whole volume
    /// once each way.
    pub(crate) fn launch_list(spec: &DeviceSpec, fine: [&FineFftPlan; 3]) -> Vec<Launch> {
        let [x, y, z] = fine;
        let (nx, ny, nz) = (x.len(), y.len(), z.len());
        let vol = nx * ny * nz;
        let elems = vol as u64;
        [
            batched_config(spec, x, vol / nx, false, "fft_x"),
            rotate_config(spec, nx, ny, nz, "transpose_zxy"),
            batched_config(spec, z, vol / nz, false, "fft_z"),
            rotate_config(spec, nz, nx, ny, "transpose_yzx"),
            batched_config(spec, y, vol / ny, false, "fft_y"),
            rotate_config(spec, ny, nz, nx, "transpose_xyz"),
        ]
        .map(|cfg| Launch { cfg, elems })
        .to_vec()
    }

    /// The plan's launches, in execution order: what `execute` runs and
    /// [`crate::plan::Algorithm::estimate_steps`] prices.
    pub fn launches(&self) -> &[Launch] {
        &self.launches
    }

    /// Total complex elements.
    pub fn volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Allocates data + scratch buffers. Nothing stays allocated on failure.
    pub fn alloc_buffers(&self, gpu: &mut Gpu) -> Result<(BufferId, BufferId), AllocError> {
        crate::plan::alloc_pair(gpu, self.volume())
    }

    /// Uploads a natural-order volume.
    pub fn upload(&self, gpu: &mut Gpu, v: BufferId, host: &[Complex32]) {
        gpu.mem_mut().upload(v, 0, host);
    }

    /// Downloads the natural-order spectrum.
    pub fn download(&self, gpu: &Gpu, v: BufferId) -> Vec<Complex32> {
        let mut out = vec![Complex32::ZERO; self.volume()];
        gpu.mem().download(v, 0, &mut out);
        out
    }

    /// Executes all six steps; input and output live in `v` (natural order).
    pub fn execute(&self, gpu: &mut Gpu, v: BufferId, work: BufferId, dir: Direction) -> RunReport {
        let di = match dir {
            Direction::Forward => 0,
            Direction::Inverse => 1,
        };
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let vol = self.volume();
        let cfg = |i: usize| &self.launches[i].cfg;
        let mut steps = Vec::with_capacity(6);
        gpu.span_begin("six_step");
        // Each axis: its row FFTs (v -> work, rows contiguous), then the
        // rotation (work -> v) that brings the next axis to the front:
        // (x,y,z) -> (z,x,y) -> (y,z,x) -> (x,y,z).
        for (k, (fine, axis, dims, spans)) in [
            (&self.fine_x, 0, (nx, ny, nz), ("x_fft", "transpose_a")),
            (&self.fine_z, 2, (nz, nx, ny), ("z_fft", "transpose_b")),
            (&self.fine_y, 1, (ny, nz, nx), ("y_fft", "transpose_c")),
        ]
        .into_iter()
        .enumerate()
        {
            let (a, b, c) = dims;
            let tw = self.tw[di][axis];
            gpu.span_begin(spans.0);
            steps.push(replay_batched_fft(
                gpu,
                cfg(2 * k),
                fine,
                v,
                work,
                vol / a,
                dir,
                tw,
            ));
            gpu.span_end(spans.0);
            gpu.span_begin(spans.1);
            steps.push(replay_rotate_zxy(gpu, cfg(2 * k + 1), work, v, a, b, c));
            gpu.span_end(spans.1);
        }
        gpu.span_end("six_step");

        RunReport {
            algorithm: "six-step",
            dims: (nx, ny, nz),
            nominal_flops: nominal_flops_3d(nx, ny, nz),
            steps,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::dft::dft3d_oracle;
    use fft_math::error::rel_l2_error;
    use fft_math::rng::SplitMix64;
    use gpu_sim::DeviceSpec;

    fn random_volume(n: usize, seed: u64) -> Vec<Complex32> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect()
    }

    #[test]
    fn matches_3d_oracle() {
        let mut gpu = Gpu::new(DeviceSpec::gtx8800());
        let plan = SixStepFft::new(&mut gpu, 16, 16, 16);
        let (v, w) = plan.alloc_buffers(&mut gpu).unwrap();
        let host = random_volume(plan.volume(), 21);
        plan.upload(&mut gpu, v, &host);
        let rep = plan.execute(&mut gpu, v, w, Direction::Forward);
        // 16-wide rows cannot fully coalesce (see the five-step 16³ test).
        rep.assert_clean_with_floor(0.2);
        let got = plan.download(&gpu, v);
        let want = dft3d_oracle(&host, 16, 16, 16, Direction::Forward);
        assert!(rel_l2_error(&got, &want) < 1e-4);
    }

    #[test]
    fn agrees_with_five_step() {
        use crate::five_step::FiveStepFft;
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let host = random_volume(32 * 32 * 32, 22);

        let six = SixStepFft::new(&mut gpu, 32, 32, 32);
        let (v6, w6) = six.alloc_buffers(&mut gpu).unwrap();
        six.upload(&mut gpu, v6, &host);
        six.execute(&mut gpu, v6, w6, Direction::Forward);
        let a = six.download(&gpu, v6);

        let mut gpu2 = Gpu::new(DeviceSpec::gts8800());
        let five = FiveStepFft::new(&mut gpu2, 32, 32, 32);
        let (v5, w5) = five.alloc_buffers(&mut gpu2).unwrap();
        five.upload(&mut gpu2, v5, &host);
        five.execute(&mut gpu2, v5, w5, Direction::Forward);
        let b = five.download(&gpu2, v5);

        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!((*x - *y).abs() < 2e-2, "bin {i}: {x} vs {y}");
        }
    }

    #[test]
    fn roundtrip() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = SixStepFft::new(&mut gpu, 16, 32, 16);
        let (v, w) = plan.alloc_buffers(&mut gpu).unwrap();
        let host = random_volume(plan.volume(), 23);
        plan.upload(&mut gpu, v, &host);
        plan.execute(&mut gpu, v, w, Direction::Forward);
        plan.execute(&mut gpu, v, w, Direction::Inverse);
        let got = plan.download(&gpu, v);
        let n = plan.volume() as f32;
        for (g, h) in got.iter().zip(&host) {
            assert!((g.scale(1.0 / n) - *h).abs() < 1e-4);
        }
    }

    #[test]
    fn transposes_dominate_time() {
        // The architectural point of the paper: at 256³-class strides the
        // six-step's transpose steps cost more than its FFT steps.
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = SixStepFft::new(&mut gpu, 64, 64, 64);
        let (v, w) = plan.alloc_buffers(&mut gpu).unwrap();
        let rep = plan.execute(&mut gpu, v, w, Direction::Forward);
        assert_eq!(rep.steps.len(), 6);
        let fft_time = rep.time_of("fft_");
        let tr_time = rep.time_of("transpose");
        assert!(
            tr_time > fft_time,
            "transposes {tr_time} vs ffts {fft_time}"
        );
    }
}
