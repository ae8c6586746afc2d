//! The paper's contribution: the bandwidth-intensive five-step 3-D FFT.
//!
//! §3.1: "we propose a fast 3-D FFT algorithm for CUDA that only conducts
//! sequential memory access (thus avoiding stride accesses), while confining
//! the shared memory usage to be within the allotted size." Five kernels:
//!
//! 1. 16-point FFTs — first half of the Z-axis transform (coarse, registers),
//! 2. 16-point FFTs — second half for Z,
//! 3. as step 1 for Y,
//! 4. as step 2 for Y,
//! 5. full-length FFTs along X (fine-grained, shared memory).
//!
//! Every strided pass reads pattern D and writes pattern A or B — never the
//! catastrophic C/D x C/D combinations of Tables 3–4.

use crate::kernel16::{pass_config, replay_strided_pass};
use crate::kernel256::{batched_config, bind_twiddle_texture, replay_batched_fft, FineFftPlan};
use crate::plan::Algorithm;
use crate::report::RunReport;
use fft_math::flops::nominal_flops_3d;
use fft_math::layout::FiveStepPlanLayout;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::timing::KernelTiming;
use gpu_sim::{AllocError, BufferId, DeviceSpec, Gpu, Launch, TextureId};

/// The strided passes' step names, in launch order.
const STRIDED_STEPS: [&str; 4] = ["step1_z16", "step2_z16", "step3_y16", "step4_y16"];

/// A planned five-step 3-D FFT bound to one device.
///
/// Planning binds the X-axis twiddle textures and precomputes the fine-grained
/// stage/padding schedule; execution performs no host-side work beyond kernel
/// launches.
///
/// ```
/// use bifft::five_step::FiveStepFft;
/// use fft_math::{Complex32, Direction};
/// use gpu_sim::{DeviceSpec, Gpu};
///
/// let mut gpu = Gpu::new(DeviceSpec::gtx8800());
/// let plan = FiveStepFft::new(&mut gpu, 16, 16, 16);
/// let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
///
/// let mut volume = vec![Complex32::ZERO; plan.volume()];
/// volume[0] = Complex32::ONE; // impulse
/// plan.upload(&mut gpu, v, &volume);
/// let report = plan.execute(&mut gpu, v, work, Direction::Forward);
/// let spectrum = plan.download(&gpu, v);
///
/// assert!((spectrum[123] - Complex32::ONE).abs() < 1e-5);
/// assert_eq!(report.steps.len(), 5);
/// ```
pub struct FiveStepFft {
    layout: FiveStepPlanLayout,
    fine: FineFftPlan,
    launches: Vec<Launch>,
    tw_fwd: TextureId,
    tw_inv: TextureId,
}

impl FiveStepFft {
    /// Plans an `nx x ny x nz` transform with the default balanced splits.
    pub fn new(gpu: &mut Gpu, nx: usize, ny: usize, nz: usize) -> Self {
        Self::from_layout(gpu, FiveStepPlanLayout::new(nx, ny, nz))
    }

    /// Plans with an explicit layout (used for split-swapped inverse plans).
    pub fn from_layout(gpu: &mut Gpu, layout: FiveStepPlanLayout) -> Self {
        let fine = crate::wisdom::plan(layout.nx);
        let launches = Self::launch_list(gpu.spec(), &layout, &fine);
        let tw_fwd = bind_twiddle_texture(gpu, layout.nx, Direction::Forward);
        let tw_inv = bind_twiddle_texture(gpu, layout.nx, Direction::Inverse);
        FiveStepFft {
            layout,
            fine,
            launches,
            tw_fwd,
            tw_inv,
        }
    }

    /// The launches of a plan with `layout` on `spec`, in execution order:
    /// the four strided passes, then step 5 over `fine` in place. Each moves
    /// the whole volume once each way.
    pub(crate) fn launch_list(
        spec: &DeviceSpec,
        layout: &FiveStepPlanLayout,
        fine: &FineFftPlan,
    ) -> Vec<Launch> {
        let elems = layout.volume() as u64;
        let strided = layout.strided_passes();
        let step5 = batched_config(spec, fine, layout.ny * layout.nz, true, "step5_x");
        strided
            .iter()
            .zip(STRIDED_STEPS)
            .map(|(pass, name)| pass_config(spec, pass, name))
            .chain([step5])
            .map(|cfg| Launch { cfg, elems })
            .collect()
    }

    /// The plan's launches, in execution order: what `execute` runs and
    /// [`Algorithm::estimate_steps`] prices.
    pub fn launches(&self) -> &[Launch] {
        &self.launches
    }

    /// A plan that consumes this plan's *output* layout directly — chain a
    /// forward and an inverse transform on the card with no relayout (the
    /// on-card convolution pattern of §4.4).
    pub fn inverse_chained(&self, gpu: &mut Gpu) -> Self {
        let l = &self.layout;
        let layout = FiveStepPlanLayout::with_splits(
            l.nx,
            l.ny,
            l.nz,
            (l.y_split.1, l.y_split.0),
            (l.z_split.1, l.z_split.0),
        );
        Self::from_layout(gpu, layout)
    }

    /// The data layout (index mapping between natural voxels and the 5-D
    /// device layout).
    pub fn layout(&self) -> &FiveStepPlanLayout {
        &self.layout
    }

    /// Total complex elements.
    pub fn volume(&self) -> usize {
        self.layout.volume()
    }

    /// Allocates the data and work buffers; none stays allocated on failure.
    pub fn alloc_buffers(&self, gpu: &mut Gpu) -> Result<(BufferId, BufferId), AllocError> {
        crate::plan::alloc_pair(gpu, self.volume())
    }

    /// Packs a natural-order volume (`x` fastest, then `y`, then `z`) into
    /// the 5-D input layout. This is host-side work, done once per upload:
    /// X is contiguous in both orders, so each `nx`-point row is one copy.
    pub fn pack_input(&self, host: &[Complex32]) -> Vec<Complex32> {
        let l = &self.layout;
        assert_eq!(host.len(), l.volume(), "volume mismatch");
        let mut out = vec![Complex32::ZERO; host.len()];
        for (r, row) in host.chunks_exact(l.nx).enumerate() {
            let at = l.input_index(0, r % l.ny, r / l.ny);
            out[at..at + l.nx].copy_from_slice(row);
        }
        out
    }

    /// Unpacks a downloaded 5-D *output*-layout buffer into natural order.
    pub fn unpack_output(&self, packed: &[Complex32]) -> Vec<Complex32> {
        assert_eq!(packed.len(), self.volume(), "volume mismatch");
        self.unpack_rows(|at, row| row.copy_from_slice(&packed[at..at + row.len()]))
    }

    /// A natural-order spectrum, filled one `nx`-point row at a time: `read`
    /// copies the row whose first bin sits at 5-D output index `at`.
    fn unpack_rows(&self, mut read: impl FnMut(usize, &mut [Complex32])) -> Vec<Complex32> {
        let l = &self.layout;
        let mut out = vec![Complex32::ZERO; l.volume()];
        for (r, row) in out.chunks_exact_mut(l.nx).enumerate() {
            read(l.output_index(0, r % l.ny, r / l.ny), row);
        }
        out
    }

    /// Executes the five steps: `v` holds the input in the 5-D input layout
    /// and receives the spectrum in the 5-D output layout; `work` is
    /// scratch of the same size.
    pub fn execute(&self, gpu: &mut Gpu, v: BufferId, work: BufferId, dir: Direction) -> RunReport {
        let l = &self.layout;
        let spans = ["z_fft_pass1", "z_fft_pass2", "y_fft_pass1", "y_fft_pass2"];
        gpu.span_begin("five_step");
        let mut steps = Vec::with_capacity(5);
        let mut src = v;
        let mut dst = work;
        for ((pass, launch), span) in l.strided_passes().iter().zip(&self.launches).zip(spans) {
            gpu.span_begin(span);
            steps.push(replay_strided_pass(gpu, &launch.cfg, src, dst, pass, dir));
            gpu.span_end(span);
            std::mem::swap(&mut src, &mut dst);
        }
        debug_assert_eq!(src, v, "an even number of ping-pong passes returns to v");

        let tw = match dir {
            Direction::Forward => self.tw_fwd,
            Direction::Inverse => self.tw_inv,
        };
        let rows = l.ny * l.nz;
        let step5 = &self.launches[4].cfg;
        gpu.span_begin("x_fft_shared");
        steps.push(replay_batched_fft(
            gpu, step5, &self.fine, v, v, rows, dir, tw,
        ));
        gpu.span_end("x_fft_shared");
        gpu.span_end("five_step");

        RunReport {
            algorithm: "five-step",
            dims: (l.nx, l.ny, l.nz),
            nominal_flops: nominal_flops_3d(l.nx, l.ny, l.nz),
            steps,
            trace: None,
        }
    }

    /// Analytic per-step timing estimate at any shape in the five-step
    /// envelope, without functional execution: [`Algorithm::estimate_steps`]
    /// over the launches `execute` runs. Swept over every shape with axes
    /// in {16, 32, 64} on all four cards, each functional step equals it to
    /// 1e-9 except step 5 on a 16- or 32-point X axis: those rows coalesce
    /// below 1, so the functional step is slower.
    ///
    /// # Panics
    /// Panics outside the envelope ([`Algorithm::check_shape`]).
    pub fn estimate(
        spec: &DeviceSpec,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Vec<(&'static str, KernelTiming)> {
        Algorithm::FiveStep
            .estimate_steps(spec, nx, ny, nz)
            .expect("shape inside the five-step envelope")
    }

    /// Convenience: upload a natural-order host volume (packing included).
    pub fn upload(&self, gpu: &mut Gpu, v: BufferId, host: &[Complex32]) {
        let packed = self.pack_input(host);
        gpu.mem_mut().upload(v, 0, &packed);
    }

    /// Convenience: download the spectrum to natural order, each row
    /// straight from device memory.
    pub fn download(&self, gpu: &Gpu, v: BufferId) -> Vec<Complex32> {
        self.unpack_rows(|at, row| gpu.mem().download(v, at, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::dft::dft3d_oracle;
    use fft_math::error::{fft_tolerance, rel_l2_error, rel_l2_error_f32};
    use fft_math::rng::SplitMix64;
    use gpu_sim::DeviceSpec;

    fn random_volume(n: usize, seed: u64) -> Vec<Complex32> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect()
    }

    #[test]
    fn matches_3d_oracle_16_cubed() {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let plan = FiveStepFft::new(&mut gpu, 16, 16, 16);
        let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
        let host = random_volume(plan.volume(), 1);
        plan.upload(&mut gpu, v, &host);
        let rep = plan.execute(&mut gpu, v, work, Direction::Forward);
        // 16-wide rows span a quarter of a half-warp's coalescing window, so
        // step 5 cannot fully coalesce below n = 64; race-freedom still holds.
        rep.assert_clean_with_floor(0.2);
        let got = plan.download(&gpu, v);
        let want = dft3d_oracle(&host, 16, 16, 16, Direction::Forward);
        let err = rel_l2_error(&got, &want);
        assert!(err < fft_tolerance(plan.volume()) * 10.0, "rel err {err}");
    }

    #[test]
    fn matches_oracle_rectangular() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = FiveStepFft::new(&mut gpu, 8, 16, 4);
        let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
        let host = random_volume(plan.volume(), 2);
        plan.upload(&mut gpu, v, &host);
        plan.execute(&mut gpu, v, work, Direction::Forward);
        let got = plan.download(&gpu, v);
        let want = dft3d_oracle(&host, 8, 16, 4, Direction::Forward);
        assert!(rel_l2_error(&got, &want) < 1e-4);
    }

    #[test]
    fn forward_inverse_roundtrip_32() {
        let mut gpu = Gpu::new(DeviceSpec::gtx8800());
        let plan = FiveStepFft::new(&mut gpu, 32, 32, 32);
        let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
        let host = random_volume(plan.volume(), 3);
        plan.upload(&mut gpu, v, &host);
        plan.execute(&mut gpu, v, work, Direction::Forward);

        // Chain the inverse on the card: its input layout IS our output
        // layout, so no repacking happens between the transforms.
        let inv = plan.inverse_chained(&mut gpu);
        inv.execute(&mut gpu, v, work, Direction::Inverse);

        // inv's output layout is plan's input layout.
        let mut packed = vec![Complex32::ZERO; plan.volume()];
        gpu.mem().download(v, 0, &mut packed);
        let n = plan.volume() as f32;
        let l = plan.layout();
        for z in (0..32).step_by(7) {
            for y in (0..32).step_by(5) {
                for x in 0..32 {
                    let got = packed[l.input_index(x, y, z)].scale(1.0 / n);
                    let want = host[x + 32 * (y + 32 * z)];
                    assert!((got - want).abs() < 1e-4, "({x},{y},{z}): {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum_64() {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let plan = FiveStepFft::new(&mut gpu, 64, 64, 64);
        let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
        let mut host = vec![Complex32::ZERO; plan.volume()];
        host[0] = Complex32::ONE;
        plan.upload(&mut gpu, v, &host);
        let rep = plan.execute(&mut gpu, v, work, Direction::Forward);
        let got = plan.download(&gpu, v);
        for (i, z) in got.iter().enumerate().step_by(997) {
            assert!((*z - Complex32::ONE).abs() < 1e-4, "bin {i}: {z}");
        }
        // All five steps fully coalesced, no shared races.
        rep.assert_clean();
        for s in &rep.steps {
            assert!(
                s.stats.coalesced_fraction() > 0.999,
                "{}: {:?}",
                s.name,
                s.stats
            );
        }
    }

    #[test]
    fn plane_wave_lands_in_single_bin() {
        let (nx, ny, nz) = (16usize, 16, 16);
        let (kx, ky, kz) = (3usize, 5, 9);
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = FiveStepFft::new(&mut gpu, nx, ny, nz);
        let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
        let mut host = Vec::with_capacity(plan.volume());
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let ph = 2.0
                        * std::f32::consts::PI
                        * (kx as f32 * x as f32 / nx as f32
                            + ky as f32 * y as f32 / ny as f32
                            + kz as f32 * z as f32 / nz as f32);
                    host.push(Complex32::cis(ph));
                }
            }
        }
        plan.upload(&mut gpu, v, &host);
        plan.execute(&mut gpu, v, work, Direction::Forward);
        let got = plan.download(&gpu, v);
        let total = plan.volume() as f32;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let val = got[x + nx * (y + ny * z)];
                    if (x, y, z) == (kx, ky, kz) {
                        assert!((val.abs() - total).abs() < 0.1 * total, "peak wrong: {val}");
                    } else {
                        assert!(val.abs() < 0.01 * total, "leakage at ({x},{y},{z}): {val}");
                    }
                }
            }
        }
    }

    #[test]
    fn five_steps_reported() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = FiveStepFft::new(&mut gpu, 16, 16, 16);
        let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
        let rep = plan.execute(&mut gpu, v, work, Direction::Forward);
        assert_eq!(rep.steps.len(), 5);
        assert_eq!(rep.steps[0].name, "step1_z16");
        assert_eq!(rep.steps[4].name, "step5_x");
        assert!(rep.total_time_s() > 0.0);
        assert!(rep.gflops() > 0.0);
        assert!(!rep.step_table().is_empty());
    }

    #[test]
    fn pack_unpack_are_inverse_permutations() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = FiveStepFft::new(&mut gpu, 8, 16, 4);
        let host = random_volume(plan.volume(), 7);
        let packed = plan.pack_input(&host);
        // pack is a bijection: sum of elements preserved.
        let s1: Complex32 = host.iter().copied().sum();
        let s2: Complex32 = packed.iter().copied().sum();
        assert!((s1 - s2).abs() < 1e-3);
        // For equal splits, output layout == input layout, so unpack(pack)
        // is identity.
        let mut gpu2 = Gpu::new(DeviceSpec::gt8800());
        let square = FiveStepFft::new(&mut gpu2, 8, 16, 16);
        let host2 = random_volume(square.volume(), 8);
        let roundtrip = square.unpack_output(&square.pack_input(&host2));
        assert_eq!(roundtrip, host2);
    }

    #[test]
    fn linearity_of_transform() {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let plan = FiveStepFft::new(&mut gpu, 16, 16, 16);
        let (v, work) = plan.alloc_buffers(&mut gpu).unwrap();
        let a = random_volume(plan.volume(), 10);
        let b = random_volume(plan.volume(), 11);
        let run = |gpu: &mut Gpu, plan: &FiveStepFft, data: &[Complex32]| {
            plan.upload(gpu, v, data);
            plan.execute(gpu, v, work, Direction::Forward);
            plan.download(gpu, v)
        };
        let fa = run(&mut gpu, &plan, &a);
        let fb = run(&mut gpu, &plan, &b);
        let sum: Vec<Complex32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fs = run(&mut gpu, &plan, &sum);
        let combined: Vec<Complex32> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(rel_l2_error_f32(&fs, &combined) < 1e-4);
    }
}
