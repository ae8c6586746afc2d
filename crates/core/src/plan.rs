//! The unified planning facade: one natural-layout API over all three GPU
//! algorithms.
//!
//! Downstream code (the applications, the examples) mostly wants "a 3-D FFT
//! on this device" without caring which algorithm runs or how the data is
//! laid out on the card. [`Fft3d`] provides that: natural x-fastest volumes
//! in, natural spectra out, with the algorithm selectable (defaulting to the
//! paper's five-step kernel) and the layout packing handled internally.
//!
//! Plans are built through [`Fft3d::builder`], every recoverable condition
//! comes back as a typed [`FftError`], and device buffers are released by
//! RAII: dropping a plan queues its buffers on the allocator's deferred-free
//! queue, so a forgotten plan cannot leak device memory.

use crate::cufft_like::CufftLikeFft;
use crate::five_step::FiveStepFft;
use crate::report::RunReport;
use crate::six_step::SixStepFft;
use crate::wisdom;
use fft_math::layout::FiveStepPlanLayout;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::timing::{estimate_pass, KernelTiming};
use gpu_sim::{AllocError, BufferId, DeviceSpec, FreeQueue, Gpu, Launch};

/// Which 3-D FFT algorithm a plan uses. Declaration order is the order
/// serving keys (batch keys, plan caches) sort in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Algorithm {
    /// The paper's bandwidth-intensive five-step kernel (the default).
    #[default]
    FiveStep,
    /// The conventional six-step transpose baseline.
    SixStep,
    /// The CUFFT-1.1-style baseline.
    CufftLike,
    /// The §3.3 out-of-core slab pipeline for volumes larger than device
    /// memory (see [`crate::out_of_core::OutOfCoreFft`]).
    OutOfCore,
    /// The slab-sharded multi-GPU pipeline
    /// (see [`crate::multi_gpu::MultiGpuFft3d`]).
    MultiGpu,
}

impl Algorithm {
    /// Every algorithm, in report order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::FiveStep,
        Algorithm::SixStep,
        Algorithm::CufftLike,
        Algorithm::OutOfCore,
        Algorithm::MultiGpu,
    ];

    /// The three single-card in-core algorithms [`Fft3d`] can plan directly.
    pub const IN_CORE: [Algorithm; 3] = [
        Algorithm::FiveStep,
        Algorithm::SixStep,
        Algorithm::CufftLike,
    ];

    /// The label used in reports and accepted by the CLI (`"five-step"`,
    /// `"six-step"`, `"cufft-like"`, `"out-of-core"`, `"multi-gpu"`).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::FiveStep => "five-step",
            Algorithm::SixStep => "six-step",
            Algorithm::CufftLike => "cufft-like",
            Algorithm::OutOfCore => "out-of-core",
            Algorithm::MultiGpu => "multi-gpu",
        }
    }

    /// The shape envelope of this algorithm's single-card plan, asked by
    /// every entry point: each axis a power of two in `16..=512`, and for
    /// the five-step kernel Y and Z at most 256 (each splits into two
    /// 16-point register passes, §3.1).
    ///
    /// # Errors
    /// [`FftError::UnsupportedSize`] for the first axis outside it, and
    /// [`FftError::UnsupportedAlgorithm`] for the out-of-core / multi-GPU
    /// pipelines, which have their own entry points.
    pub fn check_shape(self, nx: usize, ny: usize, nz: usize) -> Result<(), FftError> {
        let yz_max = match self {
            Algorithm::FiveStep => 256,
            Algorithm::SixStep | Algorithm::CufftLike => 512,
            Algorithm::OutOfCore => {
                return Err(FftError::UnsupportedAlgorithm {
                    algorithm: self,
                    reason: "use OutOfCoreFft::new for volumes larger than device memory",
                })
            }
            Algorithm::MultiGpu => {
                return Err(FftError::UnsupportedAlgorithm {
                    algorithm: self,
                    reason: "use MultiGpuFft3d::new to shard across several cards",
                })
            }
        };
        for (axis, n, max) in [('x', nx, 512), ('y', ny, yz_max), ('z', nz, yz_max)] {
            if !n.is_power_of_two() || !(16..=max).contains(&n) {
                return Err(FftError::UnsupportedSize { axis, n, max });
            }
        }
        Ok(())
    }

    /// The launch list of this algorithm's single-card plan of an
    /// `nx x ny x nz` volume on `spec`: the list [`Fft3d::launches`] holds,
    /// built from the same configuration functions and wisdom-cached fine
    /// plans.
    ///
    /// # Errors
    /// [`Algorithm::check_shape`]'s, for a shape outside the envelope.
    pub fn launches(
        self,
        spec: &DeviceSpec,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Result<Vec<Launch>, FftError> {
        self.check_shape(nx, ny, nz)?;
        let fine = wisdom::plan_arc;
        Ok(match self {
            Algorithm::FiveStep => {
                FiveStepFft::launch_list(spec, &FiveStepPlanLayout::new(nx, ny, nz), &fine(nx))
            }
            Algorithm::SixStep => SixStepFft::launch_list(spec, [&fine(nx), &fine(ny), &fine(nz)]),
            Algorithm::CufftLike => CufftLikeFft::launch_list(spec, nx, ny, nz),
            Algorithm::OutOfCore | Algorithm::MultiGpu => unreachable!("check_shape refused it"),
        })
    }

    /// Analytic per-kernel estimate for the in-core algorithms: the
    /// roofline of each entry of [`Algorithm::launches`], without
    /// functional execution. (The out-of-core and multi-GPU pipelines'
    /// estimates live on their own types and are not per-kernel.)
    ///
    /// # Errors
    /// [`Algorithm::check_shape`]'s, for a shape outside the envelope.
    pub fn estimate_steps(
        self,
        spec: &DeviceSpec,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Result<Vec<(&'static str, KernelTiming)>, FftError> {
        let launches = self.launches(spec, nx, ny, nz)?;
        Ok(launches
            .iter()
            .map(|l| (l.cfg.name, estimate_pass(spec, &l.cfg, l.elems)))
            .collect())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parses a CLI-style algorithm name; hyphens/underscores are
    /// interchangeable, `"cufft"` abbreviates `"cufft-like"`, and the
    /// paper's own names (`"bandwidth-intensive"`, `"conventional"`) are
    /// accepted as aliases.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "five-step" | "fivestep" | "5-step" | "five" | "bandwidth-intensive" => {
                Ok(Algorithm::FiveStep)
            }
            "six-step" | "sixstep" | "6-step" | "six" | "conventional" => Ok(Algorithm::SixStep),
            "cufft-like" | "cufftlike" | "cufft" => Ok(Algorithm::CufftLike),
            "out-of-core" | "outofcore" | "ooc" => Ok(Algorithm::OutOfCore),
            "multi-gpu" | "multigpu" | "mgpu" => Ok(Algorithm::MultiGpu),
            other => Err(format!(
                "unknown algorithm '{other}' (expected five-step, six-step, cufft-like, \
                 out-of-core or multi-gpu)"
            )),
        }
    }
}

/// Typed error for every recoverable planning/transform condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FftError {
    /// The device buffers do not fit on the card.
    Alloc(AllocError),
    /// The host slice length does not match the planned volume.
    VolumeMismatch {
        /// Elements the plan expects (`nx * ny * nz`).
        expected: usize,
        /// Elements the caller supplied.
        got: usize,
    },
    /// A dimension is outside the algorithm's shape envelope
    /// ([`Algorithm::check_shape`]).
    UnsupportedSize {
        /// Which axis (`'x'`, `'y'` or `'z'`).
        axis: char,
        /// The offending length.
        n: usize,
        /// The largest length the axis accepts.
        max: usize,
    },
    /// A multi-GPU shard count that doesn't divide the volume.
    BadShardCount {
        /// Cards requested.
        n_gpus: usize,
        /// Why the count is unusable.
        reason: &'static str,
    },
    /// The algorithm cannot be planned through this entry point.
    UnsupportedAlgorithm {
        /// The requested algorithm.
        algorithm: Algorithm,
        /// What to use instead.
        reason: &'static str,
    },
    /// A plan parameter (slab count, stream count, ...) is out of range.
    BadPlanConfig {
        /// The parameter's name as the builder API spells it.
        param: &'static str,
        /// The rejected value.
        value: usize,
        /// Why it is unusable.
        reason: String,
    },
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::Alloc(e) => write!(f, "{e}"),
            FftError::VolumeMismatch { expected, got } => write!(
                f,
                "volume mismatch: plan covers {expected} elements, host slice has {got}"
            ),
            FftError::UnsupportedSize { axis, n, max } => write!(
                f,
                "unsupported {axis}-dimension {n}: must be a power of two in 16..={max}"
            ),
            FftError::BadShardCount { n_gpus, reason } => {
                write!(f, "cannot shard across {n_gpus} GPUs: {reason}")
            }
            FftError::UnsupportedAlgorithm { algorithm, reason } => {
                write!(f, "cannot plan '{}' here: {reason}", algorithm.name())
            }
            FftError::BadPlanConfig {
                param,
                value,
                reason,
            } => {
                write!(f, "bad plan parameter {param} = {value}: {reason}")
            }
        }
    }
}

impl std::error::Error for FftError {}

impl From<AllocError> for FftError {
    fn from(e: AllocError) -> Self {
        FftError::Alloc(e)
    }
}

/// RAII ownership of a plan's device buffers: on drop, the ids are queued on
/// the arena's deferred-free queue (see [`gpu_sim::FreeQueue`]).
pub(crate) struct BufferGuard {
    ids: Vec<BufferId>,
    queue: FreeQueue,
}

impl BufferGuard {
    /// Owns `ids`, buffers of `gpu`'s arena.
    pub(crate) fn new(gpu: &Gpu, ids: Vec<BufferId>) -> Self {
        BufferGuard {
            ids,
            queue: gpu.mem().free_queue(),
        }
    }
}

impl Drop for BufferGuard {
    fn drop(&mut self) {
        self.queue.borrow_mut().extend(self.ids.drain(..));
    }
}

/// Allocates an in-core plan's data and work buffers of `elems` elements
/// each; when `work` does not fit, `v` is freed before the error returns.
pub(crate) fn alloc_pair(gpu: &mut Gpu, elems: usize) -> Result<(BufferId, BufferId), AllocError> {
    let v = gpu.mem_mut().alloc(elems)?;
    let work = gpu
        .mem_mut()
        .alloc(elems)
        .inspect_err(|_| gpu.mem_mut().free(v))?;
    Ok((v, work))
}

enum Inner {
    Five(FiveStepFft),
    Six(SixStepFft),
    Cufft(CufftLikeFft),
}

/// A planned 3-D FFT with device buffers attached. Built with
/// [`Fft3d::builder`]; buffers are freed when the plan drops.
pub struct Fft3d {
    inner: Inner,
    v: BufferId,
    work: BufferId,
    dims: (usize, usize, usize),
    /// Held only for its `Drop`, which frees `v` and `work`. A cufft-like
    /// `inner` frees its spill area the same way when it drops with them.
    _guard: BufferGuard,
}

/// Builder for [`Fft3d`] (see [`Fft3d::builder`]).
#[derive(Clone, Copy, Debug)]
pub struct Fft3dBuilder {
    nx: usize,
    ny: usize,
    nz: usize,
    algorithm: Algorithm,
    checked: bool,
}

impl Fft3dBuilder {
    /// Selects the algorithm (default: the paper's five-step kernel).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Turns on the cuda-memcheck-style validation layer
    /// ([`gpu_sim::CheckReport`]) for the GPU the plan is built on. The
    /// checker shadows every allocation from this point on and replays the
    /// stream timelines for unordered-overlap hazards; collect the findings
    /// with [`gpu_sim::Gpu::check_report`] after the transform. Enabling is
    /// sticky on the device and idempotent; `checked(false)` (the default)
    /// leaves an already-enabled checker running.
    pub fn checked(mut self, on: bool) -> Self {
        self.checked = on;
        self
    }

    /// Validates the request, plans the transform and allocates its device
    /// buffers.
    ///
    /// # Errors
    /// [`Algorithm::check_shape`]'s for a shape outside the envelope or
    /// the out-of-core / multi-GPU pipelines, and [`FftError::Alloc`] when
    /// the volume does not fit on the card — at which point
    /// [`crate::out_of_core::OutOfCoreFft`] is the tool.
    pub fn build(self, gpu: &mut Gpu) -> Result<Fft3d, FftError> {
        if self.checked {
            // Before any allocation, so the plan's own buffers are shadowed
            // from birth (fresh device memory counts as uninitialised).
            gpu.check_enable();
        }
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        self.algorithm.check_shape(nx, ny, nz)?;
        let inner = match self.algorithm {
            Algorithm::FiveStep => Inner::Five(FiveStepFft::new(gpu, nx, ny, nz)),
            Algorithm::SixStep => Inner::Six(SixStepFft::new(gpu, nx, ny, nz)),
            Algorithm::CufftLike => Inner::Cufft(CufftLikeFft::new(gpu, nx, ny, nz)),
            Algorithm::OutOfCore | Algorithm::MultiGpu => unreachable!("check_shape refused it"),
        };
        let (v, work) = match &inner {
            Inner::Five(p) => p.alloc_buffers(gpu),
            Inner::Six(p) => p.alloc_buffers(gpu),
            Inner::Cufft(p) => p.alloc_buffers(gpu),
        }?;
        Ok(Fft3d {
            inner,
            v,
            work,
            dims: (nx, ny, nz),
            _guard: BufferGuard::new(gpu, vec![v, work]),
        })
    }
}

impl Fft3d {
    /// Starts building an `nx x ny x nz` plan:
    /// `Fft3d::builder(nx, ny, nz).algorithm(a).build(&mut gpu)?`.
    pub fn builder(nx: usize, ny: usize, nz: usize) -> Fft3dBuilder {
        Fft3dBuilder {
            nx,
            ny,
            nz,
            algorithm: Algorithm::default(),
            checked: false,
        }
    }

    /// The plan's device buffers `(data, work)` — mainly for diagnosing
    /// checker reports, which cite buffers by id.
    pub fn buffers(&self) -> (BufferId, BufferId) {
        (self.v, self.work)
    }

    /// The algorithm behind this plan.
    pub fn algorithm(&self) -> Algorithm {
        match self.inner {
            Inner::Five(_) => Algorithm::FiveStep,
            Inner::Six(_) => Algorithm::SixStep,
            Inner::Cufft(_) => Algorithm::CufftLike,
        }
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// The plan's launches, in execution order: what
    /// [`Fft3d::transform`] runs and [`Algorithm::estimate_steps`] prices.
    pub fn launches(&self) -> &[Launch] {
        match &self.inner {
            Inner::Five(p) => p.launches(),
            Inner::Six(p) => p.launches(),
            Inner::Cufft(p) => p.launches(),
        }
    }

    /// Volume in elements.
    pub fn volume(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Transforms a natural-order host volume, returning the natural-order
    /// result and the per-kernel report. Inverse transforms are left
    /// unnormalised (CUFFT/FFTW convention).
    ///
    /// # Errors
    /// [`FftError::VolumeMismatch`] when `host.len()` is not the planned
    /// volume.
    pub fn transform(
        &self,
        gpu: &mut Gpu,
        host: &[Complex32],
        dir: Direction,
    ) -> Result<(Vec<Complex32>, RunReport), FftError> {
        if host.len() != self.volume() {
            return Err(FftError::VolumeMismatch {
                expected: self.volume(),
                got: host.len(),
            });
        }
        Ok(match &self.inner {
            Inner::Five(p) => {
                // upload packs the natural order into the 5-D input layout;
                // download unpacks the 5-D output layout — both directions
                // of the transform use the same digit bookkeeping.
                p.upload(gpu, self.v, host);
                let rep = p.execute(gpu, self.v, self.work, dir);
                (p.download(gpu, self.v), rep)
            }
            Inner::Six(p) => {
                p.upload(gpu, self.v, host);
                let rep = p.execute(gpu, self.v, self.work, dir);
                (p.download(gpu, self.v), rep)
            }
            Inner::Cufft(p) => {
                gpu.mem_mut().upload(self.v, 0, host);
                let rep = p.execute(gpu, self.v, self.work, dir);
                let mut out = vec![Complex32::ZERO; self.volume()];
                gpu.mem_mut().download(self.v, 0, &mut out);
                (out, rep)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::error::rel_l2_error_f32;
    use fft_math::rng::SplitMix64;
    use gpu_sim::DeviceSpec;

    fn volume(n: usize, seed: u64) -> Vec<Complex32> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect()
    }

    #[test]
    fn all_algorithms_agree_through_the_facade() {
        let n = 16usize;
        let host = volume(n * n * n, 600);
        let mut results = Vec::new();
        for algo in Algorithm::IN_CORE {
            let mut gpu = Gpu::new(DeviceSpec::gts8800());
            let plan = Fft3d::builder(n, n, n)
                .algorithm(algo)
                .build(&mut gpu)
                .unwrap();
            assert_eq!(plan.algorithm(), algo);
            let (out, rep) = plan.transform(&mut gpu, &host, Direction::Forward).unwrap();
            assert!(rep.total_time_s() > 0.0);
            results.push(out);
        }
        for other in &results[1..] {
            assert!(rel_l2_error_f32(other, &results[0]) < 1e-5);
        }
    }

    #[test]
    fn default_algorithm_is_the_papers() {
        assert_eq!(Algorithm::default(), Algorithm::FiveStep);
    }

    #[test]
    fn algorithm_names_parse_back() {
        for algo in Algorithm::ALL {
            assert_eq!(algo.name().parse::<Algorithm>().unwrap(), algo);
        }
        assert_eq!(
            "five_step".parse::<Algorithm>().unwrap(),
            Algorithm::FiveStep
        );
        assert_eq!("CUFFT".parse::<Algorithm>().unwrap(), Algorithm::CufftLike);
        assert_eq!(
            "bandwidth-intensive".parse::<Algorithm>().unwrap(),
            Algorithm::FiveStep
        );
        assert_eq!("ooc".parse::<Algorithm>().unwrap(), Algorithm::OutOfCore);
        assert_eq!("MGPU".parse::<Algorithm>().unwrap(), Algorithm::MultiGpu);
        assert!("seven-step".parse::<Algorithm>().is_err());
    }

    #[test]
    fn estimates_dispatch_per_algorithm() {
        let spec = DeviceSpec::gt8800();
        for algo in Algorithm::IN_CORE {
            let steps = algo.estimate_steps(&spec, 64, 64, 64).unwrap();
            assert!(!steps.is_empty());
            assert!(steps.iter().all(|(_, t)| t.time_s > 0.0));
        }
        assert!(Algorithm::OutOfCore
            .estimate_steps(&spec, 64, 64, 64)
            .is_err());
        assert!(Algorithm::MultiGpu
            .estimate_steps(&spec, 64, 64, 64)
            .is_err());
        // The five-step estimator refuses what its builder refuses.
        assert_eq!(
            Algorithm::FiveStep.estimate_steps(&spec, 16, 512, 16).err(),
            Some(FftError::UnsupportedSize {
                axis: 'y',
                n: 512,
                max: 256
            })
        );
    }

    #[test]
    fn dropping_plan_frees_buffers() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let before = gpu.mem().used_bytes();
        let plan = Fft3d::builder(32, 32, 32).build(&mut gpu).unwrap();
        let held = gpu.mem().used_bytes();
        assert!(held > before);
        drop(plan);
        assert_eq!(gpu.mem().used_bytes(), before);
        // The guard queued the buffers: they no longer count as used and the
        // next allocation can take the whole card again.
        assert_eq!(gpu.mem().used_bytes(), before);
        let half_card = (gpu.mem().capacity_bytes() / 8 - before / 8) as usize / 2;
        let big = gpu.mem_mut().alloc(half_card);
        assert!(big.is_ok(), "queued buffers were physically reclaimed");
    }

    #[test]
    fn oversized_plan_reports_alloc_error() {
        // A cut-down card (1 MiB) makes the capacity failure cheap to hit.
        let mut spec = DeviceSpec::gts8800();
        spec.memory_bytes = 1 << 20;
        let mut gpu = Gpu::new(spec);
        let r = Fft3d::builder(64, 64, 64)
            .algorithm(Algorithm::SixStep)
            .build(&mut gpu);
        assert!(
            matches!(r, Err(FftError::Alloc(_))),
            "two 2 MiB buffers cannot fit in 1 MiB"
        );
    }

    #[test]
    fn unsupported_conditions_are_typed_errors_not_panics() {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        assert_eq!(
            Fft3d::builder(8, 16, 16).build(&mut gpu).err(),
            Some(FftError::UnsupportedSize {
                axis: 'x',
                n: 8,
                max: 512
            })
        );
        assert_eq!(
            Fft3d::builder(16, 24, 16).build(&mut gpu).err(),
            Some(FftError::UnsupportedSize {
                axis: 'y',
                n: 24,
                max: 256
            })
        );
        assert!(matches!(
            Fft3d::builder(16, 16, 16)
                .algorithm(Algorithm::OutOfCore)
                .build(&mut gpu),
            Err(FftError::UnsupportedAlgorithm { .. })
        ));
        let plan = Fft3d::builder(16, 16, 16).build(&mut gpu).unwrap();
        let short = vec![Complex32::ZERO; 7];
        assert_eq!(
            plan.transform(&mut gpu, &short, Direction::Forward).err(),
            Some(FftError::VolumeMismatch {
                expected: 4096,
                got: 7
            })
        );
        // Errors display something actionable.
        let msg = format!(
            "{}",
            FftError::UnsupportedSize {
                axis: 'z',
                n: 7,
                max: 512
            }
        );
        assert!(msg.contains("power of two"));
    }

    #[test]
    fn forward_inverse_roundtrip_through_facade() {
        let n = 16usize;
        let host = volume(n * n * n, 601);
        let mut gpu = Gpu::new(DeviceSpec::gtx8800());
        let plan = Fft3d::builder(n, n, n)
            .algorithm(Algorithm::SixStep)
            .build(&mut gpu)
            .unwrap();
        let (spec, _) = plan.transform(&mut gpu, &host, Direction::Forward).unwrap();
        let (back, _) = plan.transform(&mut gpu, &spec, Direction::Inverse).unwrap();
        let s = 1.0 / plan.volume() as f32;
        for (b, h) in back.iter().zip(&host) {
            assert!((b.scale(s) - *h).abs() < 1e-4);
        }
    }
}
