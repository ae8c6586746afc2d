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
//!
//! The plan owns the multirow kernels' spill area, so a transform's buffers
//! are the same every time and all five launches go through
//! [`Gpu::launch_replay`]: the first transform of a shape is simulated, and
//! later ones run native loops and reuse its counters.

use crate::plan::BufferGuard;
use crate::report::RunReport;
use fft_math::fft1d::Fft1dPlan;
use fft_math::flops::{nominal_flops_1d, nominal_flops_3d};
use fft_math::lanes::{
    lanes_to_rows, lanes_to_side_by_side, rows_to_lanes, side_by_side_to_lanes, C32x8, LANES,
};
use fft_math::layout::AccessPattern;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{
    AllocError, BufferId, DeviceMemory, DeviceSpec, Gpu, KernelClass, KernelReport,
    KernelResources, Launch, LaunchConfig,
};

/// The two legacy 1-D passes' block shape.
const RES_1D: KernelResources = KernelResources {
    threads_per_block: 64,
    regs_per_thread: 32,
    shared_bytes_per_block: 4 * 1024,
};

/// The multirow kernels' block shape: >512 data registers round to a
/// 1024-register allocation, so 8-thread blocks are the only launchable
/// shape (§3.1).
const RES_MULTIROW: KernelResources = KernelResources {
    threads_per_block: 8,
    regs_per_thread: 1024,
    shared_bytes_per_block: 0,
};

/// The final copy's block shape.
const RES_COPY: KernelResources = KernelResources {
    threads_per_block: 64,
    regs_per_thread: 16,
    shared_bytes_per_block: 0,
};

/// Neighbouring rows the native multirow pass gathers per visit (eight
/// groups of lanes): at each strided point they sit side by side, so a
/// visit moves 512 contiguous bytes there instead of one cache line.
const VISIT_ROWS: usize = 64;

/// The launch of one of the two legacy 1-D passes over `rows` `n`-point
/// rows on `spec`: each charges half the transform's arithmetic.
pub fn cufft1d_config(
    spec: &DeviceSpec,
    n: usize,
    rows: usize,
    name: &'static str,
) -> LaunchConfig {
    LaunchConfig {
        name,
        grid_blocks: spec.fill_grid(&RES_1D),
        resources: RES_1D,
        class: KernelClass::LegacyFft,
        read_pattern: AccessPattern::X,
        write_pattern: AccessPattern::X,
        in_place: false,
        nominal_flops: rows as u64 * nominal_flops_1d(n) / 2,
        streams: 1,
    }
}

/// Batched 1-D FFT the way CUFFT 1.1 ran it: the transform's arithmetic
/// split over two full passes through device memory, launched as `cfgs`
/// (two [`cufft1d_config`]s), each through [`Gpu::launch_replay`].
///
/// Functionally, pass 1 computes the whole transform and pass 2 copies —
/// together they move exactly the traffic (2 x read+write) and execute
/// exactly the arithmetic (charged half per pass) of the historical two-pass
/// radix pipeline.
pub fn cufft1d_batch(
    gpu: &mut Gpu,
    cfgs: [&LaunchConfig; 2],
    plan: &Fft1dPlan,
    src: BufferId,
    dst: BufferId,
    rows: usize,
    dir: Direction,
) -> [KernelReport; 2] {
    let n = plan.len();
    let [pass1, pass2] = cfgs;
    // The direction picks only the arithmetic, never an address, count or
    // branch a counter sees, so it is not part of either pass's shape.
    let shape = [n as u64, rows as u64];
    let r1 = gpu.launch_replay(
        pass1,
        &[src, dst],
        &shape,
        |g| simulate_pass1(g, pass1, plan, src, dst, rows, dir),
        |mem, _| native_pass1(mem, plan, src, dst, rows, dir),
    );
    let r2 = gpu.launch_replay(
        pass2,
        &[dst],
        &shape,
        |g| {
            g.launch_items(pass2, rows * n, |t, i| {
                let v = t.ld(dst, i);
                t.st(dst, i, v);
                t.flops(5 * n as u64 / 2);
            })
        },
        // Every element stores the value it loaded, and pass 1 has already
        // backed all of them.
        |mem, _| {
            mem.backed_mut(dst, rows * n);
        },
    );
    [r1, r2]
}

/// The simulated pass 1: one block per row (grid-strided), lanes own
/// interleaved elements so loads and stores coalesce — the shape of the
/// historical radix kernels. The row maths runs at block level over the
/// staged data.
fn simulate_pass1(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    plan: &Fft1dPlan,
    src: BufferId,
    dst: BufferId,
    rows: usize,
    dir: Direction,
) -> KernelReport {
    let n = plan.len();
    let mut scratch = vec![Complex32::ZERO; n];
    let mut row_buf = vec![Complex32::ZERO; n];
    gpu.launch_coop_items(cfg, rows, |blk, r| {
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
    })
}

/// The native pass 1: rows are copied to their place in `dst` eight at a
/// time, go into [`C32x8`] lanes (the last group may be partial), and each
/// group runs the plan's Stockham loop once.
fn native_pass1(
    mem: &mut DeviceMemory,
    plan: &Fft1dPlan,
    src: BufferId,
    dst: BufferId,
    rows: usize,
    dir: Direction,
) {
    let n = plan.len();
    let group = LANES * n;
    let (src, dst) = mem.src_dst(src, dst, rows * n);
    let mut buf = vec![C32x8::ZERO; 2 * n];
    let (lanes, scratch) = buf.split_at_mut(n);
    for (g, rows) in dst.chunks_mut(group).enumerate() {
        src.read(g * group, rows);
        rows_to_lanes(rows.len() / n, lanes, |i| rows[i]);
        plan.execute(lanes, scratch, dir);
        lanes_to_rows(lanes, rows);
    }
}

/// Element offset of the first point of row `r` of an `n`-point axis whose
/// points lie `stride` elements apart: rows run along the `stride`
/// faster-varying elements, then on to the next block of `n * stride`. For
/// Y (`stride = nx`) that is `x + nx*ny*z`; for Z (`stride = nx*ny`) it is
/// `r` itself.
#[inline]
fn row_base(r: usize, n: usize, stride: usize) -> usize {
    r % stride + n * stride * (r / stride)
}

/// The multirow whole-axis-per-thread kernel CUFFT 1.1 used for the Y and Z
/// axes: each thread gathers a full `n`-point strided row, transforms it
/// "in registers", and scatters it back.
///
/// A 256-point working set (512+ data registers) cannot actually live in the
/// 8192-register file; the compiler spills roughly half of it to *local
/// memory* — which on G80 is plain device memory, thread-interleaved so the
/// spill traffic at least coalesces. The kernel models that faithfully: half
/// the row takes one extra round trip through `spill`, the plan-owned area
/// [`CufftLikeFft::new`] allocates, adding 50% to the pass's useful traffic.
/// Combined with the 8-thread occupancy (§3.1), this reproduces Figure 1's
/// CUFFT3D bars.
///
/// The launch goes through [`Gpu::launch_replay`]. Its shape is `n`, the
/// stride and the row count, which fix the row mapping ([`row_base`]) and
/// so the axis; the spill area is one of the buffers its key names.
#[allow(clippy::too_many_arguments)]
fn run_multirow_axis(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    buf: BufferId,
    spill: BufferId,
    plan: &Fft1dPlan,
    stride: usize,
    rows: usize,
    dir: Direction,
) -> KernelReport {
    let n = plan.len();
    gpu.launch_replay(
        cfg,
        &[buf, spill],
        &[n as u64, stride as u64, rows as u64],
        |g| simulate_multirow(g, cfg, buf, spill, plan, stride, rows, dir),
        |mem, _| native_multirow(mem, cfg, buf, spill, plan, stride, rows, dir),
    )
}

/// The multirow launch over `rows` rows of an `n`-point axis `stride`
/// elements apart, on `spec`.
fn multirow_config(
    spec: &DeviceSpec,
    n: usize,
    stride: usize,
    rows: usize,
    name: &'static str,
) -> LaunchConfig {
    let pattern = classify_stride(stride * 8);
    LaunchConfig {
        name,
        grid_blocks: spec.fill_grid(&RES_MULTIROW),
        resources: RES_MULTIROW,
        class: KernelClass::LegacyFft,
        read_pattern: pattern,
        write_pattern: pattern,
        in_place: true,
        nominal_flops: rows as u64 * nominal_flops_1d(n),
        streams: n,
    }
}

/// The simulated multirow pass: one thread per row, grid-strided.
#[allow(clippy::too_many_arguments)]
fn simulate_multirow(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    buf: BufferId,
    spill: BufferId,
    plan: &Fft1dPlan,
    stride: usize,
    rows: usize,
    dir: Direction,
) -> KernelReport {
    let n = plan.len();
    let total = cfg.grid_blocks * cfg.resources.threads_per_block;
    let half = n / 2;
    let mut scratch = vec![Complex32::ZERO; n];
    let mut row_buf = vec![Complex32::ZERO; n];
    gpu.launch_items(cfg, rows, |t, r| {
        let gid = t.gid();
        let base = row_base(r, n, stride);
        for (j, v) in row_buf.iter_mut().enumerate() {
            *v = t.ld(buf, base + j * stride);
        }
        // Spill the second half of the working set to local memory and
        // reload it (one round trip), then transform.
        for j in 0..half {
            t.st(spill, j * total + gid, row_buf[half + j]);
        }
        for j in 0..half {
            row_buf[half + j] = t.ld(spill, j * total + gid);
        }
        plan.execute(&mut row_buf, &mut scratch, dir);
        t.flops(5 * n as u64 * n.trailing_zeros() as u64);
        for (j, v) in row_buf.iter().enumerate() {
            t.st(buf, base + j * stride, *v);
        }
    })
}

/// The native multirow pass. The spill area ends as the simulation leaves
/// it: each thread's slots hold the untransformed second half of the last
/// row it ran (items run round-major, so thread `gid` runs rows `gid`,
/// `gid + total`, ...), backed up to the last slot a thread wrote. The rows
/// themselves go eight neighbours to a group of [`C32x8`] lanes, and
/// [`VISIT_ROWS`] neighbours (fewer when `stride` is smaller) are gathered
/// at once: at each point they sit side by side in memory, so a visit reads
/// and writes one run there.
#[allow(clippy::too_many_arguments)]
fn native_multirow(
    mem: &mut DeviceMemory,
    cfg: &LaunchConfig,
    buf: BufferId,
    spill: BufferId,
    plan: &Fft1dPlan,
    stride: usize,
    rows: usize,
    dir: Direction,
) {
    let n = plan.len();
    let total = cfg.grid_blocks * cfg.resources.threads_per_block;
    let half = n / 2;
    let ran = rows.min(total);
    let end = (half * total).saturating_sub(total - ran);
    let (data, slots) = mem.src_dst(buf, spill, end);
    for gid in 0..ran {
        let base = row_base(gid + (rows - 1 - gid) / total * total, n, stride);
        for j in 0..half {
            slots[j * total + gid] = data.get(base + (half + j) * stride);
        }
    }
    // Rows tile the volume: `rows` is a multiple of `stride`, and the last
    // row's last point is element `rows * n - 1`. `stride` and
    // `VISIT_ROWS` are powers of two, so a visit never straddles two blocks
    // of `n * stride`.
    let data = mem.backed_mut(buf, rows * n);
    let visit = VISIT_ROWS.min(stride);
    let mut groups = vec![C32x8::ZERO; visit.div_ceil(LANES) * n];
    let mut scratch = vec![C32x8::ZERO; n];
    for r0 in (0..rows).step_by(visit) {
        let base = row_base(r0, n, stride);
        side_by_side_to_lanes(visit, stride, &mut groups, &data[base..]);
        for row in groups.chunks_exact_mut(n) {
            plan.execute(row, &mut scratch, dir);
        }
        lanes_to_side_by_side(&groups, visit, stride, &mut data[base..]);
    }
}

/// The launch of the final copy on `spec`.
fn copyback_config(spec: &DeviceSpec) -> LaunchConfig {
    LaunchConfig {
        name: "cufft_copyback",
        grid_blocks: spec.fill_grid(&RES_COPY),
        resources: RES_COPY,
        class: KernelClass::Copy,
        read_pattern: AccessPattern::X,
        write_pattern: AccessPattern::X,
        in_place: false,
        nominal_flops: 0,
        streams: 1,
    }
}

/// The final copy back into the caller's buffer, as CUFFT's API contract
/// (out-of-place into the user buffer) required, launched as `cfg`.
fn copyback(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    src: BufferId,
    dst: BufferId,
    vol: usize,
) -> KernelReport {
    gpu.launch_replay(
        cfg,
        &[src, dst],
        &[vol as u64],
        |g| {
            g.launch_items(cfg, vol, |t, i| {
                let val = t.ld(src, i);
                t.st(dst, i, val);
            })
        },
        |mem, _| {
            let (src, dst) = mem.src_dst(src, dst, vol);
            src.read(0, dst);
        },
    )
}

/// A CUFFT-1.1-style 3-D FFT on the natural layout.
pub struct CufftLikeFft {
    nx: usize,
    ny: usize,
    nz: usize,
    /// One planned 1-D transform per distinct axis length.
    plans: Vec<Fft1dPlan>,
    launches: Vec<Launch>,
    /// The Y and Z multirow kernels' shared spill area, or why it did not
    /// fit on the card.
    spill: Result<BufferId, AllocError>,
    /// Held only for its `Drop`, which frees the spill area.
    _guard: BufferGuard,
}

impl CufftLikeFft {
    /// Plans the transform and allocates its spill area: the
    /// thread-interleaved local memory of the Y and Z multirow kernels,
    /// `max(ny, nz) / 2` elements for each thread of their grid, shared by
    /// both and freed when the plan drops. Like `cufftPlan3d`'s work area it
    /// is allocated once, so every launch after a shape's first replays.
    /// When it does not fit, [`CufftLikeFft::alloc_buffers`] reports the
    /// error.
    pub fn new(gpu: &mut Gpu, nx: usize, ny: usize, nz: usize) -> Self {
        let launches = Self::launch_list(gpu.spec(), nx, ny, nz);
        let multirow = &launches[2].cfg;
        let threads = multirow.grid_blocks * multirow.resources.threads_per_block;
        let spill = gpu.mem_mut().alloc(ny.max(nz) / 2 * threads);
        let mut plans: Vec<Fft1dPlan> = Vec::new();
        for n in [nx, ny, nz] {
            if plans.iter().all(|p| p.len() != n) {
                plans.push(Fft1dPlan::new(n));
            }
        }
        CufftLikeFft {
            nx,
            ny,
            nz,
            plans,
            launches,
            spill,
            _guard: BufferGuard::new(gpu, spill.iter().copied().collect()),
        }
    }

    /// The launches of an `nx x ny x nz` plan on `spec`, in execution
    /// order: the two 1-D passes along X, the Y and Z multirow passes and
    /// the copy-back. Each moves the whole volume once each way, and a
    /// multirow pass half as much again through its spill area
    /// ([`run_multirow_axis`]).
    pub(crate) fn launch_list(spec: &DeviceSpec, nx: usize, ny: usize, nz: usize) -> Vec<Launch> {
        let vol = nx * ny * nz;
        let pass = |name| cufft1d_config(spec, nx, vol / nx, name);
        let y = multirow_config(spec, ny, nx, vol / ny, "cufft_y_multirow");
        let z = multirow_config(spec, nz, nx * ny, vol / nz, "cufft_z_multirow");
        let (once, spilled) = (vol as u64, vol as u64 * 3 / 2);
        [
            (pass("cufft1d_pass1"), once),
            (pass("cufft1d_pass2"), once),
            (y, spilled),
            (z, spilled),
            (copyback_config(spec), once),
        ]
        .map(|(cfg, elems)| Launch { cfg, elems })
        .to_vec()
    }

    /// The plan's launches, in execution order: what `execute` runs and
    /// [`crate::plan::Algorithm::estimate_steps`] prices.
    pub fn launches(&self) -> &[Launch] {
        &self.launches
    }

    /// Total elements.
    pub fn volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// The planned 1-D transform of length `n`, one of the axis lengths.
    fn plan(&self, n: usize) -> &Fft1dPlan {
        self.plans
            .iter()
            .find(|p| p.len() == n)
            .expect("axis planned")
    }

    /// The spill area's buffer, when it fit — mainly for diagnosing checker
    /// reports, which cite buffers by id.
    pub fn spill(&self) -> Option<BufferId> {
        self.spill.ok()
    }

    /// Allocates data + scratch. Nothing stays allocated on failure.
    ///
    /// # Errors
    /// Returns the allocation error when either buffer, or the spill area
    /// [`CufftLikeFft::new`] tried to allocate, does not fit on the card.
    pub fn alloc_buffers(&self, gpu: &mut Gpu) -> Result<(BufferId, BufferId), AllocError> {
        self.spill?;
        crate::plan::alloc_pair(gpu, self.volume())
    }

    /// Executes: X via the two-pass 1-D path, Y and Z via strided multirow
    /// kernels. Input/output in `v`, natural order.
    ///
    /// # Panics
    /// Panics when the spill area did not fit on the card.
    pub fn execute(&self, gpu: &mut Gpu, v: BufferId, work: BufferId, dir: Direction) -> RunReport {
        let spill = self.spill.expect("spill area fits");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let vol = self.volume();
        let cfg = |i: usize| &self.launches[i].cfg;
        let mut steps = Vec::with_capacity(5);
        gpu.span_begin("cufft_like");
        gpu.span_begin("cufft_1d_x");
        steps.extend(cufft1d_batch(
            gpu,
            [cfg(0), cfg(1)],
            self.plan(nx),
            v,
            work,
            vol / nx,
            dir,
        ));
        gpu.span_end("cufft_1d_x");
        // The 1-D path is out of place, so its result lands in `work`; the
        // Y and Z kernels transform `work` in place, and a final copy
        // returns the result to `v`.
        gpu.span_begin("cufft_y");
        steps.push(run_multirow_axis(
            gpu,
            cfg(2),
            work,
            spill,
            self.plan(ny),
            nx,
            vol / ny,
            dir,
        ));
        gpu.span_end("cufft_y");
        gpu.span_begin("cufft_z");
        steps.push(run_multirow_axis(
            gpu,
            cfg(3),
            work,
            spill,
            self.plan(nz),
            nx * ny,
            vol / nz,
            dir,
        ));
        gpu.span_end("cufft_z");
        gpu.span_begin("cufft_copyback");
        steps.push(copyback(gpu, cfg(4), work, v, vol));
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

    /// The multirow kernel replayed against its simulation, launch by
    /// launch: row counts below and above the grid's thread count, a spill
    /// area larger than one launch backs, and the Y and Z axes of a
    /// 128×16×16 volume (where even a Y block's 128 neighbouring rows take
    /// two native visits) with only the first `written` elements uploaded.
    /// The first launch reads zeros past that prefix and backs the whole
    /// volume, so the replays read the previous output there.
    #[test]
    fn replayed_multirow_matches_simulation() {
        let mut rng = SplitMix64::new(0x5911_0001);
        for (n, stride, rows, written) in [
            (16, 2, 6, 96),
            (16, 16, 64, 1024),
            (32, 64, 512, 16384),
            (64, 16, 128, 8192),
            (16, 128, 2048, 12293),
            (16, 2048, 2048, 12293),
        ] {
            let plan = Fft1dPlan::new(n);
            let mut cards = [
                Gpu::new(DeviceSpec::gt8800()),
                Gpu::new(DeviceSpec::gt8800()),
            ];
            let bufs = cards.each_mut().map(|g| {
                let threads = g.fill_grid(&RES_MULTIROW) * RES_MULTIROW.threads_per_block;
                let spill = g.mem_mut().alloc(64 * threads).unwrap();
                (g.mem_mut().alloc(rows * n).unwrap(), spill)
            });
            assert_eq!(bufs[0], bufs[1]);
            let (buf, spill) = bufs[0];
            for k in 0..3 {
                let host: Vec<Complex32> = (0..written)
                    .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), 0.5))
                    .collect();
                let dir = [Direction::Forward, Direction::Inverse][k % 2];
                let mut seen = Vec::new();
                for (i, g) in cards.iter_mut().enumerate() {
                    g.mem_mut().upload(buf, 0, &host);
                    let cfg = multirow_config(g.spec(), n, stride, rows, "mr");
                    let rep = if i == 0 {
                        run_multirow_axis(g, &cfg, buf, spill, &plan, stride, rows, dir)
                    } else {
                        simulate_multirow(g, &cfg, buf, spill, &plan, stride, rows, dir)
                    };
                    let mut out = vec![Complex32::ZERO; rows * n + g.mem().len(spill)];
                    let (data, slots) = out.split_at_mut(rows * n);
                    g.mem().download(buf, 0, data);
                    g.mem().download(spill, 0, slots);
                    let out: Vec<_> = out
                        .iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect();
                    seen.push((out, rep, g.mem().backed_bytes(), g.clock_s().to_bits()));
                }
                assert!(
                    seen[0] == seen[1],
                    "n={n} stride={stride} rows={rows} written={written}: launch {k}"
                );
            }
            assert_eq!(cards[0].launch_counts(), (3, 2));
        }
    }

    #[test]
    fn cufft1d_is_two_passes() {
        let mut gpu = Gpu::new(DeviceSpec::gtx8800());
        let src = gpu.mem_mut().alloc(256 * 4).unwrap();
        let dst = gpu.mem_mut().alloc(256 * 4).unwrap();
        let plan = Fft1dPlan::new(256);
        let cfgs = ["p1", "p2"].map(|name| cufft1d_config(gpu.spec(), 256, 4, name));
        let reps = cufft1d_batch(
            &mut gpu,
            [&cfgs[0], &cfgs[1]],
            &plan,
            src,
            dst,
            4,
            Direction::Forward,
        );
        assert_eq!(reps.map(|r| r.name), ["p1", "p2"]);
    }
}
