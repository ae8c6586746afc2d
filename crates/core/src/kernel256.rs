//! The fine-grained batched row-FFT kernel (step 5 of the paper).
//!
//! One thread block computes one contiguous `n`-point row (the X axis) with
//! `n/4` cooperating threads, each holding four complex values in registers
//! (§3.2: "computing a 256-point FFT with 64 threads each thread uses only
//! eight registers to store four complex numbers"). The transform runs as
//! radix-4 Stockham stages (plus a final radix-2 for `n = 2·4^k`); between
//! stages the values are redistributed through shared memory — "a 256-point
//! FFT requires data exchange via shared memory at least three times" — with
//! real parts exchanged first and imaginary parts second to halve the shared
//! allocation (§3.2).
//!
//! Bank conflicts are eliminated by the paper's padding technique. Rather
//! than hard-coding one pad, [`FineFftPlan::new`] *searches* per-exchange pad
//! strides and per-stage lane assignments at plan time using the simulator's
//! own conflict rule, and the tests assert the chosen configuration is
//! conflict-free for every supported size. Twiddle factors are fetched from
//! texture memory (§3.2's option 3, the paper's choice for this kernel).

use fft_math::flops::nominal_flops_1d;
use fft_math::lanes::{lanes_to_rows, rows_to_lanes, C32x8, FftValue, LANES};
use fft_math::layout::AccessPattern;
use fft_math::twiddle::{Direction, TwiddleTable};
use fft_math::Complex32;
use gpu_sim::shared::bank_conflict_degree;
use gpu_sim::{
    BufferId, DeviceMemory, DeviceSpec, Gpu, KernelClass, KernelReport, KernelResources,
    LaunchConfig, TexAccess, TextureId,
};

/// One Stockham stage of the decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stage {
    /// Butterfly radix (4, with a possible final 2).
    pub radix: usize,
    /// Sub-transform count `len / radix`.
    pub m: usize,
    /// Output stride.
    pub s: usize,
    /// Lane assignment: `false` = p-major (`t = p*s + q`),
    /// `true` = q-major (`t = q*m + p`).
    pub q_major: bool,
}

impl Stage {
    /// Butterfly coordinates handled by thread `t` for its `b`-th butterfly.
    /// `m` and `s` are powers of two (plans are), so the split is a shift
    /// and a mask.
    #[inline]
    fn coords(&self, t: usize, b: usize, threads: usize) -> (usize, usize) {
        let beta = t + b * threads;
        if self.q_major {
            // beta = q * m + p
            (beta & (self.m - 1), beta >> self.m.trailing_zeros())
        } else {
            // beta = p * s + q
            (beta >> self.s.trailing_zeros(), beta & (self.s - 1))
        }
    }

    /// Butterflies per thread (1 for radix-4 stages, 2 for the radix-2 tail
    /// since it has twice as many butterflies as threads).
    fn butterflies_per_thread(&self, threads: usize) -> usize {
        (self.m * self.s).div_ceil(threads)
    }
}

/// Skews a shared word index: `w + c * (w / g)` — inserting `c` pad words
/// after every `g`-word group. `(0, 0)` means no padding. The classic
/// "+1 word per 16" padding is `(16, 1)`; some exchanges need a wider skew
/// (e.g. `(16, 4)`), which the plan-time search below discovers. Groups
/// are powers of two, so `w / g` is a shift.
#[inline]
fn pad(w: usize, p: (usize, usize)) -> usize {
    if p.0 == 0 {
        w
    } else {
        w + p.1 * (w >> p.0.trailing_zeros())
    }
}

/// Candidate `(group, pad)` skews the plan-time optimiser tries.
const PAD_CANDIDATES: [(usize, usize); 11] = [
    (0, 0),
    (16, 1),
    (16, 2),
    (16, 4),
    (16, 8),
    (8, 1),
    (8, 4),
    (4, 1),
    (4, 4),
    (2, 1),
    (32, 1),
];

/// A planned fine-grained FFT of fixed row length.
#[derive(Clone, Debug)]
pub struct FineFftPlan {
    n: usize,
    threads: usize,
    stages: Vec<Stage>,
    /// `(group, pad)` skew per exchange (between stage `e` and `e+1`).
    pads: Vec<(usize, usize)>,
    shared_words: usize,
    /// Total conflict degree the chosen configuration incurs in the plan-time
    /// model (0 for all paper sizes).
    pub planned_conflicts: u64,
}

impl FineFftPlan {
    /// Plans the stage decomposition and bank-conflict-free exchanges for
    /// row length `n` (power of two, 4..=512).
    ///
    /// Below `n = 64` the cooperating block is narrower than a half-warp,
    /// and some stages then genuinely violate alignment rule (c) — exactly
    /// as on hardware. The paper's sizes (64–512) always use full
    /// half-warps.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && (4..=512).contains(&n),
            "unsupported row length {n}"
        );
        let threads = n / 4;
        // Radix sequence: 4s first, a single 2 if log2(n) is odd.
        let mut radices = Vec::new();
        let mut rem = n;
        while rem.is_multiple_of(4) {
            radices.push(4);
            rem /= 4;
        }
        if rem == 2 {
            radices.push(2);
        }

        // Best (assignments, pads) over the small search space.
        type Candidate = (Vec<bool>, Vec<(usize, usize)>, u64);
        let num_stages = radices.len();
        let mut best: Option<Candidate> = None;
        for mask in 0u32..(1 << num_stages) {
            let assign: Vec<bool> = (0..num_stages).map(|i| mask >> i & 1 == 1).collect();
            let stages = build_stages(n, &radices, &assign);
            let mut pads: Vec<(usize, usize)> = Vec::with_capacity(num_stages - 1);
            let mut total = 0u64;
            for e in 0..num_stages - 1 {
                let (p, c) = best_pad(&stages[e], &stages[e + 1], threads);
                pads.push(p);
                total += c;
            }
            if best.as_ref().is_none_or(|(_, _, t)| total < *t) {
                best = Some((assign, pads, total));
            }
            if total == 0 {
                break;
            }
        }
        let (assign, pads, planned_conflicts) = best.expect("search space is non-empty");
        let stages = build_stages(n, &radices, &assign);
        let shared_words = pads.iter().map(|&p| pad(n - 1, p) + 1).max().unwrap_or(n);
        FineFftPlan {
            n,
            threads,
            stages,
            pads,
            shared_words,
            planned_conflicts,
        }
    }

    /// Plans with a *forced* uniform pad skew on every exchange (bypassing
    /// the conflict search) — the a2 ablation's "no padding" configuration
    /// uses `(0, 0)` to measure what the paper's padding technique buys.
    ///
    /// # Panics
    /// Panics unless the skew's group is 0 or a power of two.
    pub fn with_uniform_pad(n: usize, pad_skew: (usize, usize)) -> Self {
        assert!(
            pad_skew.0 == 0 || pad_skew.0.is_power_of_two(),
            "pad group {} must be 0 or a power of two",
            pad_skew.0
        );
        let base = Self::new(n);
        let radices: Vec<usize> = base.stages.iter().map(|s| s.radix).collect();
        let assign = vec![false; radices.len()];
        let stages = build_stages(n, &radices, &assign);
        let threads = n / 4;
        let mut planned_conflicts = 0u64;
        for e in 0..stages.len() - 1 {
            planned_conflicts += exchange_conflicts(&stages[e], &stages[e + 1], threads, pad_skew);
        }
        let pads = vec![pad_skew; stages.len().saturating_sub(1)];
        let shared_words = pads.iter().map(|&p| pad(n - 1, p) + 1).max().unwrap_or(n);
        FineFftPlan {
            n,
            threads,
            stages,
            pads,
            shared_words,
            planned_conflicts,
        }
    }

    /// Row length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true: plans have positive length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cooperating threads per row (= per block).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shared-memory words each block allocates.
    pub fn shared_words(&self) -> usize {
        self.shared_words
    }

    /// Stage sequence (for inspection/tests).
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Appends what a launch's addresses, counts and branches read of the
    /// plan: its length, every stage and every exchange's pad skew.
    fn shape_words(&self, out: &mut Vec<u64>) {
        out.push(self.n as u64);
        for st in &self.stages {
            out.extend([st.radix, st.m, st.s, st.q_major as usize].map(|w| w as u64));
        }
        for &(group, skew) in &self.pads {
            out.extend([group as u64, skew as u64]);
        }
    }

    /// Launch resources: `n/4` threads, 4 complex values + temporaries in
    /// registers, the padded real-part staging array in shared memory.
    pub fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: self.threads,
            regs_per_thread: 16,
            shared_bytes_per_block: self.shared_words * 4,
        }
    }
}

fn build_stages(n: usize, radices: &[usize], assign: &[bool]) -> Vec<Stage> {
    let mut stages = Vec::with_capacity(radices.len());
    let mut len = n;
    let mut s = 1usize;
    for (i, &r) in radices.iter().enumerate() {
        let m = len / r;
        stages.push(Stage {
            radix: r,
            m,
            s,
            q_major: assign[i],
        });
        len = m;
        s *= r;
    }
    stages
}

/// Word-index streams of an exchange: the write side of `wr` followed by the
/// read side of `rd`, evaluated per half-warp per ordinal under pad `p`.
fn exchange_conflicts(wr: &Stage, rd: &Stage, threads: usize, p: (usize, usize)) -> u64 {
    let mut total = 0u64;
    let hw = 16.min(threads);
    for base in (0..threads).step_by(hw) {
        // Write ordinals: butterfly b, output r.
        for b in 0..wr.butterflies_per_thread(threads) {
            for r in 0..wr.radix {
                let words: Vec<usize> = (base..base + hw)
                    .map(|t| {
                        let (pp, q) = wr.coords(t, b, threads);
                        pad(q + wr.s * (wr.radix * pp + r), p)
                    })
                    .collect();
                total += (bank_conflict_degree(&words, 16) - 1) as u64;
            }
        }
        // Read ordinals: butterfly b, input k.
        for b in 0..rd.butterflies_per_thread(threads) {
            for k in 0..rd.radix {
                let words: Vec<usize> = (base..base + hw)
                    .map(|t| {
                        let (pp, q) = rd.coords(t, b, threads);
                        pad(q + rd.s * (pp + k * rd.m), p)
                    })
                    .collect();
                total += (bank_conflict_degree(&words, 16) - 1) as u64;
            }
        }
    }
    total
}

fn best_pad(wr: &Stage, rd: &Stage, threads: usize) -> ((usize, usize), u64) {
    PAD_CANDIDATES
        .iter()
        .map(|&p| (p, exchange_conflicts(wr, rd, threads, p)))
        .min_by_key(|&(_, c)| c)
        .expect("candidates non-empty")
}

/// Binds the full-length twiddle table for `n` and `dir` as a cached texture
/// (§3.2: "we selected texture memory for step 5").
pub fn bind_twiddle_texture(gpu: &mut Gpu, n: usize, dir: Direction) -> TextureId {
    let table = TwiddleTable::new(n, dir);
    gpu.bind_texture(table.as_slice().to_vec(), TexAccess::Cached)
}

/// The launch of a batched fine-grained row-FFT pass over `rows` rows on
/// `spec`: one block per row, so never more blocks than rows. The one
/// configuration the functional pass and the analytic estimator both use.
pub fn batched_config(
    spec: &DeviceSpec,
    plan: &FineFftPlan,
    rows: usize,
    in_place: bool,
    name: &'static str,
) -> LaunchConfig {
    let resources = plan.resources();
    LaunchConfig {
        name,
        grid_blocks: spec.fill_grid(&resources).min(rows.max(1)),
        resources,
        class: KernelClass::SharedFft,
        read_pattern: AccessPattern::X,
        write_pattern: AccessPattern::X,
        in_place,
        nominal_flops: rows as u64 * nominal_flops_1d(plan.n),
        streams: 1,
    }
}

/// The twiddles stage `st` multiplies sub-transform `p`'s outputs `r > 0`
/// by: `W_n^{r·p·tw_step}`, fetched through `tw` for `r = 1, 2, 3` (radix
/// 4) or `r = 1` (radix 2), in that order. `None` for `p = 0`, whose
/// outputs are not multiplied.
#[inline(always)]
fn twiddles(
    st: &Stage,
    p: usize,
    n: usize,
    mut tw: impl FnMut(usize) -> Complex32,
) -> Option<[Complex32; 3]> {
    if p == 0 {
        return None;
    }
    let tw_step = n / (st.m * st.radix); // index scale into W_n
    let mut w = [Complex32::ZERO; 3];
    for (r, v) in w[..st.radix - 1].iter_mut().enumerate() {
        *v = tw(((r + 1) * p * tw_step) & (n - 1));
    }
    Some(w)
}

/// One butterfly of a stage of radix `radix`: the radix-4 butterfly on
/// `x` (or the radix-2 tail on `x[..2]`), then output `r > 0` times
/// `w[r - 1]` when the sub-transform has twiddles (see [`twiddles`]).
/// Returns the outputs and the FLOPs the kernel charges for them. The
/// simulated body (on [`Complex32`]) and the native executor (on eight rows
/// in [`C32x8`] lanes) both call this, so their arithmetic is one copy;
/// each fetches its twiddles before calling.
#[inline(always)]
fn butterfly<T: FftValue>(
    radix: usize,
    dir: Direction,
    x: [T; 4],
    w: Option<[Complex32; 3]>,
) -> ([T; 4], u64) {
    if radix == 4 {
        let [a, b, c, d] = x;
        let t0 = a + c;
        let t1 = a - c;
        let t2 = b + d;
        let t3 = match dir {
            Direction::Forward => (b - d).mul_neg_i(),
            Direction::Inverse => (b - d).mul_i(),
        };
        let mut y = [t0 + t2, t1 + t3, t0 - t2, t1 - t3];
        let mut fl = 16;
        if let Some(w) = w {
            for (v, w) in y[1..].iter_mut().zip(w) {
                *v *= w;
            }
            fl += 18;
        }
        (y, fl)
    } else {
        let [a, b, ..] = x;
        let mut y1 = a - b;
        let mut fl = 4;
        if let Some(w) = w {
            y1 *= w[0];
            fl += 6;
        }
        ([a + b, y1, T::ZERO, T::ZERO], fl)
    }
}

/// [`run_batched_fft`] through [`Gpu::launch_replay`]: the first pass of a
/// shape is simulated, and every later one runs the same butterflies in
/// plain loops and reuses its report. Outputs and report are bit-identical
/// to [`run_batched_fft`]'s.
#[allow(clippy::too_many_arguments)]
pub fn replay_batched_fft(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    plan: &FineFftPlan,
    src: BufferId,
    dst: BufferId,
    rows: usize,
    dir: Direction,
    tw: TextureId,
) -> KernelReport {
    // The direction picks only the arithmetic (the rotation's sign and the
    // twiddles' values), never an address, count or branch a counter sees,
    // so an inverse pass replays its forward twin's report.
    let mut shape = vec![rows as u64, gpu.texture_access(tw) as u64];
    plan.shape_words(&mut shape);
    gpu.launch_replay(
        cfg,
        &[src, dst],
        &shape,
        |g| run_batched_fft(g, cfg, plan, src, dst, rows, dir, tw),
        |mem, tex| native_batched_fft(mem, tex.data(tw), plan, src, dst, rows, dir),
    )
}

/// Runs `rows` consecutive `n`-point FFTs as `cfg`, their
/// [`batched_config`]: row `r` occupies elements `[r*n, (r+1)*n)` of `src`
/// and lands in the same range of `dst` (which may equal `src` for the
/// in-place step 5). One cooperative block per row, stages exchanged
/// through padded shared memory.
///
/// `tw` must be the texture bound by [`bind_twiddle_texture`] for the same
/// `n` and direction.
#[allow(clippy::too_many_arguments)]
pub fn run_batched_fft(
    gpu: &mut Gpu,
    cfg: &LaunchConfig,
    plan: &FineFftPlan,
    src: BufferId,
    dst: BufferId,
    rows: usize,
    dir: Direction,
    tw: TextureId,
) -> KernelReport {
    let n = plan.n;
    let threads = plan.threads;
    let grid = cfg.grid_blocks;
    let stages = &plan.stages;
    let pads = &plan.pads;

    // Per-thread register state, persisted across phases by the block. One
    // pair serves every block: a block writes each slot before reading it.
    let mut vals = vec![[Complex32::ZERO; 4]; threads];
    let mut next = vec![[Complex32::ZERO; 4]; threads];
    gpu.launch_coop(cfg, |blk| {
        let mut row = blk.block;
        while row < rows {
            let base = row * n;
            for (si, st) in stages.iter().enumerate() {
                let bpt = st.butterflies_per_thread(threads);
                // --- gather stage inputs ---
                if si == 0 {
                    blk.threads(|t, ctx| {
                        for b in 0..bpt {
                            let (p, q) = st.coords(t, b, threads);
                            for k in 0..st.radix {
                                let idx = q + st.s * (p + k * st.m);
                                vals[t][b * st.radix + k] = ctx.ld(src, base + idx);
                            }
                        }
                    });
                } else {
                    // Exchange through shared memory: previous stage's
                    // outputs were staged in `next`; move them via shared
                    // with re/im split and the planned padding.
                    let prev = &stages[si - 1];
                    let p_pad = pads[si - 1];
                    let pbpt = prev.butterflies_per_thread(threads);
                    for im in [false, true] {
                        blk.threads(|t, ctx| {
                            for b in 0..pbpt {
                                let (pp, q) = prev.coords(t, b, threads);
                                for r in 0..prev.radix {
                                    let w = q + prev.s * (prev.radix * pp + r);
                                    let v = next[t][b * prev.radix + r];
                                    ctx.sh_write(pad(w, p_pad), if im { v.im } else { v.re });
                                }
                            }
                        });
                        blk.sync();
                        blk.threads(|t, ctx| {
                            for b in 0..bpt {
                                let (p, q) = st.coords(t, b, threads);
                                for k in 0..st.radix {
                                    let w = q + st.s * (p + k * st.m);
                                    let x = ctx.sh_read(pad(w, p_pad));
                                    let slot = &mut vals[t][b * st.radix + k];
                                    if im {
                                        slot.im = x;
                                    } else {
                                        slot.re = x;
                                    }
                                }
                            }
                        });
                        blk.sync();
                    }
                }

                // --- butterflies + twiddles ---
                let last = si == stages.len() - 1;
                blk.threads(|t, ctx| {
                    for b in 0..bpt {
                        let (p, q) = st.coords(t, b, threads);
                        let io = b * st.radix;
                        let mut x = [Complex32::ZERO; 4];
                        x[..st.radix].copy_from_slice(&vals[t][io..io + st.radix]);
                        let w = twiddles(st, p, n, |i| ctx.tex1d(tw, i));
                        let (out, fl) = butterfly(st.radix, dir, x, w);
                        ctx.flops(fl);
                        if last {
                            for (r, v) in out.iter().enumerate().take(st.radix) {
                                let idx = q + st.s * (st.radix * p + r);
                                ctx.st(dst, base + idx, *v);
                            }
                        } else {
                            next[t][io..io + st.radix].copy_from_slice(&out[..st.radix]);
                        }
                    }
                });
                if !last {
                    blk.sync();
                }
            }
            row += grid;
        }
    })
}

/// The native batched pass: rows go eight at a time into [`C32x8`] lanes
/// (the last group may be partial; out of place, the group is first copied
/// to its place in `dst`), and each group runs the plan's Stockham stages
/// once through the shared [`butterfly`], with the twiddles read from the
/// bound texture's contents. Stage inputs and outputs sit at the same
/// indices the simulated kernel's loads, shared exchanges and stores use.
#[allow(clippy::too_many_arguments)]
fn native_batched_fft(
    mem: &mut DeviceMemory,
    tw: &[Complex32],
    plan: &FineFftPlan,
    src: BufferId,
    dst: BufferId,
    rows: usize,
    dir: Direction,
) {
    let n = plan.n;
    let group = LANES * n;
    let mut lanes = vec![C32x8::ZERO; 2 * n];
    let mut transform = |rows: &mut [Complex32]| {
        rows_to_lanes(rows.len() / n, &mut lanes[..n], |i| rows[i]);
        lanes_to_rows(lane_stages(plan, dir, tw, &mut lanes), rows);
    };
    if src == dst {
        mem.backed_mut(dst, rows * n)
            .chunks_mut(group)
            .for_each(transform);
    } else {
        let (src, dst) = mem.src_dst(src, dst, rows * n);
        for (g, rows) in dst.chunks_mut(group).enumerate() {
            src.read(g * group, rows);
            transform(rows);
        }
    }
}

/// Transforms the eight rows in the lanes of `buf[..n]` through every stage
/// of `plan`, ping-ponging with the scratch `buf[n..]`, and returns the half
/// holding the result. The radix and direction are chosen once per stage.
fn lane_stages<'a>(
    plan: &FineFftPlan,
    dir: Direction,
    tw: &[Complex32],
    buf: &'a mut [C32x8],
) -> &'a [C32x8] {
    let n = plan.n;
    let (mut x, mut y) = buf.split_at_mut(n);
    for st in &plan.stages {
        match (st.radix, dir) {
            (4, Direction::Forward) => radix4_stage::<false>(st, n, tw, x, y),
            (4, Direction::Inverse) => radix4_stage::<true>(st, n, tw, x, y),
            _ => radix2_stage(st, n, tw, x, y),
        }
        std::mem::swap(&mut x, &mut y);
    }
    x
}

/// One radix-4 stage from `x` to `y`, inverse when `INVERSE`. Sub-transform
/// `p` reads input `k` from the `s`-long run at `s·(p + k·m)` and writes
/// output `r` to the run at `s·(4p + r)` (the simulated kernel's indices,
/// with `q` running along each run), and fetches its twiddles once for the
/// whole run.
fn radix4_stage<const INVERSE: bool>(
    st: &Stage,
    n: usize,
    tw: &[Complex32],
    x: &[C32x8],
    y: &mut [C32x8],
) {
    let dir = if INVERSE {
        Direction::Inverse
    } else {
        Direction::Forward
    };
    let s = st.s;
    let (x0, rest) = x.split_at(st.m * s);
    let (x1, rest) = rest.split_at(st.m * s);
    let (x2, x3) = rest.split_at(st.m * s);
    let ins = x0
        .chunks_exact(s)
        .zip(x1.chunks_exact(s))
        .zip(x2.chunks_exact(s))
        .zip(x3.chunks_exact(s));
    for (p, (out, (((i0, i1), i2), i3))) in y.chunks_exact_mut(4 * s).zip(ins).enumerate() {
        let (o0, rest) = out.split_at_mut(s);
        let (o1, rest) = rest.split_at_mut(s);
        let (o2, o3) = rest.split_at_mut(s);
        let (ins, outs) = ([i0, i1, i2, i3], [o0, o1, o2, o3]);
        match twiddles(st, p, n, |i| tw[i]) {
            None => radix4_runs(dir, None, ins, outs),
            w => radix4_runs(dir, w, ins, outs),
        }
    }
}

/// The butterflies of one radix-4 sub-transform: element `q` of each input
/// run to element `q` of each output run.
#[inline(always)]
fn radix4_runs(
    dir: Direction,
    w: Option<[Complex32; 3]>,
    [i0, i1, i2, i3]: [&[C32x8]; 4],
    [o0, o1, o2, o3]: [&mut [C32x8]; 4],
) {
    let ins = i0.iter().zip(i1).zip(i2).zip(i3);
    let outs = o0.iter_mut().zip(o1).zip(o2).zip(o3);
    for ((((a, b), c), d), (((y0, y1), y2), y3)) in ins.zip(outs) {
        let (v, _) = butterfly(4, dir, [*a, *b, *c, *d], w);
        [*y0, *y1, *y2, *y3] = v;
    }
}

/// The radix-2 tail from `x` to `y`, walked as [`radix4_stage`] walks its
/// stage. Its butterfly does not rotate, so it has no direction.
fn radix2_stage(st: &Stage, n: usize, tw: &[Complex32], x: &[C32x8], y: &mut [C32x8]) {
    let s = st.s;
    let (x0, x1) = x.split_at(st.m * s);
    let ins = x0.chunks_exact(s).zip(x1.chunks_exact(s));
    for (p, (out, (i0, i1))) in y.chunks_exact_mut(2 * s).zip(ins).enumerate() {
        let (o0, o1) = out.split_at_mut(s);
        let w = twiddles(st, p, n, |i| tw[i]);
        for ((a, b), (y0, y1)) in i0.iter().zip(i1).zip(o0.iter_mut().zip(o1)) {
            let zero = C32x8::ZERO;
            let ([v0, v1, ..], _) = butterfly(2, Direction::Forward, [*a, *b, zero, zero], w);
            (*y0, *y1) = (v0, v1);
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
            .map(|i| Complex32::new((0.13 * i as f32).sin(), (0.29 * i as f32).cos() - 0.4))
            .collect()
    }

    fn run_case(n: usize, rows: usize, dir: Direction) -> (Vec<Complex32>, KernelReport) {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let plan = FineFftPlan::new(n);
        let host = signal(n * rows);
        let src = gpu.mem_mut().alloc(n * rows).unwrap();
        gpu.mem_mut().upload(src, 0, &host);
        let tw = bind_twiddle_texture(&mut gpu, n, dir);
        let cfg = batched_config(gpu.spec(), &plan, rows, true, "fine");
        let rep = run_batched_fft(&mut gpu, &cfg, &plan, src, src, rows, dir, tw);
        let mut out = vec![Complex32::ZERO; n * rows];
        gpu.mem_mut().download(src, 0, &mut out);
        (out, rep)
    }

    #[test]
    fn matches_stockham_for_all_paper_sizes() {
        for n in [16usize, 32, 64, 128, 256, 512] {
            let rows = 4;
            let host = signal(n * rows);
            let (got, _) = run_case(n, rows, Direction::Forward);
            for r in 0..rows {
                let mut want = host[r * n..(r + 1) * n].to_vec();
                fft_pow2(&mut want, Direction::Forward);
                let err = rel_l2_error_f32(&got[r * n..(r + 1) * n], &want);
                assert!(err < 1e-5, "n={n} row {r}: rel err {err}");
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 256;
        let rows = 2;
        let host = signal(n * rows);
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        let plan = FineFftPlan::new(n);
        let src = gpu.mem_mut().alloc(n * rows).unwrap();
        gpu.mem_mut().upload(src, 0, &host);
        let twf = bind_twiddle_texture(&mut gpu, n, Direction::Forward);
        let twi = bind_twiddle_texture(&mut gpu, n, Direction::Inverse);
        let cfg = batched_config(gpu.spec(), &plan, rows, true, "f");
        run_batched_fft(
            &mut gpu,
            &cfg,
            &plan,
            src,
            src,
            rows,
            Direction::Forward,
            twf,
        );
        run_batched_fft(
            &mut gpu,
            &cfg,
            &plan,
            src,
            src,
            rows,
            Direction::Inverse,
            twi,
        );
        let mut out = vec![Complex32::ZERO; n * rows];
        gpu.mem_mut().download(src, 0, &mut out);
        for (o, h) in out.iter().zip(&host) {
            assert!((o.scale(1.0 / n as f32) - *h).abs() < 1e-4);
        }
    }

    #[test]
    fn paper_decomposition_for_256() {
        // 256 = 4^4: four stages, three shared exchanges (§3.2: "data
        // exchange via shared memory at least three times"), 64 threads.
        let plan = FineFftPlan::new(256);
        assert_eq!(plan.stages().len(), 4);
        assert_eq!(plan.threads(), 64);
        assert!(plan.stages().iter().all(|s| s.radix == 4));
    }

    #[test]
    fn planner_finds_conflict_free_padding() {
        for n in [64usize, 128, 256, 512] {
            let plan = FineFftPlan::new(n);
            assert_eq!(plan.planned_conflicts, 0, "n={n}: planner left conflicts");
        }
    }

    #[test]
    fn measured_conflicts_are_zero_and_no_races() {
        let (_, rep) = run_case(256, 4, Direction::Forward);
        assert_eq!(rep.stats.shared_races, 0);
        assert_eq!(rep.stats.shared_conflict_rate(), 0.0, "{:?}", rep.stats);
        assert!(rep.stats.shared_reads > 0);
    }

    #[test]
    fn global_traffic_coalesces_and_is_minimal() {
        let (_, rep) = run_case(256, 8, Direction::Forward);
        assert!(rep.stats.coalesced_fraction() > 0.999, "{:?}", rep.stats);
        // Exactly one read and one write per element: the whole point of
        // keeping the mid-stages in shared memory.
        assert_eq!(rep.stats.loads, 256 * 8);
        assert_eq!(rep.stats.stores, 256 * 8);
    }

    #[test]
    fn twiddles_come_from_texture() {
        let (_, rep) = run_case(256, 2, Direction::Forward);
        assert!(rep.stats.tex_reads_cached > 0);
        assert_eq!(rep.stats.tex_reads_strided, 0);
    }

    #[test]
    fn shared_fits_within_sm() {
        for n in [64usize, 128, 256, 512] {
            let plan = FineFftPlan::new(n);
            assert!(
                plan.resources().shared_bytes_per_block <= 16 * 1024,
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unsupported row length")]
    fn rejects_1024() {
        FineFftPlan::new(1024);
    }
}
