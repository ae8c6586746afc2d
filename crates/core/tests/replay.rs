//! Replayed launches against the simulation they replay.
//!
//! The five-step, six-step and cufft-like plans launch through
//! `Gpu::launch_replay`: the first launch of a shape is simulated, later ones
//! run native loops and reuse the recorded report. The reference for every check here is a fresh
//! `Gpu`, whose first launch of any shape is always simulated, or the plain
//! `run_*` kernel, which never replays. Outputs, every `KernelReport` field,
//! the clock and the host backing must agree bit for bit.

use bifft::cufft_like::CufftLikeFft;
use bifft::five_step::FiveStepFft;
use bifft::kernel16::{pass_config, replay_strided_pass, run_strided_pass};
use bifft::kernel256::{
    batched_config, bind_twiddle_texture, replay_batched_fft, run_batched_fft, FineFftPlan,
};
use bifft::six_step::SixStepFft;
use bifft::transpose::{replay_rotate_zxy, rotate_config, run_rotate_zxy};
use bifft::RunReport;
use fft_math::layout::FiveStepPlanLayout;
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::{BufferId, DeviceSpec, Gpu, KernelReport};

fn random_data(len: usize, rng: &mut SplitMix64) -> Vec<Complex32> {
    (0..len)
        .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect()
}

fn bits(v: &[Complex32]) -> Vec<(u32, u32)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn pow2(rng: &mut SplitMix64, lo: u32, hi: u32) -> usize {
    1 << (lo + rng.below((hi - lo + 1) as usize) as u32)
}

fn direction(rng: &mut SplitMix64) -> Direction {
    if rng.below(2) == 0 {
        Direction::Forward
    } else {
        Direction::Inverse
    }
}

/// 0, the default 2, or every block of the grid.
fn trace_blocks(rng: &mut SplitMix64) -> usize {
    [0, 2, usize::MAX][rng.below(3)]
}

/// A five-step, six-step or cufft-like plan on one card, with its two
/// buffers.
enum Plan3d {
    Five(FiveStepFft),
    Six(SixStepFft),
    Cufft(CufftLikeFft),
}

#[derive(Clone, Copy, Debug)]
enum Algo {
    Five,
    Six,
    Cufft,
}

struct Card {
    gpu: Gpu,
    plan: Plan3d,
    v: BufferId,
    w: BufferId,
}

impl Card {
    fn new(algo: Algo, dims: (usize, usize, usize), trace_blocks: usize) -> Self {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        gpu.trace_blocks = trace_blocks;
        let (nx, ny, nz) = dims;
        let (plan, (v, w)) = match algo {
            Algo::Five => {
                let p = FiveStepFft::new(&mut gpu, nx, ny, nz);
                let b = p.alloc_buffers(&mut gpu).unwrap();
                (Plan3d::Five(p), b)
            }
            Algo::Six => {
                let p = SixStepFft::new(&mut gpu, nx, ny, nz);
                let b = p.alloc_buffers(&mut gpu).unwrap();
                (Plan3d::Six(p), b)
            }
            Algo::Cufft => {
                let p = CufftLikeFft::new(&mut gpu, nx, ny, nz);
                let b = p.alloc_buffers(&mut gpu).unwrap();
                (Plan3d::Cufft(p), b)
            }
        };
        Card { gpu, plan, v, w }
    }

    /// The cufft-like plan's spill area, whole; empty for the other plans.
    fn spill(&mut self) -> Vec<(u32, u32)> {
        let Plan3d::Cufft(p) = &self.plan else {
            return Vec::new();
        };
        let spill = p.spill().unwrap();
        let mut out = vec![Complex32::ZERO; self.gpu.mem().len(spill)];
        self.gpu.mem().download(spill, 0, &mut out);
        bits(&out)
    }

    fn transform(&mut self, host: &[Complex32], dir: Direction) -> (Vec<Complex32>, RunReport) {
        let (g, v, w) = (&mut self.gpu, self.v, self.w);
        match &self.plan {
            Plan3d::Five(p) => {
                p.upload(g, v, host);
                let rep = p.execute(g, v, w, dir);
                (p.download(g, v), rep)
            }
            Plan3d::Six(p) => {
                p.upload(g, v, host);
                let rep = p.execute(g, v, w, dir);
                (p.download(g, v), rep)
            }
            Plan3d::Cufft(p) => {
                g.mem_mut().upload(v, 0, host);
                let rep = p.execute(g, v, w, dir);
                let mut out = vec![Complex32::ZERO; host.len()];
                g.mem().download(v, 0, &mut out);
                (out, rep)
            }
        }
    }
}

/// Runs the three `inputs` of `dims` in the directions `dirs` on one card,
/// which replays every launch after the first transform (the direction
/// changes no counter, so it is not part of a launch's shape); a fresh card
/// runs each input once; a checked card (which never replays) runs the same
/// three in sequence. Outputs, reports and the cufft-like spill area, which
/// the plan keeps across transforms, must match the fresh card's after
/// each, and the final clock and host backing the checked card's.
fn plan_matches_fresh(
    what: &str,
    algo: Algo,
    dims: (usize, usize, usize),
    tb: usize,
    inputs: &[Vec<Complex32>],
    dirs: [Direction; 3],
) {
    let mut card = Card::new(algo, dims, tb);
    let mut checked = Card::new(algo, dims, tb);
    checked.gpu.check_enable();
    let mut steps = 0;
    for (k, (host, dir)) in inputs.iter().zip(dirs).enumerate() {
        let what = format!("{what} {dir:?}");
        let (out, rep) = card.transform(host, dir);
        let mut fresh = Card::new(algo, dims, tb);
        let (want, want_rep) = fresh.transform(host, dir);
        assert_eq!(bits(&out), bits(&want), "{what}: output {k}");
        assert_eq!(rep.steps, want_rep.steps, "{what}: report {k}");
        assert_eq!(card.spill(), fresh.spill(), "{what}: spill {k}");
        let (chk_out, chk_rep) = checked.transform(host, dir);
        assert_eq!(bits(&chk_out), bits(&want), "{what}: checked output {k}");
        assert_eq!(chk_rep.steps, want_rep.steps, "{what}: checked report {k}");
        assert_eq!(checked.spill(), fresh.spill(), "{what}: checked spill {k}");
        steps = rep.steps.len() as u64;
        // Every launch after the first transform's replays.
        let k = k as u64;
        assert_eq!(
            card.gpu.launch_counts(),
            ((k + 1) * steps, k * steps),
            "{what}: launches after transform {k}"
        );
    }
    assert_eq!(
        card.gpu.clock_s().to_bits(),
        checked.gpu.clock_s().to_bits(),
        "{what}: final clock"
    );
    assert_eq!(
        card.gpu.mem().backed_bytes(),
        checked.gpu.mem().backed_bytes(),
        "{what}: host backing"
    );
    assert_eq!(card.gpu.launch_counts(), (3 * steps, 2 * steps), "{what}");
    assert_eq!(checked.gpu.launch_counts(), (3 * steps, 0), "{what}");
    assert!(checked.gpu.check_report().unwrap().clean(), "{what}");
}

/// Random power-of-two five-step, six-step and cufft-like volumes (16–64
/// per axis), each algorithm under every `trace_blocks` setting, in random
/// directions.
#[test]
fn replayed_plans_match_fresh_simulation() {
    let mut rng = SplitMix64::new(0x5e91_a7ed);
    for case in 0..9 {
        let algo = [Algo::Five, Algo::Six, Algo::Cufft][case % 3];
        let dims = (
            pow2(&mut rng, 4, 6),
            pow2(&mut rng, 4, 6),
            pow2(&mut rng, 4, 6),
        );
        let tb = [0, 2, usize::MAX][case / 3];
        let what = format!("case {case}: {algo:?} dims={dims:?} trace_blocks={tb}");
        let vol = dims.0 * dims.1 * dims.2;
        let inputs: Vec<_> = (0..3).map(|_| random_data(vol, &mut rng)).collect();
        let dirs = [(); 3].map(|_| direction(&mut rng));
        plan_matches_fresh(&what, algo, dims, tb, &inputs, dirs);
    }
}

/// The native executors batch eight rows into lanes: eight consecutive `x`
/// for the strided passes, eight neighbouring rows for the multirow passes.
/// Plans whose X or multirow stride is 16 fill two groups, and an X of 4 or
/// 8 leaves one partial group; both directions.
#[test]
fn replayed_plans_on_narrow_axes_match_fresh_simulation() {
    let mut rng = SplitMix64::new(0x5e91_a7ee);
    let dirs = [Direction::Forward, Direction::Inverse, Direction::Forward];
    for algo in [Algo::Five, Algo::Cufft] {
        for dims in [(16, 16, 16), (16, 32, 16), (8, 16, 32), (4, 16, 16)] {
            let tb = trace_blocks(&mut rng);
            let what = format!("{algo:?} dims={dims:?} trace_blocks={tb}");
            let vol = dims.0 * dims.1 * dims.2;
            let inputs: Vec<_> = (0..3).map(|_| random_data(vol, &mut rng)).collect();
            plan_matches_fresh(&what, algo, dims, tb, &inputs, dirs);
        }
    }
}

/// Runs a kernel three times on each of two identical cards, with fresh
/// contents in the first `written` elements of `src` before each, forward,
/// inverse, then a random direction: `replay` on one card, `simulate` on
/// the other. Outputs (all of `src` and `dst`), reports, clocks and host
/// backing must agree, and the replaying card must have replayed the last
/// two.
fn same_as_simulated(
    what: &str,
    rng: &mut SplitMix64,
    setup: impl Fn(&mut Gpu) -> (BufferId, BufferId, usize),
    replay: impl Fn(&mut Gpu, BufferId, BufferId, Direction) -> KernelReport,
    simulate: impl Fn(&mut Gpu, BufferId, BufferId, Direction) -> KernelReport,
) {
    let mut cards = [
        Gpu::new(DeviceSpec::gt8800()),
        Gpu::new(DeviceSpec::gt8800()),
    ];
    let tb = trace_blocks(rng);
    let bufs = cards.each_mut().map(|g| {
        g.trace_blocks = tb;
        setup(g)
    });
    let (src, dst, written) = bufs[0];
    assert_eq!(bufs[0], bufs[1]);
    for k in 0..3 {
        let host = random_data(written, rng);
        let dir = [Direction::Forward, Direction::Inverse, direction(rng)][k];
        let what = format!("{what} {dir:?}");
        let mut outs = Vec::new();
        let mut reps = Vec::new();
        for (i, g) in cards.iter_mut().enumerate() {
            g.mem_mut().upload(src, 0, &host);
            reps.push(if i == 0 {
                replay(g, src, dst, dir)
            } else {
                simulate(g, src, dst, dir)
            });
            for b in [src, dst] {
                let mut out = vec![Complex32::ZERO; g.mem().len(b)];
                g.mem().download(b, 0, &mut out);
                outs.push(bits(&out));
            }
        }
        assert_eq!(outs[..2], outs[2..], "{what}: output {k}");
        assert_eq!(reps[0], reps[1], "{what}: report {k}");
    }
    let [a, b] = &cards;
    assert_eq!(
        a.clock_s().to_bits(),
        b.clock_s().to_bits(),
        "{what}: clock"
    );
    assert_eq!(
        a.mem().backed_bytes(),
        b.mem().backed_bytes(),
        "{what}: backing"
    );
    assert_eq!(a.launch_counts(), (3, 2), "{what}");
}

/// The row FFT of `rows` rows of `n` points, in place or out of place.
/// `src` has a tail past the rows that is never uploaded (it reads as zero)
/// and `dst` one that the pass never writes (it stays unbacked).
fn row_fft_matches(n: usize, rows: usize, in_place: bool, rng: &mut SplitMix64) {
    let plan = FineFftPlan::new(n);
    let what = format!("n={n} rows={rows} in_place={in_place}");
    let setup = |g: &mut Gpu| {
        let src = g.mem_mut().alloc(rows * n + 3).unwrap();
        let dst = if in_place {
            src
        } else {
            g.mem_mut().alloc(rows * n + 5).unwrap()
        };
        (src, dst, rows * n - n / 2)
    };
    same_as_simulated(
        &what,
        rng,
        setup,
        |g, s, d, dir| {
            let tw = bind_twiddle_texture(g, n, dir);
            let cfg = batched_config(g.spec(), &plan, rows, in_place, "rows");
            replay_batched_fft(g, &cfg, &plan, s, d, rows, dir, tw)
        },
        |g, s, d, dir| {
            let tw = bind_twiddle_texture(g, n, dir);
            let cfg = batched_config(g.spec(), &plan, rows, in_place, "rows");
            run_batched_fft(g, &cfg, &plan, s, d, rows, dir, tw)
        },
    );
}

/// The row FFT at every supported length and random row counts, in place
/// and out of place.
#[test]
fn replayed_row_fft_matches_simulation() {
    let mut rng = SplitMix64::new(0x0f17_0001);
    for n in [16usize, 32, 64, 128, 256, 512] {
        for in_place in [true, false] {
            let rows = 1 + rng.below(9);
            row_fft_matches(n, rows, in_place, &mut rng);
        }
    }
}

/// The native row FFT runs eight rows per group of lanes: row counts that
/// leave the last group partial (1, 3, 9 and 17 rows) at every length, so
/// both stage shapes meet a full and a partial group: radix 4 only (16, 64,
/// 256) and a radix-2 tail (32, 128, 512). In place and out of place.
#[test]
fn replayed_row_fft_covers_partial_lane_groups() {
    let mut rng = SplitMix64::new(0x0f17_0004);
    for n in [16usize, 32, 64, 128, 256, 512] {
        for rows in [1usize, 3, 9, 17] {
            for in_place in [true, false] {
                row_fft_matches(n, rows, in_place, &mut rng);
            }
        }
    }
}

/// Every strided pass of `layout`, with the first `written` elements of
/// the source uploaded (the rest read as zero).
fn strided_passes_match(layout: &FiveStepPlanLayout, written: usize, rng: &mut SplitMix64) {
    for pass in layout.strided_passes() {
        let what = format!("{layout:?} written={written} step {}", pass.step);
        let vol = layout.volume();
        same_as_simulated(
            &what,
            rng,
            |g| {
                let src = g.mem_mut().alloc(vol).unwrap();
                (src, g.mem_mut().alloc(vol + 7).unwrap(), written)
            },
            |g, s, d, dir| {
                let cfg = pass_config(g.spec(), &pass, "pass");
                replay_strided_pass(g, &cfg, s, d, &pass, dir)
            },
            |g, s, d, dir| {
                let cfg = pass_config(g.spec(), &pass, "pass");
                run_strided_pass(g, &cfg, s, d, &pass, dir)
            },
        );
    }
}

/// Every strided pass of random five-step layouts, with random digit
/// splits.
#[test]
fn replayed_strided_passes_match_simulation() {
    let mut rng = SplitMix64::new(0x0f17_0002);
    for _ in 0..4 {
        let nx = pow2(&mut rng, 2, 6);
        let (ya, yb) = (pow2(&mut rng, 1, 3), pow2(&mut rng, 1, 3));
        let (za, zb) = (pow2(&mut rng, 1, 3), pow2(&mut rng, 1, 3));
        let layout = FiveStepPlanLayout::with_splits(nx, ya * yb, za * zb, (ya, yb), (za, zb));
        strided_passes_match(&layout, layout.volume(), &mut rng);
    }
}

/// The native strided pass puts eight consecutive `x` in its lanes: 16-wide
/// Y and Z axes under an X of 16 (two full groups per row), 8 (one) and 4
/// (one partial group).
#[test]
fn replayed_strided_passes_on_16_wide_axes_match_simulation() {
    let mut rng = SplitMix64::new(0x0f17_0005);
    for nx in [16usize, 8, 4] {
        let layout = FiveStepPlanLayout::new(nx, 16, 16);
        strided_passes_match(&layout, layout.volume(), &mut rng);
    }
}

/// The native strided pass stages each `(f1, f2, f3)`'s runs through a
/// buffer: at an X of 128 with the source backed only part way, the
/// staged runs past the backed prefix must read zero, as the simulated
/// loads do.
#[test]
fn replayed_strided_passes_read_zeros_past_the_backed_prefix() {
    let mut rng = SplitMix64::new(0x0f17_0006);
    let layout = FiveStepPlanLayout::new(128, 16, 16);
    strided_passes_match(&layout, layout.volume() * 5 / 8 + 3, &mut rng);
}

/// The tiled rotation over random tile-multiple volumes.
#[test]
fn replayed_rotation_matches_simulation() {
    let mut rng = SplitMix64::new(0x0f17_0003);
    for _ in 0..6 {
        let nx = 16 * (1 + rng.below(3));
        let ny = 1 + rng.below(6);
        let nz = 16 * (1 + rng.below(3));
        let vol = nx * ny * nz;
        same_as_simulated(
            &format!("{nx}x{ny}x{nz}"),
            &mut rng,
            |g| {
                let src = g.mem_mut().alloc(vol).unwrap();
                (src, g.mem_mut().alloc(vol).unwrap(), vol)
            },
            |g, s, d, _| {
                let cfg = rotate_config(g.spec(), nx, ny, nz, "rotate");
                replay_rotate_zxy(g, &cfg, s, d, nx, ny, nz)
            },
            |g, s, d, _| {
                let cfg = rotate_config(g.spec(), nx, ny, nz, "rotate");
                run_rotate_zxy(g, &cfg, s, d, nx, ny, nz)
            },
        );
    }
}
