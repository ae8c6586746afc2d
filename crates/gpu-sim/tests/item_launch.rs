//! The item launches against the hand-written grid-stride loops they
//! replace: a round-major run must leave the same buffers, the same
//! `KernelStats` (every field) and the same checker report as the
//! thread-major loop under `launch` / `launch_coop`.

use fft_math::{c32, Complex32};
use gpu_sim::exec::BlockCtx;
use gpu_sim::{BufferId, ConstId, DeviceSpec, Gpu, KernelReport, LaunchConfig, ThreadCtx};

const GRID: usize = 3;
const BLOCK: usize = 64;
const N: usize = 4096;

struct Card {
    gpu: Gpu,
    src: BufferId,
    dst: BufferId,
    table: ConstId,
}

fn card(trace_blocks: usize, check: bool) -> Card {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    gpu.trace_blocks = trace_blocks;
    if check {
        gpu.check_enable();
    }
    let src = gpu.mem_mut().alloc(N).unwrap();
    let dst = gpu.mem_mut().alloc(N).unwrap();
    let host: Vec<Complex32> = (0..N).map(|i| c32(i as f32, (i % 7) as f32)).collect();
    gpu.mem_mut().upload(src, 0, &host);
    gpu.mem_mut().upload(dst, 0, &vec![Complex32::ZERO; N]);
    let table = gpu.bind_constant((0..64).map(|i| c32(i as f32, 1.0)).collect());
    Card {
        gpu,
        src,
        dst,
        table,
    }
}

/// One item of the per-thread kernel: an uncoalesced stride-17 gather, a
/// partially broadcast constant fetch, and a coalesced store. With `skew`,
/// threads alternate an extra load over the first four rounds, so within a
/// round neighbouring lanes issue different numbers of loads while every
/// lane's whole stream stays the same length.
fn strided(t: &mut ThreadCtx, i: usize, c: (BufferId, BufferId, ConstId), skew: bool) {
    let (src, dst, table) = c;
    let (round, gid) = (i / t.total_threads(), t.gid());
    let mut v = t.ld(src, (i * 17) % N);
    if skew && round < 4 && (round + gid) % 2 == 0 {
        v += t.ld(src, (i * 5) % N);
    }
    let w = t.const_ld(table, (i % 64) / 4);
    t.flops(8);
    t.st(dst, i, v * w);
}

/// One tile of the cooperative kernel: stage through shared memory with a
/// 2-way bank conflict on the way in, read back reversed. Every third tile
/// skips the barrier, so shared races depend on each block's shared memory
/// carrying its race provenance from one tile to the next.
fn exchange(blk: &mut BlockCtx, tile: usize, src: BufferId, dst: BufferId) {
    let base = tile * BLOCK;
    blk.threads(|tid, t| {
        let v = t.ld(src, base + tid);
        t.sh_write(2 * tid, v.re);
    });
    if !tile.is_multiple_of(3) {
        blk.sync();
    }
    blk.threads(|tid, t| {
        let x = t.sh_read(2 * (BLOCK - 1 - tid));
        t.st(dst, base + tid, c32(x, tile as f32));
    });
    blk.sync();
}

fn coop_cfg() -> LaunchConfig {
    let mut cfg = LaunchConfig::copy("exchange", GRID, BLOCK);
    cfg.resources.shared_bytes_per_block = 2 * BLOCK * 4;
    cfg
}

/// Everything a launch leaves behind that must not depend on visit order.
fn outcome(c: &Card, rep: &KernelReport) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        rep.stats,
        rep.timing.time_s.to_bits(),
        c.gpu.mem().as_slice(c.dst),
        c.gpu.check_report()
    )
}

fn configurations() -> impl Iterator<Item = (usize, bool)> {
    [0, 2, GRID]
        .into_iter()
        .flat_map(|tb| [(tb, false), (tb, true)])
}

#[test]
fn per_thread_items_match_the_grid_stride_loop() {
    let total = GRID * BLOCK;
    // Whole rounds, a ragged last round, and less than one round.
    for items in [4 * total, 4 * total + 37, 100] {
        let skew = items >= 4 * total;
        for (tb, check) in configurations() {
            let cfg = LaunchConfig::copy("strided", GRID, BLOCK);
            let mut a = card(tb, check);
            let bufs = (a.src, a.dst, a.table);
            let rep_a = a.gpu.launch(&cfg, |t| {
                let mut i = t.gid();
                while i < items {
                    strided(t, i, bufs, skew);
                    i += t.total_threads();
                }
            });
            let mut b = card(tb, check);
            let bufs = (b.src, b.dst, b.table);
            let rep_b = b
                .gpu
                .launch_items(&cfg, items, |t, i| strided(t, i, bufs, skew));
            assert_eq!(
                outcome(&a, &rep_a),
                outcome(&b, &rep_b),
                "items {items}, trace_blocks {tb}, check {check}"
            );
            if tb > 0 {
                assert!(rep_b.stats.sampled_load_halfwarps > 0);
                assert!(rep_b.stats.sampled_const_serial_cycles > 0);
                // Strides need a second item per thread.
                assert_eq!(rep_b.stats.sampled_load_strides.is_empty(), items <= total);
            }
        }
    }
}

#[test]
fn cooperative_items_match_the_grid_stride_loop() {
    let cfg = coop_cfg();
    for items in [5 * GRID, 5 * GRID + 2, 2] {
        for (tb, check) in configurations() {
            let mut a = card(tb, check);
            let (src, dst) = (a.src, a.dst);
            let rep_a = a.gpu.launch_coop(&cfg, |blk| {
                let mut tile = blk.block;
                while tile < items {
                    exchange(blk, tile, src, dst);
                    tile += blk.grid_dim;
                }
            });
            let mut b = card(tb, check);
            let (src, dst) = (b.src, b.dst);
            let rep_b = b
                .gpu
                .launch_coop_items(&cfg, items, |blk, tile| exchange(blk, tile, src, dst));
            assert_eq!(
                outcome(&a, &rep_a),
                outcome(&b, &rep_b),
                "items {items}, trace_blocks {tb}, check {check}"
            );
            assert!(rep_b.stats.shared_races > 0);
            if tb > 0 {
                assert!(rep_b.stats.sampled_shared_conflict_cycles > 0);
                assert!(rep_b.stats.bank_conflicts.iter().any(|&c| c > 0));
            }
        }
    }
}
