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
fn outcome(c: &mut Card, rep: &KernelReport) -> String {
    let dst = format!("{:?}", c.gpu.mem_mut().as_slice(c.dst));
    format!(
        "{:?}\n{:?}\n{dst}\n{:?}",
        rep.stats,
        rep.timing.time_s.to_bits(),
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
                outcome(&mut a, &rep_a),
                outcome(&mut b, &rep_b),
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
                outcome(&mut a, &rep_a),
                outcome(&mut b, &rep_b),
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

/// A named preparation of a device.
type Warm = (&'static str, fn(&mut Gpu));

/// A named launch on a card.
type Run = (&'static str, fn(&mut Card) -> KernelReport);

/// A card whose device first ran `warm` (on buffers of its own, allocated
/// after the card's so the card's addresses do not move) with the checker
/// still off.
fn warmed_card(trace_blocks: usize, check: bool, warm: fn(&mut Gpu)) -> Card {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let src = gpu.mem_mut().alloc(N).unwrap();
    let dst = gpu.mem_mut().alloc(N).unwrap();
    warm(&mut gpu);
    gpu.trace_blocks = trace_blocks;
    if check {
        gpu.check_enable();
    }
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

/// Earlier launches whose retired block state a later launch could inherit:
/// larger blocks, a larger shared allocation, racing shared memory, and
/// other trace-block counts.
fn warm_ups() -> [Warm; 4] {
    fn scratch(gpu: &mut Gpu) -> BufferId {
        let b = gpu.mem_mut().alloc(N).unwrap();
        gpu.mem_mut().upload(b, 0, &vec![c32(3.0, -1.0); N]);
        b
    }
    [
        ("larger block", |gpu| {
            let b = scratch(gpu);
            gpu.trace_blocks = GRID + 2;
            let cfg = LaunchConfig::copy("wide", GRID + 2, 4 * BLOCK);
            gpu.launch_items(&cfg, 3 * N, |t, i| {
                let v = t.ld(b, (i * 3) % N);
                t.st(b, (i * 11) % N, v);
            });
        }),
        ("larger shared", |gpu| {
            let b = scratch(gpu);
            let mut cfg = LaunchConfig::copy("wide_shared", 2 * GRID, 2 * BLOCK);
            cfg.resources.shared_bytes_per_block = 8 * 2 * BLOCK * 4;
            gpu.launch_coop_items(&cfg, 4 * GRID, |blk, tile| {
                blk.threads(|tid, t| {
                    let v = t.ld(b, (tile * 64 + tid) % N);
                    for k in 0..8 {
                        t.sh_write(k * 2 * BLOCK + tid, v.re + k as f32);
                    }
                });
                blk.sync();
            });
        }),
        ("racing shared", |gpu| {
            let b = scratch(gpu);
            let rep = gpu.launch_coop_items(&coop_cfg(), 2 * GRID, |blk, _| {
                blk.threads(|tid, t| t.sh_write(tid % 4, tid as f32));
                blk.threads(|tid, t| {
                    let x = t.sh_read((tid + 1) % 4);
                    t.st(b, tid, c32(x, 0.0));
                });
            });
            assert!(rep.stats.shared_races > 0);
        }),
        ("other trace blocks", |gpu| {
            let b = scratch(gpu);
            gpu.trace_blocks = 1;
            // Block-major: the traced block records 400 shared accesses per
            // thread before its one analysis, more than a pooled trace keeps.
            gpu.launch_coop(&coop_cfg(), |blk| {
                for tile in 0..200 {
                    exchange(blk, tile % (N / BLOCK), b, b);
                }
            });
            gpu.trace_blocks = GRID;
            let cfg = LaunchConfig::copy("traced", GRID, BLOCK);
            gpu.launch_items(&cfg, N, |t, i| {
                let v = t.ld(b, i);
                t.st(b, N - 1 - i, v);
            });
        }),
    ]
}

/// Launch state the device pools across launches never leaks: each kernel
/// leaves the same buffers, every `KernelStats` field, the same timing bits
/// and the same checker report on a device that ran other launches first
/// as on a fresh one.
#[test]
fn pooled_block_state_never_leaks_between_launches() {
    let run: [Run; 4] = [
        ("per-thread items", |c| {
            let bufs = (c.src, c.dst, c.table);
            let cfg = LaunchConfig::copy("strided", GRID, BLOCK);
            c.gpu.launch_items(&cfg, 4 * GRID * BLOCK + 37, |t, i| {
                strided(t, i, bufs, true)
            })
        }),
        ("cooperative items", |c| {
            let (src, dst) = (c.src, c.dst);
            c.gpu
                .launch_coop_items(&coop_cfg(), 5 * GRID + 2, |blk, tile| {
                    exchange(blk, tile, src, dst)
                })
        }),
        ("cooperative", |c| {
            let (src, dst) = (c.src, c.dst);
            c.gpu
                .launch_coop(&coop_cfg(), |blk| exchange(blk, blk.block, src, dst))
        }),
        // Shared memory starts zeroed: reading words no thread of the launch
        // wrote shows whatever a pooled memory still held.
        ("unwritten shared", |c| {
            let dst = c.dst;
            c.gpu.launch_coop(&coop_cfg(), |blk| {
                let base = blk.block * BLOCK;
                blk.threads(|tid, t| {
                    let x = t.sh_read(2 * tid + 1);
                    t.st(dst, base + tid, c32(x, 1.0));
                });
            })
        }),
    ];
    for (kernel, launch) in run {
        for (tb, check) in configurations() {
            let mut fresh = warmed_card(tb, check, |_| {});
            let rep = launch(&mut fresh);
            let want = outcome(&mut fresh, &rep);
            for (warm, warm_up) in warm_ups() {
                let mut c = warmed_card(tb, check, warm_up);
                let rep = launch(&mut c);
                assert_eq!(
                    outcome(&mut c, &rep),
                    want,
                    "{kernel} after {warm}, trace_blocks {tb}, check {check}"
                );
            }
        }
    }
}
