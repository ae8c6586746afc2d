//! Property-style tests on the simulator's invariants.
//!
//! Formerly `proptest`-driven; the workspace builds against an empty cargo
//! registry, so each property now sweeps a deterministic SplitMix64 case set.
//! The assertions themselves are unchanged.

use fft_math::layout::AccessPattern;
use fft_math::rng::SplitMix64;
use gpu_sim::coalesce;
use gpu_sim::constmem::broadcast_cycles;
use gpu_sim::dram::DRAM_ROW_BYTES;
use gpu_sim::dram::{self, BandwidthQuery};
use gpu_sim::occupancy::{occupancy, KernelResources};
use gpu_sim::pcie::{transfer_time, Dir};
use gpu_sim::shared::{accumulate_bank_conflicts, bank_conflict_degree};
use gpu_sim::spec::{DeviceSpec, CUDA1_ARCH};
use gpu_sim::{DeviceMemory, Gpu, LaunchConfig};
use std::collections::{BTreeMap, BTreeSet};

const PATTERNS: [AccessPattern; 5] = [
    AccessPattern::A,
    AccessPattern::B,
    AccessPattern::C,
    AccessPattern::D,
    AccessPattern::X,
];

/// A sequential, aligned half-warp always coalesces; its efficiency is 1.
#[test]
fn aligned_sequential_coalesces() {
    let mut rng = SplitMix64::new(0x6A11_0001);
    for _ in 0..48 {
        let base_blocks = rng.below(1000) as u64;
        let word = [4u32, 8, 16][rng.below(3)];
        let base = base_blocks * 16 * word as u64;
        let addrs: Vec<u64> = (0..16).map(|k| base + k * word as u64).collect();
        let r = coalesce::analyze(&addrs, word);
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }
}

/// Perturbing any single lane of a sequential half-warp breaks
/// coalescing (unless the perturbation is a no-op).
#[test]
fn perturbation_breaks_coalescing() {
    let mut rng = SplitMix64::new(0x6A11_0002);
    for lane in 0..16usize {
        for _ in 0..4 {
            let delta = 1 + rng.below(63) as u64;
            let mut addrs: Vec<u64> = (0..16u64).map(|k| 4096 + k * 8).collect();
            addrs[lane] += delta;
            let r = coalesce::analyze(&addrs, 8);
            assert!(!r.coalesced);
            assert!(r.efficiency() <= 0.5);
        }
    }
}

/// Bus bytes never undercount useful bytes.
#[test]
fn bus_bytes_cover_useful() {
    let mut rng = SplitMix64::new(0x6A11_0003);
    for _ in 0..48 {
        let len = rng.below(16);
        // Align addresses to the word size to stay in-spec.
        let addrs: Vec<u64> = (0..len).map(|_| rng.below(10_000) as u64 * 8).collect();
        let r = coalesce::analyze(&addrs, 8);
        assert!(r.bus_bytes >= r.useful_bytes);
        assert!(r.efficiency() <= 1.0 + 1e-12);
    }
}

/// Bank-conflict degree is bounded by [1, lanes] and padding by an
/// odd skew never increases the degree of a constant-stride access.
#[test]
fn conflict_degree_bounds() {
    for stride in 1usize..64 {
        let idx: Vec<usize> = (0..16).map(|k| k * stride).collect();
        let d = bank_conflict_degree(&idx, 16);
        assert!((1..=16).contains(&(d as usize)));
        // Odd strides are always conflict-free on 16 banks.
        if stride % 2 == 1 {
            assert_eq!(d, 1);
        }
    }
}

/// Occupancy is monotone non-increasing in register pressure and always
/// respects the hardware caps.
#[test]
fn occupancy_monotone_in_registers() {
    let mut rng = SplitMix64::new(0x6A11_0004);
    for tpb_pow in 4u32..9 {
        for _ in 0..12 {
            let regs = 1 + rng.below(63);
            let tpb = 1usize << tpb_pow; // 16..256
            let res_a = KernelResources {
                threads_per_block: tpb,
                regs_per_thread: regs,
                shared_bytes_per_block: 0,
            };
            let res_b = KernelResources {
                regs_per_thread: regs + 1,
                ..res_a
            };
            if (regs + 1) * tpb <= CUDA1_ARCH.registers_per_sm {
                let a = occupancy(&CUDA1_ARCH, &res_a);
                let b = occupancy(&CUDA1_ARCH, &res_b);
                assert!(b.threads_per_sm <= a.threads_per_sm);
                assert!(a.threads_per_sm <= CUDA1_ARCH.max_threads_per_sm);
                assert!(a.blocks_per_sm <= CUDA1_ARCH.max_blocks_per_sm);
                assert!(
                    a.blocks_per_sm * res_a.regs_per_thread * tpb <= CUDA1_ARCH.registers_per_sm
                );
            }
        }
    }
}

/// Effective bandwidth never exceeds the card's copy base and decays
/// monotonically with fewer resident threads.
#[test]
fn bandwidth_bounded_and_monotone() {
    let mut rng = SplitMix64::new(0x6A11_0005);
    for _ in 0..24 {
        let rp = PATTERNS[rng.below(5)];
        let wp = PATTERNS[rng.below(5)];
        let threads = 1 + rng.below(767);
        for spec in DeviceSpec::all_cards() {
            let q = BandwidthQuery {
                read_pattern: rp,
                write_pattern: wp,
                threads_per_sm: threads,
                coalesce_efficiency: 1.0,
                in_place: false,
                carries_compute: false,
            };
            let bw = dram::effective_bandwidth_gbs(&spec, &q);
            assert!(bw > 0.0);
            assert!(bw <= dram::copy_base_gbs(&spec) * 1.001);
            let q2 = BandwidthQuery {
                threads_per_sm: threads + 1,
                ..q
            };
            assert!(dram::effective_bandwidth_gbs(&spec, &q2) >= bw - 1e-9);
        }
    }
}

/// Stream decay is within (0, 1] and monotone.
#[test]
fn stream_decay_properties() {
    let mut rng = SplitMix64::new(0x6A11_0006);
    for _ in 0..64 {
        let s = 1 + rng.below(100_000);
        let d = dram::stream_decay(s);
        assert!(d > 0.0 && d <= 1.0);
        assert!(dram::stream_decay(s + 1) <= d);
    }
}

/// PCIe transfer time is additive-monotone in bytes and chunk count, and
/// achieved bandwidth never exceeds the link rate.
#[test]
fn pcie_monotonicity() {
    let mut rng = SplitMix64::new(0x6A11_0007);
    for _ in 0..16 {
        let bytes = 1 + rng.below(1_000_000_000) as u64;
        let chunks = 1 + rng.below(255);
        for gen in [gpu_sim::PcieGen::Gen1x16, gpu_sim::PcieGen::Gen2x16] {
            for dir in [Dir::H2D, Dir::D2H] {
                let t = transfer_time(gen, dir, bytes, chunks);
                assert!(t.time_s > 0.0);
                assert!(t.achieved_gbs <= gpu_sim::pcie::link_bandwidth_gbs(gen, dir) + 1e-9);
                let bigger = transfer_time(gen, dir, bytes + 1024, chunks);
                assert!(bigger.time_s >= t.time_s);
                let more_chunks = transfer_time(gen, dir, bytes, chunks + 1);
                assert!(more_chunks.time_s >= t.time_s);
            }
        }
    }
}

/// Device-memory accounting: used bytes equal the sum of live buffers
/// under any alloc/free interleaving.
#[test]
fn memory_accounting() {
    let mut rng = SplitMix64::new(0x6A11_0008);
    for _ in 0..24 {
        let op_count = 1 + rng.below(39);
        let mut mem = DeviceMemory::new(64 * 1024 * 1024);
        let mut live: Vec<(gpu_sim::BufferId, usize)> = Vec::new();
        let mut expected = 0u64;
        for _ in 0..op_count {
            let len = 1 + rng.below(4095);
            let free_one = rng.next_u64() & 1 == 1;
            if free_one && !live.is_empty() {
                let (id, n) = live.remove(live.len() / 2);
                mem.free(id);
                expected -= n as u64 * 8;
            } else if let Ok(id) = mem.alloc(len) {
                live.push((id, len));
                expected += len as u64 * 8;
            }
            assert_eq!(mem.used_bytes(), expected);
        }
        // Live buffers remain addressable and disjoint.
        for (id, len) in &live {
            assert_eq!(mem.len(*id), *len);
        }
    }
}

/// A random half-warp of `lanes` word indices, mixing the shapes the
/// analysis meets: scattered words, a few words with duplicates, a full
/// broadcast, and constant strides.
fn random_halfwarp(rng: &mut SplitMix64, lanes: usize) -> Vec<usize> {
    match rng.below(4) {
        0 => (0..lanes).map(|_| rng.below(4096)).collect(),
        1 => (0..lanes)
            .map(|_| rng.below(4) * 16 + rng.below(2))
            .collect(),
        2 => vec![rng.below(4096); lanes],
        _ => {
            let (base, stride) = (rng.below(1024), rng.below(40));
            (0..lanes).map(|k| base + k * stride).collect()
        }
    }
}

/// Distinct words per bank, the naive way: a set per bank.
fn naive_bank_words(words: &[usize], banks: usize) -> Vec<usize> {
    let mut per_bank = vec![BTreeSet::new(); banks];
    for &w in words {
        per_bank[w % banks].insert(w);
    }
    per_bank.iter().map(BTreeSet::len).collect()
}

/// The allocation-free bank and broadcast helpers agree with set-based
/// references on random half-warps, for 16 and 32 banks and partial
/// (inactive-tail) half-warps.
#[test]
fn analysis_helpers_match_naive_references() {
    let mut rng = SplitMix64::new(0x6A11_0009);
    for _ in 0..400 {
        let banks = [16, 32][rng.below(2)];
        let lanes = 1 + rng.below(banks);
        let words = random_halfwarp(&mut rng, lanes);
        let per_bank = naive_bank_words(&words, banks);

        let degree = per_bank.iter().copied().max().unwrap_or(0).max(1);
        assert_eq!(bank_conflict_degree(&words, banks) as usize, degree);

        let mut heat = vec![0u64; banks];
        heat[0] = 3; // accumulates onto what is there
        let got = accumulate_bank_conflicts(&words, banks, &mut heat);
        assert_eq!(got as usize, degree);
        for (b, &n) in per_bank.iter().enumerate() {
            let prior = if b == 0 { 3 } else { 0 };
            assert_eq!(heat[b], prior + n.saturating_sub(1) as u64, "bank {b}");
        }

        let distinct: BTreeSet<usize> = words.iter().copied().collect();
        assert_eq!(broadcast_cycles(&words) as usize, 2 * distinct.len().max(1));
    }
    assert_eq!(broadcast_cycles(&[]), 2);
}

/// The sampled stride histogram and distinct-row counts of a traced launch
/// agree with a map-based reference computed from the addresses the kernel
/// issued: per half-warp, the jump between consecutive ordinals' lowest
/// addresses (zero jumps excluded), and every DRAM row any lane touched.
#[test]
fn sampled_strides_and_rows_match_naive_reference() {
    let mut rng = SplitMix64::new(0x6A11_000A);
    let n = 1 << 16;
    for _ in 0..12 {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let half_warp = gpu.spec().arch.half_warp;
        let (blocks, threads) = (1 + rng.below(3), 16 * (1 + rng.below(4)));
        let ordinals = 1 + rng.below(12);
        let buf = gpu.mem_mut().alloc(n).unwrap();
        // idx[o][gid]: element each thread loads (and stores, reversed) at
        // ordinal o, in half-warp-shaped groups.
        let idx: Vec<Vec<usize>> = (0..ordinals)
            .map(|_| {
                (0..blocks * threads / half_warp)
                    .flat_map(|_| random_halfwarp(&mut rng, half_warp))
                    .map(|w| w * 7 % n)
                    .collect()
            })
            .collect();
        let cfg = LaunchConfig::copy("sampled", blocks, threads);
        let rep = gpu.launch(&cfg, |t| {
            let g = t.gid();
            for row in &idx {
                let v = t.ld(buf, row[g]);
                t.st(buf, row[row.len() - 1 - g], v);
            }
        });

        let addr = |i: usize| gpu.mem().addr(buf, i);
        let mut strides = [BTreeMap::new(), BTreeMap::new()];
        let mut rows = [BTreeSet::new(), BTreeSet::new()];
        for b in 0..blocks.min(gpu.trace_blocks) {
            for hw in (0..threads).step_by(half_warp) {
                let mut prev = [None, None];
                for row in &idx {
                    let gids = (b * threads + hw..b * threads + hw + half_warp).collect::<Vec<_>>();
                    let side = [
                        gids.iter().map(|&g| addr(row[g])).collect::<Vec<_>>(),
                        gids.iter().map(|&g| addr(row[row.len() - 1 - g])).collect(),
                    ];
                    for (s, addrs) in side.iter().enumerate() {
                        let base = *addrs.iter().min().unwrap();
                        if let Some(p) = prev[s] {
                            let d: u64 = base.abs_diff(p);
                            if d > 0 {
                                *strides[s].entry(d).or_insert(0u64) += 1;
                            }
                        }
                        prev[s] = Some(base);
                        rows[s].extend(addrs.iter().map(|a| a / DRAM_ROW_BYTES));
                    }
                }
            }
        }
        let hist = |m: &BTreeMap<u64, u64>| m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>();
        assert_eq!(rep.stats.sampled_load_strides, hist(&strides[0]));
        assert_eq!(rep.stats.sampled_store_strides, hist(&strides[1]));
        assert_eq!(rep.stats.sampled_load_rows, rows[0].len() as u64);
        assert_eq!(rep.stats.sampled_store_rows, rows[1].len() as u64);
    }
}
