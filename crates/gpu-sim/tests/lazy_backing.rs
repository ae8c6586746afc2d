//! Device buffers are backed on the host only up to the furthest element
//! written: random operation sequences against a fully backed reference,
//! and the host footprint of large, sparsely written buffers.

use fft_math::rng::SplitMix64;
use fft_math::{c32, Complex32};
use gpu_sim::memory::ELEM_BYTES;
use gpu_sim::{BufferId, DeviceMemory, DeviceSpec, Gpu, LaunchConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn value(rng: &mut SplitMix64) -> Complex32 {
    c32(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0))
}

/// A random in-bounds range `offset..offset + len` of a `total`-element
/// buffer.
fn range(rng: &mut SplitMix64, total: usize) -> (usize, usize) {
    let offset = rng.below(total);
    (offset, rng.below(total - offset + 1))
}

fn panics(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

/// Seeded alloc/upload/write/read/download/as_slice/free sequences agree
/// with a reference that backs every buffer in full: identical values and
/// lengths, zero for every element never written, and out-of-bounds
/// accesses panic without disturbing the arena.
#[test]
fn lazy_buffers_match_a_fully_backed_reference() {
    for seed in 0..6u64 {
        let mut rng = SplitMix64::new(0x1A2B_0000 + seed);
        let mut mem = DeviceMemory::new(1 << 30);
        // Live buffers with their reference contents.
        let mut live: Vec<(BufferId, Vec<Complex32>)> = Vec::new();
        for step in 0..2000 {
            let op = if live.is_empty() { 0 } else { rng.below(8) };
            let pick = rng.below(live.len().max(1));
            let ctx = format!("seed {seed}, step {step}, op {op}");
            match op {
                0 if live.len() < 10 => {
                    let len = if rng.below(4) == 0 {
                        1 << 16
                    } else {
                        1 + rng.below(4096)
                    };
                    let id = mem.alloc(len).unwrap();
                    let probe = rng.below(len);
                    assert_eq!(mem.read(id, probe), Complex32::ZERO, "{ctx}");
                    live.push((id, vec![Complex32::ZERO; len]));
                }
                0 | 1 => {
                    let (id, want) = &mut live[pick];
                    let (offset, n) = range(&mut rng, want.len());
                    let host: Vec<Complex32> = (0..n).map(|_| value(&mut rng)).collect();
                    mem.upload(*id, offset, &host);
                    want[offset..offset + n].copy_from_slice(&host);
                }
                2 => {
                    let (id, want) = &mut live[pick];
                    let idx = rng.below(want.len());
                    let v = value(&mut rng);
                    mem.write(*id, idx, v);
                    want[idx] = v;
                }
                3 => {
                    let (id, want) = &live[pick];
                    let idx = rng.below(want.len());
                    assert_eq!(mem.read(*id, idx), want[idx], "{ctx}");
                }
                4 => {
                    let (id, want) = &live[pick];
                    let (offset, n) = range(&mut rng, want.len());
                    let mut host = vec![c32(9.0, 9.0); n];
                    mem.download(*id, offset, &mut host);
                    assert_eq!(host, want[offset..offset + n], "{ctx}");
                }
                5 => {
                    let (id, want) = &live[pick];
                    assert_eq!(mem.as_slice(*id), &want[..], "{ctx}");
                }
                6 => {
                    let (id, _) = live.swap_remove(pick);
                    mem.free(id);
                }
                _ => {
                    let (id, want) = &live[pick];
                    let (id, len) = (*id, want.len());
                    let past = len + rng.below(4);
                    let mut host = vec![Complex32::ZERO; 2];
                    let oob = match rng.below(4) {
                        0 => panics(|| {
                            mem.read(id, past);
                        }),
                        1 => panics(|| mem.write(id, past, c32(1.0, 1.0))),
                        2 => panics(|| mem.upload(id, len - 1, &host)),
                        _ => panics(|| mem.download(id, len - 1, &mut host)),
                    };
                    assert!(oob, "{ctx}: out-of-bounds access did not panic");
                }
            }
            for (id, want) in &live {
                assert_eq!(mem.len(*id), want.len(), "{ctx}");
            }
            let used: usize = live.iter().map(|(_, w)| w.len()).sum();
            assert_eq!(mem.used_bytes(), used as u64 * ELEM_BYTES, "{ctx}");
        }
        for (id, want) in &live {
            assert_eq!(mem.as_slice(*id), &want[..], "seed {seed}: final contents");
        }
    }
}

/// 64 buffers of 8 MiB, each with 512 elements uploaded, charge the full
/// 512 MiB to the modelled card but hold only what was written on the host.
/// A kernel storing into the head of a fresh 8 MiB buffer backs only that
/// head too.
#[test]
fn sparse_buffers_cost_host_memory_only_where_written() {
    let big = 1 << 20;
    let mut mem = DeviceMemory::new(512 << 20);
    for i in 0..64 {
        let id = mem.alloc(big).unwrap();
        mem.upload(id, 0, &vec![c32(i as f32, 1.0); 512]);
        assert_eq!(mem.read(id, big - 1), Complex32::ZERO);
    }
    assert_eq!(mem.used_bytes(), 512 << 20);
    assert!(mem.backed_bytes() < 1 << 20, "{} B", mem.backed_bytes());

    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let src = gpu.mem_mut().alloc(big).unwrap();
    let dst = gpu.mem_mut().alloc(big).unwrap();
    let host: Vec<Complex32> = (0..512).map(|i| c32(i as f32, 0.0)).collect();
    gpu.mem_mut().upload(src, 0, &host);
    gpu.launch_items(&LaunchConfig::copy("head_copy", 2, 64), 512, |t, i| {
        let v = t.ld(src, i);
        t.st(dst, i, v);
    });
    let mut back = vec![Complex32::ZERO; 512];
    gpu.mem().download(dst, 0, &mut back);
    assert_eq!(back, host);
    assert_eq!(gpu.mem().used_bytes(), 2 * big as u64 * ELEM_BYTES);
    assert!(
        gpu.mem().backed_bytes() < 1 << 20,
        "{} B",
        gpu.mem().backed_bytes()
    );
}
