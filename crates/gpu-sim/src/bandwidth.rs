//! Micro-benchmark kernels: the measurements of §2.1 and Tables 3–4,
//! reproduced as real (functional) kernels on the simulator.
//!
//! These are the experiments the paper ran *before* designing the algorithm:
//! the multi-stream copy that shows bandwidth decaying with stream count, and
//! the pattern-to-pattern 16-element-row copy that fills Tables 3 and 4.

use crate::exec::{Gpu, KernelReport, LaunchConfig};
use crate::memory::BufferId;
use crate::occupancy::KernelResources;
use crate::timing::KernelClass;
use fft_math::layout::{AccessPattern, View5};

/// Runs a copy of `elems` elements split into `streams` interleaved streams.
///
/// Reproduces §2.1's measurement: "the bandwidth decreased from 71.7 GB/s for
/// a single stream down to 30.7 GB/s for 256 streams" (on the 8800 GTX). The
/// copy is functional: `dst[i] = src[i]`, with thread-to-element assignment
/// arranged so each of the `streams` regions is walked sequentially.
pub fn run_stream_copy(
    gpu: &mut Gpu,
    src: BufferId,
    dst: BufferId,
    elems: usize,
    streams: usize,
) -> KernelReport {
    assert!(
        streams >= 1 && elems.is_multiple_of(streams * 16),
        "elems must split evenly into streams of whole half-warps"
    );
    let res = KernelResources {
        threads_per_block: 64,
        regs_per_thread: 24,
        shared_bytes_per_block: 0,
    };
    let grid = gpu.fill_grid(&res);
    let cfg = LaunchConfig {
        name: "stream_copy",
        grid_blocks: grid,
        resources: res,
        class: KernelClass::StreamCopy,
        read_pattern: AccessPattern::X,
        write_pattern: AccessPattern::X,
        in_place: false,
        nominal_flops: 0,
        streams,
    };
    let per_stream = elems / streams;
    gpu.launch_items(&cfg, elems, |t, i| {
        // Half-warp-sized groups of consecutive threads walk consecutive
        // elements *within* one stream (so every access coalesces), while
        // successive groups rotate over the `streams` regions — keeping all
        // of them live at once, exactly the multirow-FFT traffic shape.
        let group = i / 16;
        let lane = i % 16;
        let stream = group % streams;
        let off = (group / streams) * 16 + lane;
        let idx = stream * per_stream + off;
        let v = t.ld(src, idx);
        t.st(dst, idx, v);
    })
}

/// Runs the Tables 3–4 microbenchmark: for every row of the 5-D view, read
/// its 16 (generally `fft_len`) points with the `read` pattern and write them
/// with the `write` pattern — a pure copy with the exact access geometry of a
/// 16-point FFT pass.
///
/// The paper used "42 thread blocks of 64 threads" on the GT and 48 on the
/// GTX; [`Gpu::fill_grid`] reproduces those counts.
pub fn run_pattern_copy(
    gpu: &mut Gpu,
    src: BufferId,
    dst: BufferId,
    view: View5,
    read: AccessPattern,
    write: AccessPattern,
) -> KernelReport {
    let rs = read
        .slot()
        .expect("pattern copy needs a strided read pattern");
    let ws = write
        .slot()
        .expect("pattern copy needs a strided write pattern");
    let n = view.extents[rs - 1];
    assert_eq!(
        n,
        view.extents[ws - 1],
        "read and write slots must have the same extent to permute rows"
    );

    let res = KernelResources {
        threads_per_block: 64,
        regs_per_thread: 40,
        shared_bytes_per_block: 0,
    };
    let grid = gpu.fill_grid(&res);
    let cfg = LaunchConfig {
        name: "pattern_copy",
        grid_blocks: grid,
        resources: res,
        class: KernelClass::Copy,
        read_pattern: read,
        write_pattern: write,
        in_place: false,
        nominal_flops: 0,
        streams: n,
    };

    // Enumerate rows x-fastest so half-warps touch consecutive addresses.
    let rows = view.len() / n;
    gpu.launch_items(&cfg, rows, |t, r| {
        // Decompose the row id into (x, the three fixed slots).
        let x = r % view.nx;
        let mut rest = r / view.nx;
        let mut fixed = [0usize; 3];
        for (k, slot) in (1..=4).filter(|&s| s != rs).enumerate() {
            let e = view.extents[slot - 1];
            fixed[k] = rest % e;
            rest /= e;
        }
        // Gather along the read slot, scatter along the write slot with
        // the running index preserved (a pure digit permutation).
        for j in 0..n {
            let mut s_in = [0usize; 4];
            let mut k = 0;
            for slot in 1..=4 {
                if slot == rs {
                    s_in[slot - 1] = j;
                } else {
                    s_in[slot - 1] = fixed[k];
                    k += 1;
                }
            }
            let v = t.ld(src, view.index(x, s_in));
            let mut s_out = [0usize; 4];
            let mut k = 0;
            for slot in 1..=4 {
                if slot == ws {
                    s_out[slot - 1] = j;
                } else {
                    s_out[slot - 1] = fixed[k];
                    k += 1;
                }
            }
            t.st(dst, view.index(x, s_out), v);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;
    use fft_math::c32;

    fn small_view() -> View5 {
        View5::new(64, [8, 8, 8, 8])
    }

    fn gpu_with_buffers(view: &View5) -> (Gpu, BufferId, BufferId) {
        let mut g = Gpu::new(DeviceSpec::gtx8800());
        let n = view.len();
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        for i in 0..n {
            g.mem_mut().write(src, i, c32(i as f32, -(i as f32)));
        }
        (g, src, dst)
    }

    #[test]
    fn stream_copy_is_functional_and_decays() {
        let mut g = Gpu::new(DeviceSpec::gtx8800());
        let n = 1 << 16;
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        for i in 0..n {
            g.mem_mut().write(src, i, c32(i as f32, 0.5));
        }
        let r1 = run_stream_copy(&mut g, src, dst, n, 1);
        for i in 0..n {
            assert_eq!(g.mem().read(dst, i), c32(i as f32, 0.5));
        }
        let r256 = run_stream_copy(&mut g, src, dst, n, 256);
        // §2.1 on the GTX: ~71.7 GB/s at 1 stream, ~30.7 at 256.
        assert!(
            (r1.timing.modeled_bandwidth_gbs - 71.7).abs() < 0.5,
            "{:?}",
            r1.timing
        );
        assert!(
            (r256.timing.modeled_bandwidth_gbs - 30.7).abs() < 0.6,
            "{:?}",
            r256.timing
        );
    }

    #[test]
    fn pattern_copy_permutes_correctly() {
        let view = small_view();
        let (mut g, src, dst) = gpu_with_buffers(&view);
        run_pattern_copy(&mut g, src, dst, view, AccessPattern::D, AccessPattern::A);
        // Element at (x, [a,b,c,j]) must land at (x, [j,a,b,c]).
        for j in 0..8 {
            for c in 0..8 {
                for b in 0..8 {
                    for a in 0..8 {
                        for x in [0usize, 13, 63] {
                            let from = view.index(x, [a, b, c, j]);
                            let to = view.index(x, [j, a, b, c]);
                            assert_eq!(g.mem().read(dst, to), c32(from as f32, -(from as f32)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pattern_copy_is_fully_coalesced() {
        let view = small_view();
        let (mut g, src, dst) = gpu_with_buffers(&view);
        for read in AccessPattern::STRIDED {
            for write in AccessPattern::STRIDED {
                let rep = run_pattern_copy(&mut g, src, dst, view, read, write);
                assert!(
                    rep.stats.coalesced_fraction() > 0.999,
                    "{}x{}: {:?}",
                    read.label(),
                    write.label(),
                    rep.stats
                );
            }
        }
    }

    #[test]
    fn pattern_copy_bandwidth_ordering_matches_table() {
        let view = small_view();
        let (mut g, src, dst) = gpu_with_buffers(&view);
        let bw = |g: &mut Gpu, r, w| {
            run_pattern_copy(g, src, dst, view, r, w)
                .timing
                .modeled_bandwidth_gbs
        };
        let aa = bw(&mut g, AccessPattern::A, AccessPattern::A);
        let da = bw(&mut g, AccessPattern::D, AccessPattern::A);
        let cc = bw(&mut g, AccessPattern::C, AccessPattern::C);
        let dd = bw(&mut g, AccessPattern::D, AccessPattern::D);
        assert!(aa > da && da > cc && cc > dd, "{aa} {da} {cc} {dd}");
    }

    #[test]
    #[should_panic(expected = "evenly")]
    fn stream_copy_rejects_ragged_split() {
        let mut g = Gpu::new(DeviceSpec::gt8800());
        let src = g.mem_mut().alloc(100).unwrap();
        let dst = g.mem_mut().alloc(100).unwrap();
        run_stream_copy(&mut g, src, dst, 100, 3);
    }
}
