//! Elementwise device kernels: scaling, pointwise complex multiply, and the
//! out-of-core twiddle multiply.
//!
//! These are the "other computation" §4.4 argues should be moved onto the
//! card so the working set stays resident: a 3-D convolution needs a
//! pointwise spectrum product between the forward and inverse transforms,
//! and the §3.3 large-FFT decomposition needs an inter-slab twiddle pass.

use fft_math::twiddle::{slab_twiddles, Direction};
use gpu_sim::{BufferId, Gpu, KernelClass, KernelReport, KernelResources, LaunchConfig};

fn elementwise_resources() -> KernelResources {
    KernelResources {
        threads_per_block: 64,
        regs_per_thread: 16,
        shared_bytes_per_block: 0,
    }
}

fn elementwise_cfg(name: &'static str, grid: usize, in_place: bool, flops: u64) -> LaunchConfig {
    LaunchConfig {
        name,
        grid_blocks: grid,
        resources: elementwise_resources(),
        class: KernelClass::Copy,
        read_pattern: fft_math::layout::AccessPattern::X,
        write_pattern: fft_math::layout::AccessPattern::X,
        in_place,
        nominal_flops: flops,
        streams: 1,
    }
}

/// Scales every element of `buf` by the real factor `s` (e.g. the `1/N`
/// normalisation after an inverse transform).
pub fn run_scale(gpu: &mut Gpu, buf: BufferId, len: usize, s: f32) -> KernelReport {
    let res = elementwise_resources();
    let grid = gpu.fill_grid(&res);
    let cfg = elementwise_cfg("scale", grid, true, 2 * len as u64);
    gpu.launch_items(&cfg, len, |t, i| {
        let v = t.ld(buf, i);
        t.st(buf, i, v.scale(s));
        t.flops(2);
    })
}

/// Pointwise spectrum product `dst[i] = a[i] * b[i] * s` — the correlation /
/// convolution core. `conj_b` computes `a[i] * conj(b[i]) * s` instead
/// (cross-correlation, the docking score).
pub fn run_pointwise_mul(
    gpu: &mut Gpu,
    a: BufferId,
    b: BufferId,
    dst: BufferId,
    len: usize,
    s: f32,
    conj_b: bool,
) -> KernelReport {
    let res = elementwise_resources();
    let grid = gpu.fill_grid(&res);
    let cfg = elementwise_cfg("pointwise_mul", grid, dst == a || dst == b, 8 * len as u64);
    gpu.launch_items(&cfg, len, |t, i| {
        let va = t.ld(a, i);
        let vb = t.ld(b, i);
        let vb = if conj_b { vb.conj() } else { vb };
        t.st(dst, i, (va * vb).scale(s));
        t.flops(8);
    })
}

/// The `MULTIPLY_TWIDDLE(I)` kernel of §3.3: multiplies plane `j` of a slab
/// (plane size `plane` elements, `planes` planes) by `W_{z_total}^{slab·j}`.
pub fn run_slab_twiddle(
    gpu: &mut Gpu,
    buf: BufferId,
    plane: usize,
    planes: usize,
    z_total: usize,
    slab: usize,
    dir: Direction,
) -> KernelReport {
    let tw = slab_twiddles(z_total, slab, planes, dir);
    let len = plane * planes;
    let res = elementwise_resources();
    let grid = gpu.fill_grid(&res);
    let cfg = elementwise_cfg("slab_twiddle", grid, true, 6 * len as u64);
    gpu.launch_items(&cfg, len, |t, i| {
        let w = tw[i / plane];
        let v = t.ld(buf, i);
        t.st(buf, i, v * w);
        t.flops(6);
    })
}

/// Device-resident argmax of `|v|²` — the docking scorer's final reduction,
/// returning `(index, score)`. On real hardware this is a two-level
/// reduction; the result (8 bytes) is what crosses the bus instead of the
/// whole volume, which is the entire point of §4.4.
pub fn run_argmax_norm(gpu: &mut Gpu, buf: BufferId, len: usize) -> (usize, f32, KernelReport) {
    let res = elementwise_resources();
    let grid = gpu.fill_grid(&res);
    let cfg = LaunchConfig {
        name: "argmax",
        grid_blocks: grid,
        resources: res,
        class: KernelClass::Copy,
        read_pattern: fft_math::layout::AccessPattern::X,
        write_pattern: fft_math::layout::AccessPattern::X,
        in_place: false,
        nominal_flops: 3 * len as u64,
        streams: 1,
    };
    let total = grid * res.threads_per_block;
    let mut best = (0usize, f32::MIN);
    // The fold into `best` breaks ties by visit order, so this keeps its own
    // thread-major loop instead of the round-major `launch_items`.
    let rep = gpu.launch(&cfg, |t| {
        let mut i = t.gid();
        while i < len {
            let v = t.ld(buf, i);
            let s = v.norm_sqr();
            t.flops(3);
            if s > best.1 {
                best = (i, s);
            }
            i += total;
        }
    });
    (best.0, best.1, rep)
}

/// Device-resident total energy `Σ |v|²` — the Parseval check / spectral
/// power reduction. Like the argmax kernels, only the 8-byte result crosses
/// the bus instead of the whole volume.
pub fn run_energy(gpu: &mut Gpu, buf: BufferId, len: usize) -> (f32, KernelReport) {
    let res = elementwise_resources();
    let grid = gpu.fill_grid(&res);
    let cfg = elementwise_cfg("energy", grid, false, 4 * len as u64);
    let total = grid * res.threads_per_block;
    let mut acc = 0.0f64;
    // A floating-point sum depends on visit order: thread-major loop, as in
    // `run_argmax_norm`.
    let rep = gpu.launch(&cfg, |t| {
        let mut i = t.gid();
        while i < len {
            let v = t.ld(buf, i);
            t.flops(4);
            acc += v.norm_sqr() as f64;
            i += total;
        }
    });
    (acc as f32, rep)
}

/// Device-resident argmax of the *signed real part* — the docking scorer's
/// reduction (shape-complementarity scores are real, and core clashes are
/// large negative values that a magnitude argmax would wrongly select).
pub fn run_argmax_re(gpu: &mut Gpu, buf: BufferId, len: usize) -> (usize, f32, KernelReport) {
    let res = elementwise_resources();
    let grid = gpu.fill_grid(&res);
    let cfg = elementwise_cfg("argmax_re", grid, false, len as u64);
    let total = grid * res.threads_per_block;
    let mut best = (0usize, f32::MIN);
    // Ties break by visit order: thread-major loop, as in `run_argmax_norm`.
    let rep = gpu.launch(&cfg, |t| {
        let mut i = t.gid();
        while i < len {
            let v = t.ld(buf, i);
            t.flops(1);
            if v.re > best.1 {
                best = (i, v.re);
            }
            i += total;
        }
    });
    (best.0, best.1, rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::{c32, Complex32};
    use gpu_sim::DeviceSpec;

    fn gpu_with(vals: &[Complex32]) -> (Gpu, BufferId) {
        let mut g = Gpu::new(DeviceSpec::gt8800());
        let b = g.mem_mut().alloc(vals.len()).unwrap();
        g.mem_mut().upload(b, 0, vals);
        (g, b)
    }

    #[test]
    fn scale_works() {
        let vals: Vec<Complex32> = (0..256).map(|i| c32(i as f32, 1.0)).collect();
        let (mut g, b) = gpu_with(&vals);
        run_scale(&mut g, b, vals.len(), 0.5);
        assert_eq!(g.mem().read(b, 10), c32(5.0, 0.5));
    }

    #[test]
    fn pointwise_mul_with_conjugate() {
        let a: Vec<Complex32> = (0..64).map(|i| c32(1.0, i as f32)).collect();
        let bv: Vec<Complex32> = (0..64).map(|i| c32(i as f32, -2.0)).collect();
        let (mut g, ba) = gpu_with(&a);
        let bb = g.mem_mut().alloc(64).unwrap();
        g.mem_mut().upload(bb, 0, &bv);
        let dst = g.mem_mut().alloc(64).unwrap();
        run_pointwise_mul(&mut g, ba, bb, dst, 64, 1.0, true);
        for i in 0..64 {
            let want = a[i] * bv[i].conj();
            assert_eq!(g.mem().read(dst, i), want);
        }
    }

    #[test]
    fn argmax_finds_peak() {
        let mut vals: Vec<Complex32> = (0..512).map(|i| c32((i % 7) as f32 * 0.1, 0.0)).collect();
        vals[321] = c32(100.0, -100.0);
        let (mut g, b) = gpu_with(&vals);
        let (idx, score, rep) = run_argmax_norm(&mut g, b, vals.len());
        assert_eq!(idx, 321);
        assert!((score - 20000.0).abs() < 1.0);
        assert_eq!(rep.stats.loads, 512);
    }

    #[test]
    fn energy_sums_norms() {
        let vals: Vec<Complex32> = (0..256)
            .map(|i| c32(if i < 4 { 2.0 } else { 0.0 }, 0.0))
            .collect();
        let (mut g, b) = gpu_with(&vals);
        let (e, rep) = run_energy(&mut g, b, vals.len());
        assert_eq!(e, 16.0);
        assert_eq!(rep.stats.loads, 256);
    }

    #[test]
    fn argmax_re_ignores_large_negatives() {
        let mut vals: Vec<Complex32> = (0..128).map(|_| c32(0.0, 0.0)).collect();
        vals[5] = c32(-1000.0, 0.0); // huge magnitude, negative
        vals[77] = c32(42.0, -3.0); // the true signed maximum
        let (mut g, b) = gpu_with(&vals);
        let (idx, score, _) = run_argmax_re(&mut g, b, vals.len());
        assert_eq!(idx, 77);
        assert_eq!(score, 42.0);
    }

    #[test]
    fn slab_twiddle_plane_zero_unchanged() {
        let vals: Vec<Complex32> = (0..128).map(|i| c32(i as f32, 0.0)).collect();
        let (mut g, b) = gpu_with(&vals);
        run_slab_twiddle(&mut g, b, 32, 4, 512, 3, Direction::Forward);
        // Plane 0 multiplied by W^0 = 1.
        assert_eq!(g.mem().read(b, 5), c32(5.0, 0.0));
        // Plane 1 multiplied by W_512^3.
        let w = fft_math::twiddle::twiddle(3, 512, Direction::Forward);
        let want = vals[32] * w;
        assert!((g.mem().read(b, 32) - want).abs() < 1e-6);
    }
}
