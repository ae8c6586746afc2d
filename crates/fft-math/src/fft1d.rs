//! 1-D FFT algorithms: Stockham autosort and two-step Cooley–Tukey.
//!
//! The Stockham autosort algorithm (§3.1 mentions it by name) performs the
//! transform out-of-place with ping-pong buffers and never needs a separate
//! bit-reversal pass — the permutation is folded into the butterfly
//! addressing. This is the classic vector-machine formulation and the one our
//! CPU baseline builds on.
//!
//! The two-step decomposition `N = N1 * N2` is the paper's key factorisation:
//! a 256-point FFT becomes two passes of 16-point FFTs with an inter-pass
//! twiddle multiply (kernels `FFT256_1` and `FFT256_2` in the paper's
//! pseudo-code).

use crate::codelets::{fft16, fft_small};
use crate::complex::Complex32;
use crate::lanes::FftValue;
use crate::twiddle::{Direction, InterTwiddle, TwiddleTable};

/// A planned 1-D FFT of fixed power-of-two length.
///
/// Caches the twiddle tables for both directions; executing a plan performs
/// no allocation other than the caller-provided scratch.
#[derive(Clone, Debug)]
pub struct Fft1dPlan {
    n: usize,
    fwd: TwiddleTable,
    inv: TwiddleTable,
}

impl Fft1dPlan {
    /// Plans a transform of length `n`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two (the paper restricts all dimensions
    /// to powers of two; see §1).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        Self {
            n,
            fwd: TwiddleTable::new(n, Direction::Forward),
            inv: TwiddleTable::new(n, Direction::Inverse),
        }
    }

    /// The transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; a plan has positive length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Executes in place. `scratch` must be at least `n` long. With
    /// [`crate::lanes::C32x8`] values, eight rows transform at once.
    pub fn execute<T: FftValue>(&self, data: &mut [T], scratch: &mut [T], dir: Direction) {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert!(scratch.len() >= self.n, "scratch too small");
        let table = match dir {
            Direction::Forward => &self.fwd,
            Direction::Inverse => &self.inv,
        };
        stockham_with_table(data, &mut scratch[..self.n], table);
    }
}

/// One-shot Stockham FFT; allocates its own scratch.
///
/// For hot paths, plan once with [`Fft1dPlan`] instead.
///
/// ```
/// use fft_math::{c32, Complex32, Direction};
/// use fft_math::fft1d::fft_pow2;
///
/// // An impulse transforms to a flat spectrum.
/// let mut data = vec![Complex32::ZERO; 8];
/// data[0] = Complex32::ONE;
/// fft_pow2(&mut data, Direction::Forward);
/// assert!((data[5] - Complex32::ONE).abs() < 1e-6);
/// ```
pub fn fft_pow2(data: &mut [Complex32], dir: Direction) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 16 {
        fft_small(data, dir);
        return;
    }
    let table = TwiddleTable::new(n, dir);
    let mut scratch = vec![Complex32::ZERO; n];
    stockham_with_table(data, &mut scratch, &table);
}

/// Radix-2 decimation-in-frequency Stockham autosort, natural order in/out.
///
/// `table` must hold the `n` twiddles for the desired direction; stage-`L`
/// twiddles are read at stride `n / L` so a single length-`n` table serves
/// every stage. Generic over [`FftValue`], so one call can transform eight
/// rows held in the lanes of a [`crate::lanes::C32x8`].
pub fn stockham_with_table<T: FftValue>(data: &mut [T], scratch: &mut [T], table: &TwiddleTable) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    debug_assert!(scratch.len() >= n);
    debug_assert_eq!(table.len(), n);
    if n == 1 {
        return;
    }

    let tw = table.as_slice();
    let stages = n.trailing_zeros() as usize;
    let mut len = n; // current sub-transform length
    let mut stride = 1usize;
    let mut in_data = true; // which buffer currently holds the live values

    for _ in 0..stages {
        let m = len / 2;
        let twiddle_step = n / len;
        {
            let (src, dst): (&[T], &mut [T]) = if in_data {
                (&*data, &mut scratch[..n])
            } else {
                (&scratch[..n], &mut *data)
            };
            // Group `p` reads `src[stride*p..]` and `src[stride*(p+m)..]` and
            // writes `dst[2*stride*p..]`, a stride apart; its twiddle index
            // `p * twiddle_step` stays below `n / 2`.
            let (lo, hi) = src[..n].split_at(stride * m);
            let groups = lo
                .chunks_exact(stride)
                .zip(hi.chunks_exact(stride))
                .zip(dst[..n].chunks_exact_mut(2 * stride));
            for (p, ((src_a, src_b), out)) in groups.enumerate() {
                let w = tw[p * twiddle_step];
                let (dst_a, dst_b) = out.split_at_mut(stride);
                for q in 0..stride {
                    let (a, b) = (src_a[q], src_b[q]);
                    dst_a[q] = a + b;
                    dst_b[q] = (a - b) * w;
                }
            }
        }
        in_data = !in_data;
        len = m;
        stride *= 2;
    }

    if !in_data {
        data.copy_from_slice(&scratch[..n]);
    }
}

/// The paper's 256 = 16 x 16 two-step transform, fully in registers.
///
/// Computes a 256-point FFT as: 16 column FFT-16s (`FFT256_1`), the
/// inter-twiddle multiply, 16 row FFT-16s (`FFT256_2`), with the digit-reverse
/// reindexing between halves made explicit. Input and output in natural order.
///
/// This function is the *functional specification* the simulated GPU kernels
/// are tested against; the kernels perform the same arithmetic split across
/// threads.
pub fn fft256_two_step(data: &mut [Complex32; 256], dir: Direction) {
    let inter = InterTwiddle::new(16, 16, dir);
    // First half: FFTs over n1 for each residue n2 (x[n] with n = 16*n1 + n2),
    // then twiddle W_256^{k1*n2}.
    let mut mid = [[Complex32::ZERO; 16]; 16]; // mid[n2][k1]
    for n2 in 0..16 {
        let mut col = [Complex32::ZERO; 16];
        for n1 in 0..16 {
            col[n1] = data[16 * n1 + n2];
        }
        fft16(&mut col, dir);
        for (k1, v) in col.into_iter().enumerate() {
            mid[n2][k1] = v * inter.get(k1, n2);
        }
    }
    // Second half: FFTs over n2 for each k1; output X[k1 + 16*k2].
    for k1 in 0..16 {
        let mut row = [Complex32::ZERO; 16];
        for n2 in 0..16 {
            row[n2] = mid[n2][k1];
        }
        fft16(&mut row, dir);
        for (k2, v) in row.into_iter().enumerate() {
            data[k1 + 16 * k2] = v;
        }
    }
}

/// First half of the two-step 256-point FFT in isolation (`FFT256_1`).
///
/// Takes the 16 values of one column (`x[16*n1 + n2]` for fixed `n2`),
/// transforms them, and applies the inter-pass twiddle `W_256^{k1*n2}`.
/// Mirrors exactly what one simulated GPU thread does in steps 1 and 3.
pub fn fft256_first_half(col: &mut [Complex32; 16], n2: usize, dir: Direction) {
    fft16(col, dir);
    for (k1, v) in col.iter_mut().enumerate() {
        let e = k1 * n2;
        if !e.is_multiple_of(256) {
            *v *= crate::twiddle::twiddle(e, 256, dir);
        }
    }
}

/// Second half of the two-step 256-point FFT (`FFT256_2`): a plain 16-point
/// transform over the twiddled intermediates. Output index is `k2`, and the
/// combined output lives at `k1 + 16*k2` — the digit reversal the paper's
/// five-step data movement absorbs into its relayouts.
pub fn fft256_second_half(row: &mut [Complex32; 16], dir: Direction) {
    fft16(row, dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c32;
    use crate::dft::dft_oracle;

    fn signal(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| c32((0.3 * i as f32).sin() + 0.1, (0.7 * i as f32).cos() - 0.2))
            .collect()
    }

    fn assert_matches_oracle(data: &[Complex32], dir: Direction, got: &[Complex32], tol: f32) {
        let want = dft_oracle(data, dir);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (*g - w.narrow()).abs() < tol,
                "bin {k}: got {g}, want {:?}",
                w.narrow()
            );
        }
    }

    #[test]
    fn stockham_matches_oracle_all_sizes() {
        for p in 0..=10 {
            let n = 1usize << p;
            let orig = signal(n);
            let mut data = orig.clone();
            fft_pow2(&mut data, Direction::Forward);
            assert_matches_oracle(&orig, Direction::Forward, &data, 1e-2 * (n as f32).sqrt());
        }
    }

    #[test]
    fn plan_reuse_is_deterministic() {
        let plan = Fft1dPlan::new(64);
        let orig = signal(64);
        let mut scratch = vec![Complex32::ZERO; 64];
        let mut a = orig.clone();
        let mut b = orig.clone();
        plan.execute(&mut a, &mut scratch, Direction::Forward);
        plan.execute(&mut b, &mut scratch, Direction::Forward);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let plan = Fft1dPlan::new(128);
        let orig = signal(128);
        let mut data = orig.clone();
        let mut scratch = vec![Complex32::ZERO; 128];
        plan.execute(&mut data, &mut scratch, Direction::Forward);
        plan.execute(&mut data, &mut scratch, Direction::Inverse);
        for (d, o) in data.iter().zip(&orig) {
            assert!((d.scale(1.0 / 128.0) - *o).abs() < 1e-4);
        }
    }

    #[test]
    fn fft256_two_step_matches_stockham() {
        let orig = signal(256);
        let mut two_step: [Complex32; 256] = orig.clone().try_into().unwrap();
        fft256_two_step(&mut two_step, Direction::Forward);
        let mut stockham = orig.clone();
        fft_pow2(&mut stockham, Direction::Forward);
        for k in 0..256 {
            assert!(
                (two_step[k] - stockham[k]).abs() < 1e-2,
                "bin {k}: {} vs {}",
                two_step[k],
                stockham[k]
            );
        }
    }

    #[test]
    fn fft256_two_step_matches_oracle() {
        let orig = signal(256);
        let mut data: [Complex32; 256] = orig.clone().try_into().unwrap();
        fft256_two_step(&mut data, Direction::Forward);
        assert_matches_oracle(&orig, Direction::Forward, &data, 0.2);
    }

    #[test]
    fn halves_compose_to_full_256() {
        let orig = signal(256);
        // Run the two halves the way the GPU threads do, with explicit
        // intermediate layout, and compare against the fused function.
        let mut mid = [[Complex32::ZERO; 16]; 16];
        for n2 in 0..16 {
            let mut col = [Complex32::ZERO; 16];
            for n1 in 0..16 {
                col[n1] = orig[16 * n1 + n2];
            }
            fft256_first_half(&mut col, n2, Direction::Forward);
            mid[n2] = col;
        }
        let mut out = [Complex32::ZERO; 256];
        for k1 in 0..16 {
            let mut row = [Complex32::ZERO; 16];
            for n2 in 0..16 {
                row[n2] = mid[n2][k1];
            }
            fft256_second_half(&mut row, Direction::Forward);
            for k2 in 0..16 {
                out[k1 + 16 * k2] = row[k2];
            }
        }

        let mut fused: [Complex32; 256] = orig.try_into().unwrap();
        fft256_two_step(&mut fused, Direction::Forward);
        for k in 0..256 {
            assert!((out[k] - fused[k]).abs() < 1e-4, "bin {k}");
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 512;
        let orig = signal(n);
        let mut data = orig.clone();
        fft_pow2(&mut data, Direction::Forward);
        let time_energy: f32 = orig.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f32 = data.iter().map(|z| z.norm_sqr()).sum::<f32>() / n as f32;
        assert!(
            (time_energy - freq_energy).abs() < 1e-2 * time_energy.max(1.0),
            "{time_energy} vs {freq_energy}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut d = vec![Complex32::ZERO; 12];
        fft_pow2(&mut d, Direction::Forward);
    }

    #[test]
    fn length_one_is_identity() {
        let mut d = vec![c32(3.0, -4.0)];
        fft_pow2(&mut d, Direction::Forward);
        assert_eq!(d[0], c32(3.0, -4.0));
    }
}
