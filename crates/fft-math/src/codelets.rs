//! Straight-line FFT codelets for small power-of-two sizes.
//!
//! These are the register-resident compute kernels of the paper: steps 1–4 of
//! the bandwidth-intensive algorithm run one **16-point** FFT per thread
//! (§3.1 — "we implement the kernels of 16-point FFT with 51 or 52
//! registers"), and step 5 builds a 256-point FFT out of radix-4/16 stages
//! with shared-memory exchanges in between.
//!
//! All codelets:
//! * take data in natural order and produce output in natural order,
//! * work in place on a fixed-size array,
//! * are direction-parameterised (forward `e^{-2·pi·i·k/N}` / inverse conjugate),
//! * exploit trivial twiddles (±1, ±i) as sign swaps, exactly like
//!   hand-written CUDA codelets, so the FLOP counts reported by
//!   [`codelet_flops`] reflect what the SPs would really execute,
//! * are generic over [`FftValue`]: one [`Complex32`] row, or eight rows in
//!   the lanes of a [`crate::lanes::C32x8`] with bit-identical lanes.

use crate::complex::Complex32;
use crate::lanes::FftValue;
use crate::twiddle::{twiddle, Direction};
use std::sync::OnceLock;

/// In-place 2-point FFT (a single butterfly). Direction is irrelevant at N=2.
#[inline(always)]
pub fn fft2<T: FftValue>(d: &mut [T; 2]) {
    let (a, b) = (d[0], d[1]);
    d[0] = a + b;
    d[1] = a - b;
}

/// In-place 4-point FFT, natural order in and out.
#[inline(always)]
pub fn fft4<T: FftValue>(d: &mut [T; 4], dir: Direction) {
    // Stage 1: two butterflies over stride 2 (decimation in time).
    let t0 = d[0] + d[2];
    let t1 = d[0] - d[2];
    let t2 = d[1] + d[3];
    let mut t3 = d[1] - d[3];
    // W_4^1 = -i forward, +i inverse — free rotation.
    t3 = match dir {
        Direction::Forward => t3.mul_neg_i(),
        Direction::Inverse => t3.mul_i(),
    };
    d[0] = t0 + t2;
    d[2] = t0 - t2;
    d[1] = t1 + t3;
    d[3] = t1 - t3;
}

/// In-place 8-point FFT, natural order in and out.
#[inline(always)]
pub fn fft8<T: FftValue>(d: &mut [T; 8], dir: Direction) {
    // DIT split into even and odd 4-point FFTs.
    let mut even = [d[0], d[2], d[4], d[6]];
    let mut odd = [d[1], d[3], d[5], d[7]];
    fft4(&mut even, dir);
    fft4(&mut odd, dir);

    // W_8^k for k = 0..3. k=0 trivial, k=2 is ±i, k=1/3 cost one multiply.
    let w1 = w8(1, dir);
    let w3 = w8(3, dir);
    let o0 = odd[0];
    let o1 = odd[1] * w1;
    let o2 = match dir {
        Direction::Forward => odd[2].mul_neg_i(),
        Direction::Inverse => odd[2].mul_i(),
    };
    let o3 = odd[3] * w3;

    d[0] = even[0] + o0;
    d[4] = even[0] - o0;
    d[1] = even[1] + o1;
    d[5] = even[1] - o1;
    d[2] = even[2] + o2;
    d[6] = even[2] - o2;
    d[3] = even[3] + o3;
    d[7] = even[3] - o3;
}

/// `W_8^k` with exactly representable components where possible.
#[inline(always)]
fn w8(k: usize, dir: Direction) -> Complex32 {
    const FRAC: f32 = std::f32::consts::FRAC_1_SQRT_2;
    let s = match dir {
        Direction::Forward => -1.0f32,
        Direction::Inverse => 1.0f32,
    };
    match k {
        1 => Complex32::new(FRAC, s * FRAC),
        3 => Complex32::new(-FRAC, s * FRAC),
        _ => twiddle(k, 8, dir),
    }
}

/// `W_16^e`: [`twiddle`]'s value, computed once per process and direction,
/// since the 16-point codelet needs eight of them per call.
#[inline]
fn w16(e: usize, dir: Direction) -> Complex32 {
    static TABLE: OnceLock<[[Complex32; 16]; 2]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        [Direction::Forward, Direction::Inverse].map(|d| std::array::from_fn(|e| twiddle(e, 16, d)))
    });
    table[dir as usize][e]
}

/// In-place 16-point FFT, natural order in and out.
///
/// Implemented as the 4 x 4 Cooley–Tukey decomposition the paper's
/// coarse-grained kernels use: four column FFT-4s, a 3 x 3 block of
/// non-trivial inter-twiddles, four row FFT-4s. This keeps the live state at
/// 16 complex values + a handful of twiddles — the "51 or 52 registers" of
/// §3.1 on real hardware.
#[inline]
#[allow(clippy::needless_range_loop)] // explicit digit indexing mirrors the maths
pub fn fft16<T: FftValue>(d: &mut [T; 16], dir: Direction) {
    // n = 4*n1 + n2; column FFTs over n1 for each residue n2.
    let mut col = [[T::ZERO; 4]; 4];
    for n2 in 0..4 {
        let mut c = [d[n2], d[4 + n2], d[8 + n2], d[12 + n2]];
        fft4(&mut c, dir);
        col[n2] = c;
    }
    // Twiddle: col[n2][k1] *= W_16^{n2*k1}; trivial for n2==0 or k1==0,
    // and W_16^4 = -i (forward) handled as a free rotation.
    for n2 in 1..4 {
        for k1 in 1..4 {
            let e = n2 * k1;
            col[n2][k1] = match (e % 16, dir) {
                (0, _) => col[n2][k1],
                (4, Direction::Forward) | (12, Direction::Inverse) => col[n2][k1].mul_neg_i(),
                (12, Direction::Forward) | (4, Direction::Inverse) => col[n2][k1].mul_i(),
                (8, _) => -col[n2][k1],
                _ => col[n2][k1] * w16(e, dir),
            };
        }
    }
    // Row FFTs over n2 for each k1; output X[k1 + 4*k2].
    for k1 in 0..4 {
        let mut r = [col[0][k1], col[1][k1], col[2][k1], col[3][k1]];
        fft4(&mut r, dir);
        for k2 in 0..4 {
            d[k1 + 4 * k2] = r[k2];
        }
    }
}

/// Dispatches to the right codelet for `n` in {1, 2, 4, 8, 16}.
///
/// # Panics
/// Panics if `d.len() != n` or `n` is not a supported codelet size.
pub fn fft_small<T: FftValue>(d: &mut [T], dir: Direction) {
    match d.len() {
        1 => {}
        2 => fft2(d.try_into().expect("length checked")),
        4 => fft4(d.try_into().expect("length checked"), dir),
        8 => fft8(d.try_into().expect("length checked"), dir),
        16 => fft16(d.try_into().expect("length checked"), dir),
        n => panic!("no codelet for size {n}; use fft-math::fft1d for general sizes"),
    }
}

/// Real-FLOP cost of one codelet invocation (adds=1, muls=1, as executed).
///
/// These are the counts the GPU simulator charges the SPs for, distinct from
/// the *nominal* `5·N·log2 N` convention used for reporting GFLOPS
/// (see [`crate::flops`]).
pub fn codelet_flops(n: usize) -> usize {
    match n {
        1 => 0,
        // fft2: 1 complex add + 1 complex sub = 4 real flops.
        2 => 4,
        // fft4: 8 complex add/sub = 16 flops (rotations are free swaps).
        4 => 16,
        // fft8: 2*fft4 + 2 full complex multiplies (W8^1, W8^3) + 8 add/sub.
        8 => 2 * 16 + 2 * 6 + 8 * 2,
        // fft16: 8*fft4 + 8 non-trivial twiddle multiplies
        // (exponents {1,2,3,2,6,3,6,9}; the e=4 case is a free rotation).
        16 => 8 * 16 + 8 * 6,
        _ => panic!("no codelet for size {n}"),
    }
}

/// Is `n` a size this module has a straight-line codelet for?
#[inline]
pub fn has_codelet(n: usize) -> bool {
    matches!(n, 1 | 2 | 4 | 8 | 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_oracle;

    fn check_against_oracle(n: usize) {
        let mut data: Vec<Complex32> = (0..n)
            .map(|i| Complex32::new((i as f32 * 0.7).sin(), (i as f32 * 1.3).cos()))
            .collect();
        let expect = dft_oracle(&data, Direction::Forward);
        fft_small(&mut data, Direction::Forward);
        for (got, want) in data.iter().zip(&expect) {
            assert!(
                (*got - want.narrow()).abs() < 1e-4 * (n as f32),
                "size {n}: got {got}, want {want:?}"
            );
        }
    }

    #[test]
    fn fft2_matches_oracle() {
        check_against_oracle(2);
    }

    #[test]
    fn fft4_matches_oracle() {
        check_against_oracle(4);
    }

    #[test]
    fn fft8_matches_oracle() {
        check_against_oracle(8);
    }

    #[test]
    fn fft16_matches_oracle() {
        check_against_oracle(16);
    }

    #[test]
    fn inverse_undoes_forward() {
        for n in [2usize, 4, 8, 16] {
            let orig: Vec<Complex32> = (0..n)
                .map(|i| Complex32::new(i as f32, -(i as f32) * 0.5))
                .collect();
            let mut data = orig.clone();
            fft_small(&mut data, Direction::Forward);
            fft_small(&mut data, Direction::Inverse);
            for (got, want) in data.iter().zip(&orig) {
                let scaled = got.scale(1.0 / n as f32);
                assert!((scaled - *want).abs() < 1e-5, "size {n}");
            }
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        for n in [2usize, 4, 8, 16] {
            let mut data = vec![Complex32::ZERO; n];
            data[0] = Complex32::ONE;
            fft_small(&mut data, Direction::Forward);
            for z in &data {
                assert!((*z - Complex32::ONE).abs() < 1e-6, "size {n}");
            }
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        for n in [2usize, 4, 8, 16] {
            let mut data = vec![Complex32::ONE; n];
            fft_small(&mut data, Direction::Forward);
            assert!((data[0] - Complex32::new(n as f32, 0.0)).abs() < 1e-5);
            for z in &data[1..] {
                assert!(z.abs() < 1e-5, "size {n}");
            }
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 16;
        let k0 = 5;
        let mut data: Vec<Complex32> = (0..n)
            .map(|i| Complex32::cis(2.0 * std::f32::consts::PI * (k0 * i) as f32 / n as f32))
            .collect();
        fft_small(&mut data, Direction::Forward);
        for (k, z) in data.iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f32).abs() < 1e-3);
            } else {
                assert!(z.abs() < 1e-3, "leakage at bin {k}: {z}");
            }
        }
    }

    #[test]
    fn flop_counts_are_consistent() {
        // Radix composition: codelet cost must not exceed naive radix-2 cost.
        // Naive radix-2: N/2*log2(N) butterflies, each 10 flops.
        for n in [2usize, 4, 8, 16] {
            let naive = n / 2 * (n.trailing_zeros() as usize) * 10;
            assert!(
                codelet_flops(n) <= naive,
                "size {n}: {} > {naive}",
                codelet_flops(n)
            );
        }
        assert!(has_codelet(16));
        assert!(!has_codelet(32));
    }

    #[test]
    #[should_panic(expected = "no codelet")]
    fn unsupported_size_panics() {
        let mut d = vec![Complex32::ZERO; 32];
        fft_small(&mut d, Direction::Forward);
    }
}
