//! Property-style tests on the mathematical substrate.
//!
//! These were written for `proptest`; the workspace now builds against an
//! empty cargo registry, so each property is exercised over a deterministic
//! SplitMix64-sampled case set instead of shrinking random inputs. The
//! assertions are unchanged — only the case generator is home-grown.

use fft_math::codelets::fft_small;
use fft_math::complex::{c32, Complex32};
use fft_math::fft1d::{fft256_two_step, fft_pow2};
use fft_math::fft64::fft_pow2_f64;
use fft_math::layout::{FiveStepPlanLayout, View5};
use fft_math::rng::SplitMix64;
use fft_math::twiddle::{twiddle_f64, Direction, TwiddleTable};

/// Cases per property: small enough to keep the suite fast, large enough to
/// sweep the interesting corners alongside the explicit edge cases below.
const CASES: usize = 24;

fn arb_signal(rng: &mut SplitMix64, len: usize) -> Vec<Complex32> {
    (0..len)
        .map(|_| c32(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
        .collect()
}

/// fft then inverse-fft recovers the signal at any power-of-two length.
#[test]
fn fft_roundtrip() {
    let mut rng = SplitMix64::new(0xF0F0_0001);
    for case in 0..CASES {
        let len = 1usize << (case % 11); // sweep 1..=1024 deterministically
        let seed = rng.next_u64() as u32;
        let data: Vec<Complex32> = (0..len)
            .map(|i| {
                let t = (i as f32 + seed as f32 * 1e-4) * 0.61;
                c32(t.sin(), (1.3 * t).cos())
            })
            .collect();
        let mut x = data.clone();
        fft_pow2(&mut x, Direction::Forward);
        fft_pow2(&mut x, Direction::Inverse);
        for (a, b) in x.iter().zip(&data) {
            assert!((a.scale(1.0 / len as f32) - *b).abs() < 1e-3);
        }
    }
}

/// The transform is linear.
#[test]
fn fft_linearity() {
    let mut rng = SplitMix64::new(0xF0F0_0002);
    for _ in 0..CASES {
        let a = arb_signal(&mut rng, 64);
        let b = arb_signal(&mut rng, 64);
        let s = rng.uniform_f32(-3.0, 3.0);
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fc: Vec<Complex32> = a.iter().zip(&b).map(|(x, y)| x.scale(s) + *y).collect();
        fft_pow2(&mut fa, Direction::Forward);
        fft_pow2(&mut fb, Direction::Forward);
        fft_pow2(&mut fc, Direction::Forward);
        for ((za, zb), zc) in fa.iter().zip(&fb).zip(&fc) {
            assert!((za.scale(s) + *zb - *zc).abs() < 1e-3);
        }
    }
}

/// Parseval: time-domain and frequency-domain energies agree.
#[test]
fn fft_parseval() {
    let mut rng = SplitMix64::new(0xF0F0_0003);
    for _ in 0..CASES {
        let data = arb_signal(&mut rng, 128);
        let mut f = data.clone();
        fft_pow2(&mut f, Direction::Forward);
        let et: f64 = data.iter().map(|z| z.norm_sqr() as f64).sum();
        let ef: f64 = f.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / 128.0;
        assert!((et - ef).abs() < 1e-3 * et.max(1.0));
    }
}

/// The 1-D convolution theorem: FFT(a ⊛ b) = FFT(a)·FFT(b).
#[test]
fn convolution_theorem() {
    let mut rng = SplitMix64::new(0xF0F0_0004);
    for _ in 0..CASES {
        let n = 32usize;
        let a = arb_signal(&mut rng, n);
        let b = arb_signal(&mut rng, n);
        // Direct circular convolution.
        let mut conv = vec![Complex32::ZERO; n];
        for (k, c) in conv.iter_mut().enumerate() {
            for j in 0..n {
                *c += a[j] * b[(k + n - j) % n];
            }
        }
        fft_pow2(&mut conv, Direction::Forward);
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft_pow2(&mut fa, Direction::Forward);
        fft_pow2(&mut fb, Direction::Forward);
        for ((x, y), c) in fa.iter().zip(&fb).zip(&conv) {
            assert!((*x * *y - *c).abs() < 1e-2, "{:?} vs {c}", *x * *y);
        }
    }
}

/// Codelets agree with the general Stockham transform.
#[test]
fn codelets_match_stockham() {
    let mut rng = SplitMix64::new(0xF0F0_0005);
    for _ in 0..CASES {
        let data = arb_signal(&mut rng, 16);
        for n in [2usize, 4, 8, 16] {
            let mut a = data[..n].to_vec();
            let mut b = data[..n].to_vec();
            fft_small(&mut a, Direction::Forward);
            fft_pow2(&mut b, Direction::Forward);
            for (x, y) in a.iter().zip(&b) {
                assert!((*x - *y).abs() < 1e-4);
            }
        }
    }
}

/// The 256 = 16x16 two-step transform equals the direct transform.
#[test]
fn two_step_equals_direct() {
    let mut rng = SplitMix64::new(0xF0F0_0006);
    for _ in 0..CASES {
        let data = arb_signal(&mut rng, 256);
        let mut a: [Complex32; 256] = data.clone().try_into().unwrap();
        fft256_two_step(&mut a, Direction::Forward);
        let mut b = data;
        fft_pow2(&mut b, Direction::Forward);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 2e-3);
        }
    }
}

/// f32 and f64 paths agree to single precision.
#[test]
fn f64_path_agrees() {
    let mut rng = SplitMix64::new(0xF0F0_0007);
    for _ in 0..CASES {
        let data = arb_signal(&mut rng, 64);
        let mut a = data.clone();
        fft_pow2(&mut a, Direction::Forward);
        let mut b: Vec<_> = data.iter().map(|z| z.widen()).collect();
        fft_pow2_f64(&mut b, Direction::Forward);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.widen() - *y).abs() < 1e-3);
        }
    }
}

/// Twiddle group property `W^a · W^b = W^{a+b}` for arbitrary exponents.
#[test]
fn twiddle_group() {
    let mut rng = SplitMix64::new(0xF0F0_0008);
    for _ in 0..CASES * 4 {
        let a = rng.below(4096);
        let b = rng.below(4096);
        let n = 512;
        let lhs = twiddle_f64(a, n, Direction::Forward) * twiddle_f64(b, n, Direction::Forward);
        let rhs = twiddle_f64(a + b, n, Direction::Forward);
        assert!((lhs - rhs).abs() < 1e-12);
    }
}

/// Twiddle tables are unit-modulus everywhere.
#[test]
fn twiddles_unit_modulus() {
    let mut rng = SplitMix64::new(0xF0F0_0009);
    for logn in 1u32..12 {
        let n = 1usize << logn;
        let t = TwiddleTable::new(n, Direction::Forward);
        for _ in 0..8 {
            let k = rng.next_u64() as usize;
            assert!((t.get(k % (4 * n)).abs() - 1.0).abs() < 1e-6);
        }
    }
}

/// Any View5 index map is injective (no aliasing in the 5-D layout).
#[test]
fn view5_is_injective() {
    let mut rng = SplitMix64::new(0xF0F0_000A);
    for _ in 0..CASES {
        let nx = 1 + rng.below(5);
        let e = [
            1 + rng.below(4),
            1 + rng.below(4),
            1 + rng.below(4),
            1 + rng.below(4),
        ];
        let v = View5::new(nx, e);
        let mut seen = vec![false; v.len()];
        for s4 in 0..e[3] {
            for s3 in 0..e[2] {
                for s2 in 0..e[1] {
                    for s1 in 0..e[0] {
                        for x in 0..nx {
                            let i = v.index(x, [s1, s2, s3, s4]);
                            assert!(!seen[i]);
                            seen[i] = true;
                        }
                    }
                }
            }
        }
    }
}

/// The five-step plan's input and output index maps are bijections for
/// every supported dimension combination.
#[test]
fn plan_layout_bijective() {
    for lx in 2u32..6 {
        for ly in 2u32..6 {
            for lz in 2u32..6 {
                let (nx, ny, nz) = (1usize << lx, 1usize << ly, 1usize << lz);
                let plan = FiveStepPlanLayout::new(nx, ny, nz);
                let mut seen_in = vec![false; plan.volume()];
                let mut seen_out = vec![false; plan.volume()];
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            let i = plan.input_index(x, y, z);
                            let o = plan.output_index(x, y, z);
                            assert!(!seen_in[i] && !seen_out[o]);
                            seen_in[i] = true;
                            seen_out[o] = true;
                        }
                    }
                }
            }
        }
    }
}
