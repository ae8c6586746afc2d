//! Lane-batched arithmetic against the one-row arithmetic it batches.
//!
//! Every lane of a [`C32x8`] result must equal, bit for bit, the
//! [`Complex32`] result on that lane's row: the codelets at every size and
//! the Stockham loop at 16..=512 points, in both directions, over rows that
//! hold signed zeros, subnormals and large (but not overflowing) magnitudes
//! beside ordinary values. The side-by-side run helpers must move every
//! element and leave the gaps between runs alone. CI runs this file in
//! release as well as debug, since the release build is the vectorised one.

use fft_math::codelets::fft_small;
use fft_math::complex::{c32, Complex32};
use fft_math::fft1d::stockham_with_table;
use fft_math::lanes::{
    lanes_to_rows, lanes_to_side_by_side, rows_to_lanes, side_by_side_to_lanes, C32x8, FftValue,
    LANES,
};
use fft_math::rng::SplitMix64;
use fft_math::twiddle::{Direction, TwiddleTable};

const DIRS: [Direction; 2] = [Direction::Forward, Direction::Inverse];

/// Magnitude small enough that a 512-point sum of such values stays finite:
/// an overflow would make NaNs, whose payloads need not survive the
/// compiler's freedom to swap a commutative operation's operands.
const LARGE: f32 = 1e35;

/// One special value: a signed zero, a subnormal, a large magnitude or an
/// ordinary value at a random scale.
fn special(rng: &mut SplitMix64) -> f32 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    sign * match rng.below(4) {
        0 => 0.0,
        1 => f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
        2 => LARGE * rng.uniform_f32(0.5, 1.0),
        _ => rng.uniform_f32(0.0, 1.0) * 2f32.powi(rng.below(41) as i32 - 20),
    }
}

/// Eight `n`-point rows: row 0 all `+0.0`, row 1 all `-0.0`, row 2 all
/// subnormal, row 3 all large, rows 4..8 a mix of everything.
fn rows(n: usize, rng: &mut SplitMix64) -> Vec<Complex32> {
    let mut out = Vec::with_capacity(LANES * n);
    for l in 0..LANES {
        for _ in 0..n {
            let z = match l {
                0 => c32(0.0, 0.0),
                1 => c32(-0.0, -0.0),
                2 => c32(
                    f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
                    -f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
                ),
                3 => c32(
                    LARGE * rng.uniform_f32(-1.0, 1.0),
                    LARGE * rng.uniform_f32(-1.0, 1.0),
                ),
                _ => c32(special(rng), special(rng)),
            };
            out.push(z);
        }
    }
    out
}

fn bits(v: &[Complex32]) -> Vec<(u32, u32)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// Runs `one` on each row alone and `eight` on all eight rows in lanes,
/// and requires the same bits.
fn same_bits(
    what: &str,
    n: usize,
    rng: &mut SplitMix64,
    one: impl Fn(&mut [Complex32]),
    eight: impl Fn(&mut [C32x8]),
) {
    let input = rows(n, rng);
    let mut want = input.clone();
    want.chunks_exact_mut(n).for_each(&one);
    let mut lanes = vec![C32x8::ZERO; n];
    rows_to_lanes(LANES, &mut lanes, |i| input[i]);
    eight(&mut lanes);
    let mut got = vec![Complex32::ZERO; LANES * n];
    lanes_to_rows(&lanes, &mut got);
    assert!(got.iter().all(|z| z.is_finite()), "{what}: overflowed");
    for (l, (g, w)) in got.chunks_exact(n).zip(want.chunks_exact(n)).enumerate() {
        assert_eq!(bits(g), bits(w), "{what}: lane {l}");
    }
}

/// One `Complex32` operation on `(a, b, w)`.
type ScalarOp = fn(Complex32, Complex32, Complex32) -> Complex32;

#[test]
fn lane_operations_match_complex32() {
    let mut rng = SplitMix64::new(0x1a9e_0001);
    for _ in 0..64 {
        let a = rows(1, &mut rng);
        let b = rows(1, &mut rng);
        let w = c32(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0));
        let (va, vb) = (
            C32x8::gather(LANES, |l| a[l]),
            C32x8::gather(LANES, |l| b[l]),
        );
        let cases: [(C32x8, ScalarOp); 6] = [
            (va + vb, |a, b, _| a + b),
            (va - vb, |a, b, _| a - b),
            (-va, |a, _, _| -a),
            (va.mul_i(), |a, _, _| a.mul_i()),
            (va.mul_neg_i(), |a, _, _| a.mul_neg_i()),
            (va * w, |a, _, w| a * w),
        ];
        for (i, (got, op)) in cases.into_iter().enumerate() {
            for l in 0..LANES {
                let want = op(a[l], b[l], w);
                assert_eq!(bits(&[got.lane(l)]), bits(&[want]), "op {i} lane {l}");
            }
        }
    }
}

#[test]
fn codelets_in_lanes_match_one_row() {
    let mut rng = SplitMix64::new(0x1a9e_0002);
    for n in [1usize, 2, 4, 8, 16] {
        for dir in DIRS {
            for case in 0..8 {
                same_bits(
                    &format!("codelet n={n} {dir:?} case {case}"),
                    n,
                    &mut rng,
                    |row| fft_small(row, dir),
                    |lanes| fft_small(lanes, dir),
                );
            }
        }
    }
}

#[test]
fn stockham_in_lanes_matches_one_row() {
    let mut rng = SplitMix64::new(0x1a9e_0003);
    for n in [16usize, 32, 64, 128, 256, 512] {
        for dir in DIRS {
            let table = TwiddleTable::new(n, dir);
            for case in 0..4 {
                same_bits(
                    &format!("stockham n={n} {dir:?} case {case}"),
                    n,
                    &mut rng,
                    |row| stockham_with_table(row, &mut vec![Complex32::ZERO; n], &table),
                    |lanes| stockham_with_table(lanes, &mut vec![C32x8::ZERO; n], &table),
                );
            }
        }
    }
}

/// Spans 1..=24 (whole groups of eight, a partial tail group, or both) of
/// 1..=5 points, with strides from one past the span up: each run moves
/// through the lanes bit for bit (lane `r % 8` of group `r / 8`, zero past
/// the span), and back without touching the elements between runs.
#[test]
fn side_by_side_runs_round_trip_bit_for_bit() {
    let mut rng = SplitMix64::new(0x1a9e_0004);
    let gap = c32(f32::from_bits(0x7fc0_1234), -1.5);
    for span in 1..=24usize {
        for n in 1..=5usize {
            let stride = span + 1 + rng.below(2 * LANES);
            let src = rows(n, &mut rng);
            let src: Vec<Complex32> = src.iter().cycle().take(n * stride).copied().collect();
            let what = format!("span={span} n={n} stride={stride}");
            let mut groups = vec![C32x8::from_array([gap; LANES]); span.div_ceil(LANES) * n];
            side_by_side_to_lanes(span, stride, &mut groups, &src);
            for (g, row) in groups.chunks_exact(n).enumerate() {
                for (j, v) in row.iter().enumerate() {
                    for l in 0..LANES {
                        let r = LANES * g + l;
                        let want = if r < span {
                            src[j * stride + r]
                        } else {
                            Complex32::ZERO
                        };
                        assert_eq!(
                            bits(&[v.lane(l)]),
                            bits(&[want]),
                            "{what}: row {r} point {j}"
                        );
                    }
                }
            }
            let mut back = vec![gap; src.len()];
            lanes_to_side_by_side(&groups, span, stride, &mut back);
            for (i, (got, want)) in back.iter().zip(&src).enumerate() {
                let want = if i % stride < span { *want } else { gap };
                assert_eq!(bits(&[*got]), bits(&[want]), "{what}: element {i}");
            }
        }
    }
}
