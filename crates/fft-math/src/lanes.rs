//! Eight complex values side by side, and the one arithmetic both they and
//! [`Complex32`] run.
//!
//! The paper's kernels run many independent short FFTs at once: one 16-point
//! row per thread in steps 1–4 (§3.1), one 64–512-point row per block in
//! step 5 (§3.2). A host executor gets the same effect by putting eight rows
//! in the eight lanes of a [`C32x8`] and running the butterflies once. The
//! codelets ([`crate::codelets`]), the Stockham loop
//! ([`crate::fft1d::stockham_with_table`]) and the fine-grained kernel's
//! butterfly are generic over [`FftValue`], so the simulated kernels (which
//! use the [`Complex32`] instantiation) and the lane-batched executors run
//! one copy of the arithmetic.
//!
//! Every lane operation uses exactly [`Complex32`]'s per-component formula,
//! in the same order, so lane `l` of a result is bit-for-bit the
//! [`Complex32`] result on lane `l` of the inputs.

use crate::complex::Complex32;
use std::ops::{Add, Mul, MulAssign, Neg, Sub};

/// Lanes in a [`C32x8`].
pub const LANES: usize = 8;

/// A value the FFT arithmetic runs on: one [`Complex32`], or eight of them
/// in a [`C32x8`]. Twiddles are always one [`Complex32`], shared by every
/// lane.
pub trait FftValue:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Neg<Output = Self>
    + Mul<Complex32, Output = Self>
    + MulAssign<Complex32>
{
    /// Zero in every lane.
    const ZERO: Self;
    /// Multiplication by `i`.
    fn mul_i(self) -> Self;
    /// Multiplication by `-i`.
    fn mul_neg_i(self) -> Self;
}

impl FftValue for Complex32 {
    const ZERO: Self = Complex32::ZERO;

    #[inline(always)]
    fn mul_i(self) -> Self {
        Complex32::mul_i(self)
    }

    #[inline(always)]
    fn mul_neg_i(self) -> Self {
        Complex32::mul_neg_i(self)
    }
}

/// Eight complex values as split real and imaginary arrays: lane `l` is
/// `re[l] + i·im[l]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct C32x8 {
    /// Real parts, one per lane.
    pub re: [f32; LANES],
    /// Imaginary parts, one per lane.
    pub im: [f32; LANES],
}

impl C32x8 {
    /// Zero in every lane.
    pub const ZERO: Self = C32x8 {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };

    /// Lane `l`.
    #[inline(always)]
    pub fn lane(&self, l: usize) -> Complex32 {
        Complex32::new(self.re[l], self.im[l])
    }

    /// Sets lane `l` to `z`.
    #[inline(always)]
    pub fn set_lane(&mut self, l: usize, z: Complex32) {
        self.re[l] = z.re;
        self.im[l] = z.im;
    }

    /// Lanes `l < k` (`k` at most [`LANES`]) from `lane(l)`; the rest zero.
    #[inline(always)]
    pub fn gather(k: usize, mut lane: impl FnMut(usize) -> Complex32) -> Self {
        let mut v = Self::ZERO;
        if k == LANES {
            for l in 0..LANES {
                v.set_lane(l, lane(l));
            }
        } else {
            for l in 0..k {
                v.set_lane(l, lane(l));
            }
        }
        v
    }

    /// Lane `l` from `run[l]`.
    #[inline(always)]
    pub fn from_array(run: [Complex32; LANES]) -> Self {
        C32x8 {
            re: run.map(|z| z.re),
            im: run.map(|z| z.im),
        }
    }

    /// The lanes in order.
    #[inline(always)]
    pub fn to_array(self) -> [Complex32; LANES] {
        std::array::from_fn(|l| self.lane(l))
    }
}

/// One `f(a[l], b[l])` per lane.
#[inline(always)]
fn each(a: [f32; LANES], b: [f32; LANES], f: impl Fn(f32, f32) -> f32) -> [f32; LANES] {
    std::array::from_fn(|l| f(a[l], b[l]))
}

impl FftValue for C32x8 {
    const ZERO: Self = C32x8::ZERO;

    /// [`Complex32::mul_i`] per lane: `(-im, re)`.
    #[inline(always)]
    fn mul_i(self) -> Self {
        C32x8 {
            re: self.im.map(|x| -x),
            im: self.re,
        }
    }

    /// [`Complex32::mul_neg_i`] per lane: `(im, -re)`.
    #[inline(always)]
    fn mul_neg_i(self) -> Self {
        C32x8 {
            re: self.im,
            im: self.re.map(|x| -x),
        }
    }
}

impl Add for C32x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        C32x8 {
            re: each(self.re, rhs.re, |a, b| a + b),
            im: each(self.im, rhs.im, |a, b| a + b),
        }
    }
}

impl Sub for C32x8 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        C32x8 {
            re: each(self.re, rhs.re, |a, b| a - b),
            im: each(self.im, rhs.im, |a, b| a - b),
        }
    }
}

impl Neg for C32x8 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        C32x8 {
            re: self.re.map(|x| -x),
            im: self.im.map(|x| -x),
        }
    }
}

/// [`Complex32`]'s product per lane, with the same twiddle `w` in every
/// lane: `(re·w.re − im·w.im, re·w.im + im·w.re)`.
impl Mul<Complex32> for C32x8 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, w: Complex32) -> Self {
        C32x8 {
            re: each(self.re, self.im, |re, im| re * w.re - im * w.im),
            im: each(self.re, self.im, |re, im| re * w.im + im * w.re),
        }
    }
}

impl MulAssign<Complex32> for C32x8 {
    #[inline(always)]
    fn mul_assign(&mut self, w: Complex32) {
        *self = *self * w;
    }
}

/// Puts up to [`LANES`] consecutive `out.len()`-point rows into lanes:
/// lane `l < k` of `out[j]` becomes `point(l * out.len() + j)`, point `j` of
/// row `l`. Lanes from `k` on are zero.
#[inline]
pub fn rows_to_lanes(k: usize, out: &mut [C32x8], point: impl Fn(usize) -> Complex32) {
    let n = out.len();
    for (j, v) in out.iter_mut().enumerate() {
        *v = C32x8::gather(k, |l| point(l * n + j));
    }
}

/// The inverse of [`rows_to_lanes`]: row `l` of `rows` (each `lanes.len()`
/// points) becomes lane `l` of `lanes`, for as many rows as `rows` holds.
pub fn lanes_to_rows(lanes: &[C32x8], rows: &mut [Complex32]) {
    let n = lanes.len();
    debug_assert!(rows.len() <= LANES * n && rows.len().is_multiple_of(n));
    for (l, row) in rows.chunks_exact_mut(n).enumerate() {
        for (z, v) in row.iter_mut().zip(lanes) {
            *z = v.lane(l);
        }
    }
}

/// Puts `span` side-by-side rows into groups of lanes: point `j` of row
/// `r` is `src[j * stride + r]`, and row `r` goes to lane `r % LANES` of
/// group `r / LANES`, whose points are `groups[g*n..(g+1)*n]` for
/// `span.div_ceil(LANES)` groups of `n` points. Lanes past `span` are
/// zero. Each point of all `span` rows is read as one run, eight elements
/// at a time through a `[Complex32; LANES]`.
pub fn side_by_side_to_lanes(span: usize, stride: usize, groups: &mut [C32x8], src: &[Complex32]) {
    let n = groups.len() / span.div_ceil(LANES);
    for j in 0..n {
        let (whole, tail) = src[j * stride..][..span].as_chunks::<LANES>();
        // Runs first: `zip` pulls from its left side first, and a row it
        // pulled past the last whole run would be lost to the tail.
        let mut rows = groups.chunks_exact_mut(n);
        for (run, row) in whole.iter().zip(rows.by_ref()) {
            row[j] = C32x8::from_array(*run);
        }
        if let Some(row) = rows.next() {
            let mut run = [Complex32::ZERO; LANES];
            run[..tail.len()].copy_from_slice(tail);
            row[j] = C32x8::from_array(run);
        }
    }
}

/// The inverse of [`side_by_side_to_lanes`]: writes the `span` rows held in
/// `groups` back to `out`, point `j` of row `r` at `out[j * stride + r]`,
/// each point's run eight elements at a time.
pub fn lanes_to_side_by_side(groups: &[C32x8], span: usize, stride: usize, out: &mut [Complex32]) {
    let n = groups.len() / span.div_ceil(LANES);
    for j in 0..n {
        let (whole, tail) = out[j * stride..][..span].as_chunks_mut::<LANES>();
        let mut rows = groups.chunks_exact(n);
        for (run, row) in whole.iter_mut().zip(rows.by_ref()) {
            *run = row[j].to_array();
        }
        if let Some(row) = rows.next() {
            tail.copy_from_slice(&row[j].to_array()[..tail.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c32;

    #[test]
    fn rows_round_trip_through_lanes() {
        let rows: Vec<Complex32> = (0..3 * 4).map(|i| c32(i as f32, -(i as f32))).collect();
        let mut lanes = vec![C32x8::ZERO; 4];
        rows_to_lanes(3, &mut lanes, |i| rows[i]);
        assert_eq!(lanes[1].lane(2), rows[2 * 4 + 1]);
        assert_eq!(lanes[3].lane(7), Complex32::ZERO);
        let mut back = vec![Complex32::ZERO; rows.len()];
        lanes_to_rows(&lanes, &mut back);
        assert_eq!(back, rows);
    }

    #[test]
    fn side_by_side_rows_round_trip_through_lanes() {
        // 11 rows of 3 points, 16 apart: two groups, the second partial.
        let elems: Vec<Complex32> = (0..3 * 16).map(|i| c32(i as f32, 1.0)).collect();
        let mut groups = vec![C32x8::ZERO; 2 * 3];
        side_by_side_to_lanes(11, 16, &mut groups, &elems);
        assert_eq!(groups[1].lane(5), elems[16 + 5]);
        assert_eq!(groups[3 + 2].lane(2), elems[2 * 16 + 8 + 2]);
        assert_eq!(groups[3].lane(3), Complex32::ZERO);
        let mut back = vec![Complex32::ZERO; elems.len()];
        lanes_to_side_by_side(&groups, 11, 16, &mut back);
        for (i, z) in back.iter().enumerate() {
            let want = if i % 16 < 11 {
                elems[i]
            } else {
                Complex32::ZERO
            };
            assert_eq!(*z, want, "element {i}");
        }
    }

    #[test]
    fn gather_is_partial_and_arrays_round_trip() {
        let src = [c32(1.0, 2.0), c32(3.0, 4.0), c32(5.0, 6.0)];
        let v = C32x8::gather(src.len(), |l| src[l]);
        assert_eq!(v.lane(2), src[2]);
        assert_eq!(v.lane(3), Complex32::ZERO);
        assert_eq!(C32x8::from_array(v.to_array()), v);
        assert_eq!(v.to_array()[..3], src);
    }
}
