//! `fft-math` — the FFT mathematics substrate of the SC'08 reproduction.
//!
//! Everything the higher layers need to *compute* Fourier transforms lives
//! here, implemented from scratch:
//!
//! * [`complex`] — single/double-precision complex arithmetic,
//! * [`twiddle`] — twiddle-factor tables (full, inter-pass, out-of-core slab),
//! * [`codelets`] — straight-line radix-2/4/8/16 kernels (the paper's
//!   register-resident 16-point workhorse),
//! * [`fft1d`] — Stockham autosort and the 256 = 16 x 16 two-step transform,
//! * [`lanes`] — eight complex values side by side ([`lanes::C32x8`]) and
//!   the [`lanes::FftValue`] arithmetic the codelets and Stockham loop are
//!   generic over, so host executors run eight rows per butterfly,
//! * [`fft64`] — the double-precision path (§4.5 future work),
//! * [`layout`] — the 5-D view `V(X,16,16,16,16)`, Table 2's access patterns
//!   A–D, and the digit bookkeeping of the five-step algorithm,
//! * [`dft`] — O(N²) reference oracle,
//! * [`rng`] — SplitMix64, the workspace's dependency-free seedable PRNG,
//! * [`flops`] — the paper's `15·N³·log2 N` GFLOPS convention,
//! * [`json`] — the workspace's one JSON codec: the gateway's frame bodies
//!   and every document reader parse through it,
//! * [`error`] — validation norms,
//! * [`stats`] — nearest-rank percentiles shared by the serving and
//!   benchmarking layers.

#![warn(missing_docs)]

pub mod codelets;
pub mod complex;
pub mod dft;
pub mod error;
pub mod fft1d;
pub mod fft64;
pub mod flops;
pub mod json;
pub mod lanes;
pub mod layout;
pub mod rng;
pub mod stats;
pub mod twiddle;

pub use complex::{c32, c64, Complex32, Complex64};
pub use twiddle::Direction;
