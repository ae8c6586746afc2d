//! `fft-bench` — the harness that regenerates every table and figure of the
//! paper's evaluation section, plus the ablations of DESIGN.md §5.
//!
//! * [`paper`] — the published numbers, transcribed.
//! * [`tables`] — generators printing *ours vs paper* for Tables 1–13 and
//!   Figures 1–3.
//! * [`validate`] — functional-vs-analytic cross-checks.
//! * [`ablations`] — padding, twiddle-source, occupancy and pass-ordering
//!   ablations.
//! * [`extensions`] — the §4.4/§4.5 future-work items (double precision on
//!   GT200, async transfer overlap), carried out.
//! * [`profile`] — the sim-prof driver behind the `profile` binary: traced
//!   runs, Chrome-trace/metrics export, metrics-file diffing.
//! * [`mod@bench`] — the harness behind the `bifft-bench` binary:
//!   roofline + pattern-audit grid runs, `BENCH_*.json` export, and the
//!   `--check` regression gate CI runs.
//!
//! Run `cargo run --release -p fft-bench --bin report` for the full output,
//! `cargo run --release -p fft-bench --bin profile -- --algo five-step --n 64`
//! for a traced run, `cargo run --release -p fft-bench --bin bifft-bench` for a
//! bench artefact, or `cargo bench` for the Criterion benchmarks.

#![warn(missing_docs)]

pub mod ablations;
pub mod bench;
pub mod extensions;
pub mod paper;
pub mod profile;
pub mod tables;
pub mod validate;
