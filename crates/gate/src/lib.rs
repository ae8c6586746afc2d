//! `fft-gate`: the network front-end that puts `fft-serve` on the wire.
//!
//! The serve core (`fft_serve::FftService`) is a deterministic,
//! virtual-time discrete-event simulation. This crate exposes it over a
//! real TCP socket speaking **`bifft-wire-v1.3`** — a versioned,
//! length-prefixed frame protocol with JSON payloads — without giving up
//! the determinism:
//!
//! - [`proto`] defines the frame grammar (21 frame types declared once
//!   in a codec table, typed error codes mapped 1:1 from the `Rejection`
//!   taxonomy) and the incremental [`FrameDecoder`];
//! - [`bridge`] is the wall-clock ↔ virtual-time merge that reassembles a
//!   recorded arrival schedule from racing TCP connections, so a
//!   `--seed`-driven network load test produces the *byte-identical*
//!   `ServeReport` an in-process run does;
//! - [`server`] is the single-threaded, nonblocking poll-loop gateway —
//!   `std` only, no async runtime — with per-connection in-flight
//!   windows and queue-full read-pauses for backpressure, exporting
//!   `gate_*` counters through the serve telemetry registry;
//! - [`client`] is the blocking [`ServeClient`] library type;
//! - [`loadnet`] replays the `fft_serve::loadgen` schedules over N
//!   concurrent connections;
//! - [`cli`] is the `fft-gate serve|bench|ping` binary.
//!
//! Everything here is dependency-free: the workspace keeps building with
//! `cargo build --offline`.

#![warn(missing_docs)]

pub mod bridge;
pub mod cli;
pub mod client;
pub mod loadnet;
pub mod proto;
pub mod server;

/// The JSON codec the wire frames use; it lives in `fft-math` so that every
/// crate's document readers share it.
pub use fft_math::json;

pub use bridge::{HeldSubmit, PacedBridge};
pub use client::{PollAnswer, ServeClient, ServerInfo, WireError};
pub use loadnet::{control, run_closed_loop_net, run_open_loop_net, NetLoad};
pub use proto::{code, rejection_code, Ack, Frame, FrameDecoder, Mode, PROTO};
pub use server::{GateConfig, GateServer};
