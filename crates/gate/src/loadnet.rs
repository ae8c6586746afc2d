//! Network load generation: the open/closed-loop generators from
//! `fft_serve::loadgen`, replayed through real TCP connections.
//!
//! The open-loop generator records the same Poisson arrival schedule the
//! in-process generator draws (`open_loop_templates`), deals it round-robin
//! across `clients` concurrent connections, and streams it windowed
//! through the paced bridge. Because every submit carries its virtual
//! `at_s`, global `seq` and the sender's next-arrival watermark, the
//! gateway reassembles exactly the recorded order — so the fetched
//! `ServeReport` is byte-identical to submitting the same schedule
//! in-process, which the N-client integration test pins.

use crate::client::ServeClient;
use crate::proto::{Ack, Frame, Mode};
use fft_serve::loadgen::open_loop_templates;
use fft_serve::{SubmitTemplate, Workload};
use std::io::ErrorKind;
use std::time::Duration;

/// What a network load run observed.
#[derive(Clone, Debug, Default)]
pub struct NetLoad {
    /// Requests submitted over the wire.
    pub offered: u64,
    /// Submits the service admitted (acked).
    pub accepted: u64,
    /// Submits rejected with a typed admission error.
    pub rejected: u64,
    /// Per-rejection-code counts, `(code, count)` sorted by code.
    pub rejected_by_code: Vec<(u16, u64)>,
    /// Acks that carried v1.1 trace stamps.
    pub traced_acks: u64,
    /// Total gateway wall-clock hold (`ack_s - recv_s`) across traced
    /// acks — the wire-side latency the server's virtual-time attribution
    /// ledger cannot see. Client-side reconciliation only; never part of
    /// the deterministic report/metrics documents.
    pub gate_hold_s: f64,
}

impl NetLoad {
    fn note_ack(&mut self, ack: &Ack) {
        self.accepted += 1;
        self.traced_acks += 1;
        self.gate_hold_s += ack.hold_s();
    }

    fn absorb_code(&mut self, code: u16) {
        self.rejected += 1;
        match self.rejected_by_code.binary_search_by_key(&code, |e| e.0) {
            Ok(i) => self.rejected_by_code[i].1 += 1,
            Err(i) => self.rejected_by_code.insert(i, (code, 1)),
        }
    }

    fn merge(&mut self, other: &NetLoad) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.traced_acks += other.traced_acks;
        self.gate_hold_s += other.gate_hold_s;
        for &(code, n) in &other.rejected_by_code {
            match self.rejected_by_code.binary_search_by_key(&code, |e| e.0) {
                Ok(i) => self.rejected_by_code[i].1 += n,
                Err(i) => self.rejected_by_code.insert(i, (code, n)),
            }
        }
    }
}

/// One worker's slice of the schedule:
/// `(global_seq, at_s, next_s, template)` — single transforms and whole
/// pipeline DAGs stream through the same windowed loop.
type Slice = Vec<(u64, f64, Option<f64>, SubmitTemplate)>;

/// Deals the recorded schedule round-robin across `clients` workers,
/// computing each worker's own next-arrival watermarks.
fn deal(schedule: &[(f64, SubmitTemplate)], clients: usize) -> Vec<Slice> {
    let mut slices: Vec<Slice> = vec![Vec::new(); clients.max(1)];
    for (i, (at_s, template)) in schedule.iter().enumerate() {
        slices[i % clients.max(1)].push((i as u64, *at_s, None, template.clone()));
    }
    for slice in &mut slices {
        for i in 0..slice.len() {
            slice[i].2 = slice.get(i + 1).map(|e| e.1);
        }
    }
    slices
}

/// Opens the paced connection that will stream `slice`, announcing its
/// first arrival in the handshake.
fn connect_slice(addr: &str, name: &str, slice: &Slice) -> std::io::Result<ServeClient> {
    let first_s = slice.first().map(|e| e.1);
    let mut client = ServeClient::connect(addr, name, Mode::Paced, first_s)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    Ok(client)
}

/// Streams one worker's slice through a windowed paced connection.
fn stream_slice(mut client: ServeClient, slice: Slice) -> std::io::Result<NetLoad> {
    let window = client.info().window.max(1) as usize;
    let mut load = NetLoad {
        offered: slice.len() as u64,
        ..NetLoad::default()
    };
    let mut inflight = 0usize;
    let mut next = 0usize;
    while next < slice.len() || inflight > 0 {
        if next < slice.len() && inflight < window {
            let (seq, at_s, next_s, template) = &slice[next];
            client.send(&Frame::submit(
                *seq,
                Some(*at_s),
                *next_s,
                Some(*seq),
                template,
            ))?;
            next += 1;
            inflight += 1;
            continue;
        }
        let reply = client.recv()?;
        if let Some(ack) = reply.as_ack() {
            load.note_ack(&ack);
            inflight -= 1;
            continue;
        }
        match reply {
            Frame::Error {
                code, seq, message, ..
            } => {
                if seq.is_none() {
                    // A connection-fatal protocol error, not a rejection.
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("protocol error {code}: {message}"),
                    ));
                }
                load.absorb_code(code);
                inflight -= 1;
            }
            other => {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("unexpected frame while streaming: {other:?}"),
                ))
            }
        }
    }
    client.bye()?;
    Ok(load)
}

/// Replays the seeded open-loop schedule over `clients` concurrent TCP
/// connections. Returns the aggregate acks; fetch the report through a
/// separate control connection afterwards (see [`control`]).
///
/// # Errors
/// The first worker failure (socket or protocol), verbatim.
pub fn run_open_loop_net(
    addr: &str,
    workload: &Workload,
    requests: u64,
    rate_rps: f64,
    seed: u64,
    clients: usize,
) -> std::io::Result<NetLoad> {
    let schedule = open_loop_templates(workload, requests, rate_rps, seed);
    let slices = deal(&schedule, clients);
    // Every connection completes its handshake before any submit is sent:
    // the bridge can only hold back for connections it knows, so a client
    // still connecting while the others stream would see its earlier
    // arrivals released behind later ones.
    let connected = slices
        .iter()
        .enumerate()
        .map(|(k, slice)| connect_slice(addr, &format!("loadnet-{k}"), slice))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut handles = Vec::new();
    for (client, slice) in connected.into_iter().zip(slices) {
        handles.push(std::thread::spawn(move || stream_slice(client, slice)));
    }
    let mut total = NetLoad::default();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(load)) => total.merge(&load),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err =
                    first_err.or_else(|| Some(std::io::Error::other("a load worker panicked")))
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(total),
    }
}

/// Replays the closed-loop generator over one paced connection: windows of
/// `concurrency` submits at the drained virtual time, each window drained
/// before the next — the same sequence `fft_serve::run_closed_loop`
/// produces in-process.
///
/// # Errors
/// Socket or protocol failures.
pub fn run_closed_loop_net(
    addr: &str,
    workload: &Workload,
    requests: u64,
    concurrency: u64,
    seed: u64,
) -> std::io::Result<NetLoad> {
    assert!(concurrency > 0, "closed loop needs at least one worker");
    let mut rng = fft_math::rng::SplitMix64::new(seed);
    let mut client = ServeClient::connect(addr, "loadnet-closed", Mode::Paced, Some(0.0))?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    let mut load = NetLoad {
        offered: requests,
        ..NetLoad::default()
    };
    let mut submitted = 0u64;
    let mut at = 0.0f64;
    let mut seq = 0u64;
    while submitted < requests {
        let window = concurrency.min(requests - submitted);
        for i in 0..window {
            let template = workload.draw_submit(&mut rng);
            let last_overall = submitted + i + 1 == requests;
            // Every future submit arrives at `at` or later (the next
            // window's time comes from the drain, which only moves
            // forward), so `at` itself is a valid watermark.
            let next_s = if last_overall { None } else { Some(at) };
            match client.submit_template_traced(seq, Some(seq), Some(at), next_s, &template)? {
                Ok(ack) => load.note_ack(&ack),
                Err(e) => load.absorb_code(e.code),
            }
            seq += 1;
        }
        submitted += window;
        at = client.drain()?;
    }
    client.bye()?;
    Ok(load)
}

/// Opens a live control connection for post-run verbs (drain, report,
/// metrics, check, shutdown).
///
/// # Errors
/// Socket or handshake failures.
pub fn control(addr: &str) -> std::io::Result<ServeClient> {
    let mut c = ServeClient::connect(addr, "control", Mode::Live, None)?;
    c.set_timeout(Some(Duration::from_secs(30)))?;
    Ok(c)
}
