//! The gateway server: a dependency-free, single-threaded poll loop over
//! nonblocking std TCP.
//!
//! One thread owns the listener, every connection, the paced bridge and
//! the `FftService` — no locks, no async runtime, and the workspace keeps
//! building `--offline`. Each loop iteration flushes pending writes,
//! reads from every unpaused connection, decodes and handles complete
//! frames, then pumps the paced bridge.
//!
//! Backpressure is connection-level and explicit, a three-state machine
//! per connection (see DESIGN.md §14):
//!
//! - **open** — frames are read and handled as they arrive;
//! - **window-paused** — a paced connection with `window` submissions held
//!   in the bridge stops being read until releases drain it below the
//!   window (the bytes stay in the kernel socket buffer, so TCP pushes
//!   the stall back to the client);
//! - **queue-paused** — a live connection whose submit just bounced with
//!   `QueueFull` stops being read until the admission queue has room
//!   again, converting the service's rejection taxonomy into transport
//!   backpressure. Paced connections are exempt: their rejections are part
//!   of the recorded workload and must replay identically.
//!
//! Every gateway-side counter lives in the service's own telemetry
//! registry, so `--metrics-out` exports one document covering both layers.

use crate::bridge::PacedBridge;
use crate::proto::{
    code, rejection_code, rejection_kind, Ack, Frame, FrameDecoder, Mode, PROTO, PROTO_V12,
};
use fft_serve::{FftService, Rejection, RequestId, ServeConfig, SubmitTemplate, Ticket};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Gateway metric names, `gate_`-prefixed to sit beside the `serve_*`
/// family in the shared registry.
pub mod names {
    /// Connections accepted over the gateway's lifetime.
    pub const CONNECTIONS: &str = "gate_connections_total";
    /// Connections currently open (gauge).
    pub const CONNECTIONS_OPEN: &str = "gate_connections_open";
    /// Frames decoded from clients.
    pub const FRAMES_IN: &str = "gate_frames_in_total";
    /// Frames sent to clients.
    pub const FRAMES_OUT: &str = "gate_frames_out_total";
    /// Payload + header bytes read.
    pub const BYTES_IN: &str = "gate_bytes_in_total";
    /// Payload + header bytes written.
    pub const BYTES_OUT: &str = "gate_bytes_out_total";
    /// Submit frames accepted into the service.
    pub const SUBMITS: &str = "gate_submits_total";
    /// Submit frames the service rejected (any admission reason).
    pub const REJECTED: &str = "gate_rejected_total";
    /// Poll frames answered.
    pub const POLLS: &str = "gate_polls_total";
    /// Malformed / out-of-protocol frames (each closes its connection).
    pub const PROTOCOL_ERRORS: &str = "gate_protocol_errors_total";
    /// Transitions into a read-paused state (window or queue pressure).
    pub const BACKPRESSURE_STALLS: &str = "gate_backpressure_stalls_total";
}

/// Server-side knobs.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// The serve-core configuration behind the gateway.
    pub serve: ServeConfig,
    /// Per-connection in-flight submit window (paced connections pause at
    /// this many unreleased submissions).
    pub window: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            serve: ServeConfig::default(),
            window: 32,
        }
    }
}

/// Why the loop is not reading a connection right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pause {
    /// Reading normally.
    No,
    /// Paced window full — waiting for bridge releases.
    Window,
    /// Live connection shed with `QueueFull` — waiting for queue room.
    Queue,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Bytes queued to write, drained opportunistically each iteration.
    out: Vec<u8>,
    /// `None` until the `Hello` handshake lands.
    mode: Option<Mode>,
    pause: Pause,
    /// Close once the out-buffer flushes.
    closing: bool,
}

/// One submit's reply coordinates: the connection it came in on, the
/// client's frame seq / trace id, the gateway wall stamps taken at decode
/// (`recv_s`) and service enqueue (`enq_s`), and whether the ack goes out
/// as a `PipelineAck` instead of a `SubmitAck`.
struct SubmitReply {
    conn: u64,
    seq: u64,
    trace: Option<u64>,
    recv_s: f64,
    enq_s: f64,
    pipeline: bool,
}

/// The gateway server. Construct with [`GateServer::bind`], then either
/// [`GateServer::run`] to completion or drive [`GateServer::run_once`]
/// from a custom loop.
pub struct GateServer {
    listener: TcpListener,
    svc: FftService,
    bridge: PacedBridge,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    window: usize,
    check_enabled: bool,
    /// Set by a `Shutdown` frame: stop accepting, exit once drained.
    shutdown: bool,
    started: Instant,
}

impl GateServer {
    /// Binds the listener and brings the fleet up.
    ///
    /// # Errors
    /// Socket errors from the bind, and service construction failures
    /// (invalid [`ServeConfig`]) mapped to [`ErrorKind::InvalidInput`].
    pub fn bind(addr: &str, cfg: GateConfig) -> std::io::Result<GateServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        GateServer::from_listener(listener, cfg)
    }

    /// Binds on the calling thread (so bind errors surface immediately)
    /// and runs the gateway on a background thread. `FftService` holds
    /// `Rc`s and is not `Send`, so the service is constructed — and
    /// dropped — on the thread that drives it; only the listener crosses.
    /// Inspect server state over the wire (`Report`, `MetricsReq`, …).
    ///
    /// # Errors
    /// Socket errors from the bind and invalid [`ServeConfig`]s.
    pub fn spawn(
        addr: &str,
        cfg: GateConfig,
    ) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        cfg.serve
            .validate()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let handle = std::thread::spawn(move || {
            GateServer::from_listener(listener, cfg)
                .expect("config pre-validated")
                .run();
        });
        Ok((bound, handle))
    }

    /// Brings the fleet up behind an already-bound nonblocking listener.
    ///
    /// # Errors
    /// Service construction failures (invalid [`ServeConfig`]) mapped to
    /// [`ErrorKind::InvalidInput`].
    pub fn from_listener(listener: TcpListener, cfg: GateConfig) -> std::io::Result<GateServer> {
        let check_enabled = cfg.serve.check_hazards;
        let mut svc = FftService::new(cfg.serve)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let reg = &mut svc.telemetry_mut().registry;
        for name in [
            names::CONNECTIONS,
            names::FRAMES_IN,
            names::FRAMES_OUT,
            names::BYTES_IN,
            names::BYTES_OUT,
            names::SUBMITS,
            names::REJECTED,
            names::POLLS,
            names::PROTOCOL_ERRORS,
            names::BACKPRESSURE_STALLS,
        ] {
            reg.set_counter(name, 0);
        }
        reg.set_gauge(names::CONNECTIONS_OPEN, 0.0);
        Ok(GateServer {
            listener,
            svc,
            bridge: PacedBridge::new(),
            conns: BTreeMap::new(),
            next_conn: 0,
            window: cfg.window.max(1),
            check_enabled,
            shutdown: false,
            started: Instant::now(),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service behind the gateway (tests inspect reports directly).
    pub fn service(&self) -> &FftService {
        &self.svc
    }

    /// Runs until a `Shutdown` frame arrives and every connection closes.
    /// Returns the service for post-run inspection.
    pub fn run(mut self) -> FftService {
        loop {
            let busy = self.run_once();
            if self.shutdown && self.conns.is_empty() {
                return self.svc;
            }
            if !busy {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    }

    /// One poll-loop iteration: accept, flush, read, handle, pump.
    /// Returns whether any I/O or frame work happened (callers sleep
    /// briefly when idle).
    pub fn run_once(&mut self) -> bool {
        let mut busy = self.accept_new();
        busy |= self.flush_writes();
        busy |= self.read_and_handle();
        self.pump_bridge();
        self.unpause_queue_waiters();
        busy |= self.flush_writes();
        self.reap_closed();
        busy
    }

    fn accept_new(&mut self) -> bool {
        let mut busy = false;
        while !self.shutdown {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            out: Vec::new(),
                            mode: None,
                            pause: Pause::No,
                            closing: false,
                        },
                    );
                    let reg = &mut self.svc.telemetry_mut().registry;
                    reg.inc(names::CONNECTIONS);
                    reg.set_gauge(names::CONNECTIONS_OPEN, self.conns.len() as f64);
                    busy = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        busy
    }

    fn flush_writes(&mut self) -> bool {
        let mut busy = false;
        let mut written = 0u64;
        for conn in self.conns.values_mut() {
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        conn.closing = true;
                        conn.out.clear();
                        break;
                    }
                    Ok(n) => {
                        written += n as u64;
                        conn.out.drain(..n);
                        busy = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.closing = true;
                        conn.out.clear();
                        break;
                    }
                }
            }
        }
        if written > 0 {
            self.svc
                .telemetry_mut()
                .registry
                .add(names::BYTES_OUT, written);
        }
        busy
    }

    fn read_and_handle(&mut self) -> bool {
        let mut busy = false;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            // High-water on the out-buffer: stop reading until it drains.
            let skip = {
                let c = self.conns.get(&id).expect("conn exists");
                c.closing || c.pause != Pause::No || c.out.len() > (1 << 22)
            };
            if skip {
                continue;
            }
            let mut chunk = [0u8; 16384];
            loop {
                let read = {
                    let c = self.conns.get_mut(&id).expect("conn exists");
                    c.stream.read(&mut chunk)
                };
                match read {
                    Ok(0) => {
                        self.drop_conn(id);
                        busy = true;
                        break;
                    }
                    Ok(n) => {
                        busy = true;
                        self.svc
                            .telemetry_mut()
                            .registry
                            .add(names::BYTES_IN, n as u64);
                        self.conns
                            .get_mut(&id)
                            .expect("conn exists")
                            .decoder
                            .feed(&chunk[..n]);
                        self.drain_frames(id);
                        let gone_or_paused = self
                            .conns
                            .get(&id)
                            .is_none_or(|c| c.closing || c.pause != Pause::No);
                        if gone_or_paused {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.drain_frames(id);
                        break;
                    }
                    Err(_) => {
                        self.drop_conn(id);
                        busy = true;
                        break;
                    }
                }
            }
        }
        busy
    }

    /// Decodes and handles every complete frame buffered on `id`, stopping
    /// early if handling pauses or closes the connection.
    fn drain_frames(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.closing || conn.pause != Pause::No {
                return;
            }
            match conn.decoder.next_frame() {
                Ok(None) => return,
                Ok(Some(frame)) => {
                    self.svc.telemetry_mut().registry.inc(names::FRAMES_IN);
                    self.handle_frame(id, frame);
                }
                Err((ecode, msg)) => {
                    self.protocol_error(id, None, ecode, &msg);
                    return;
                }
            }
        }
    }

    /// Books a protocol error: counter, typed `Error` frame, connection
    /// close. Protocol errors are always fatal to the connection — after a
    /// framing error the stream cannot be resynchronized.
    fn protocol_error(&mut self, id: u64, seq: Option<u64>, ecode: u16, msg: &str) {
        self.svc
            .telemetry_mut()
            .registry
            .inc(names::PROTOCOL_ERRORS);
        let kind = match ecode {
            code::FRAME_TOO_BIG => "frame_too_big",
            code::HELLO_REQUIRED => "hello_required",
            code::PROTO_MISMATCH => "proto_mismatch",
            code::BAD_REQUEST => "bad_request",
            code::UNKNOWN_TYPE => "unknown_type",
            code::UNSUPPORTED_STAGE => "unsupported_stage",
            _ => "bad_frame",
        };
        self.reply(
            id,
            &Frame::Error {
                seq,
                code: ecode,
                kind: kind.to_string(),
                message: msg.to_string(),
            },
        );
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.closing = true;
        }
        self.bridge.close(id);
    }

    /// Queues `frame` for write on connection `id` (when it is still open)
    /// and counts it.
    fn reply(&mut self, id: u64, frame: &Frame) {
        if let Some(conn) = self.conns.get_mut(&id) {
            frame.encode_into(&mut conn.out);
        }
        self.svc.telemetry_mut().registry.inc(names::FRAMES_OUT);
    }

    fn handle_frame(&mut self, id: u64, frame: Frame) {
        let Some(mode) = self.conns.get(&id).and_then(|c| c.mode) else {
            // The handshake: nothing but Hello is acceptable first.
            match frame {
                Frame::Hello {
                    proto,
                    client: _,
                    mode,
                    first_s,
                } => {
                    // v1.3 only adds frame types, so a v1.2 client is
                    // served unchanged (it simply never sends type 20).
                    if proto != PROTO && proto != PROTO_V12 {
                        self.protocol_error(
                            id,
                            None,
                            code::PROTO_MISMATCH,
                            &format!("server speaks {PROTO}, client offered {proto}"),
                        );
                        return;
                    }
                    if mode == Mode::Paced {
                        if let Err(e) = self.bridge.register(id, first_s) {
                            self.protocol_error(id, None, code::BAD_REQUEST, &e);
                            return;
                        }
                    }
                    let ack = Frame::HelloAck {
                        proto: PROTO.to_string(),
                        server: "fft-gate".to_string(),
                        gpus: self.svc.config().n_gpus as u64,
                        streams: self.svc.config().streams_per_card as u64,
                        window: self.window as u64,
                        queue_capacity: self.svc.config().queue_capacity as u64,
                    };
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.mode = Some(mode);
                    }
                    self.reply(id, &ack);
                }
                _ => {
                    self.protocol_error(
                        id,
                        None,
                        code::HELLO_REQUIRED,
                        "the first frame on a connection must be Hello",
                    );
                }
            }
            return;
        };
        match frame {
            Frame::Hello { .. } => {
                self.protocol_error(id, None, code::BAD_REQUEST, "duplicate Hello");
            }
            Frame::Submit {
                seq,
                at_s,
                next_s,
                trace,
                spec,
            } => {
                let tpl = SubmitTemplate::Single(spec);
                self.handle_submit(id, mode, seq, at_s, next_s, trace, tpl);
            }
            Frame::PipelineSubmit {
                seq,
                at_s,
                next_s,
                trace,
                pipe,
            } => {
                let tpl = SubmitTemplate::Pipeline(pipe);
                self.handle_submit(id, mode, seq, at_s, next_s, trace, tpl);
            }
            Frame::Poll { id: rid } => {
                self.svc.telemetry_mut().registry.inc(names::POLLS);
                let reply = poll_reply(&self.svc, rid);
                self.reply(id, &reply);
            }
            Frame::Ping { nonce } => {
                let now_s = self.svc.now_s();
                self.reply(id, &Frame::Pong { nonce, now_s });
            }
            Frame::Drain => {
                if self.bridge.held_total() > 0 {
                    self.protocol_error(
                        id,
                        None,
                        code::BAD_REQUEST,
                        "drain while paced submissions are still held",
                    );
                    return;
                }
                let now_s = self.svc.drain();
                self.reply(id, &Frame::DrainAck { now_s });
            }
            Frame::Report => {
                let json = self.svc.report().to_json();
                self.reply(id, &Frame::ReportReply { json });
            }
            Frame::MetricsReq => {
                let json = self.svc.metrics_json();
                self.reply(id, &Frame::MetricsReply { json });
            }
            Frame::CheckReq => {
                let rep = self.svc.check_report();
                let reply = match rep {
                    Some(r) => Frame::CheckReply {
                        enabled: self.check_enabled,
                        clean: r.clean(),
                        kernels: r.kernels_checked as u64,
                        findings: (r.access.len() + r.hazards.len()) as u64,
                    },
                    None => Frame::CheckReply {
                        enabled: self.check_enabled,
                        clean: true,
                        kernels: 0,
                        findings: 0,
                    },
                };
                self.reply(id, &reply);
            }
            Frame::Shutdown => {
                self.shutdown = true;
                self.reply(id, &Frame::Bye);
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.closing = true;
                }
            }
            Frame::Bye => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.closing = true;
                }
                self.bridge.close(id);
            }
            // Server-to-client frames bounced back are nonsense.
            Frame::HelloAck { .. }
            | Frame::SubmitAck { .. }
            | Frame::PollReply { .. }
            | Frame::Error { .. }
            | Frame::Pong { .. }
            | Frame::DrainAck { .. }
            | Frame::ReportReply { .. }
            | Frame::MetricsReply { .. }
            | Frame::CheckReply { .. }
            | Frame::PipelineAck { .. } => {
                self.protocol_error(id, None, code::BAD_REQUEST, "server-only frame from client");
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_submit(
        &mut self,
        id: u64,
        mode: Mode,
        seq: u64,
        at_s: Option<f64>,
        next_s: Option<f64>,
        trace: Option<u64>,
        template: SubmitTemplate,
    ) {
        // The frame-received stamp for the ack: gateway wall clock at the
        // moment the submit was decoded.
        let recv_s = self.started.elapsed().as_secs_f64();
        match mode {
            Mode::Paced => {
                let Some(at) = at_s else {
                    self.protocol_error(
                        id,
                        Some(seq),
                        code::BAD_REQUEST,
                        "paced submits must carry at_s",
                    );
                    return;
                };
                if let Err(e) = self
                    .bridge
                    .submit(id, seq, at, next_s, trace, recv_s, template)
                {
                    self.protocol_error(id, Some(seq), code::BAD_REQUEST, &e);
                    return;
                }
                if self.bridge.held_by(id) >= self.window {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.pause = Pause::Window;
                    }
                    self.svc
                        .telemetry_mut()
                        .registry
                        .inc(names::BACKPRESSURE_STALLS);
                }
            }
            Mode::Live => {
                // Wall clock drives virtual time for interactive clients:
                // elapsed real seconds since the gateway started, never
                // running virtual time backwards.
                let wall = self.started.elapsed().as_secs_f64();
                let at = at_s.unwrap_or(wall).max(self.svc.now_s());
                let pipeline = matches!(template, SubmitTemplate::Pipeline(_));
                let result = template.submit(&mut self.svc, at);
                let enq_s = self.started.elapsed().as_secs_f64();
                self.answer_submit(
                    SubmitReply {
                        conn: id,
                        seq,
                        trace,
                        recv_s,
                        enq_s,
                        pipeline,
                    },
                    &result,
                );
                if let Err(r) = &result {
                    if matches!(r, Rejection::QueueFull { .. }) {
                        // The read-pause that turns admission shedding into
                        // transport backpressure.
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.pause = Pause::Queue;
                        }
                        self.svc
                            .telemetry_mut()
                            .registry
                            .inc(names::BACKPRESSURE_STALLS);
                    }
                }
            }
        }
    }

    /// Queues the ack or typed rejection for one released/admitted submit.
    /// `reply.recv_s`/`reply.enq_s` are gateway wall stamps (frame decoded,
    /// request entered the service); the ack stamp is taken here, as the
    /// reply is queued for write.
    fn answer_submit(&mut self, reply: SubmitReply, result: &Result<Ticket, Rejection>) {
        let SubmitReply {
            conn: id,
            seq,
            trace,
            recv_s,
            enq_s,
            pipeline,
        } = reply;
        let ack_s = self.started.elapsed().as_secs_f64();
        let reg = &mut self.svc.telemetry_mut().registry;
        let reply = match result {
            Ok(ticket) => {
                reg.inc(names::SUBMITS);
                let ack = Ack {
                    seq,
                    id: ticket.correlation(),
                    trace,
                    recv_s,
                    enq_s,
                    ack_s,
                };
                Frame::ack(pipeline, ack)
            }
            Err(r) => {
                reg.inc(names::REJECTED);
                Frame::Error {
                    seq: Some(seq),
                    code: rejection_code(r),
                    kind: rejection_kind(r).to_string(),
                    message: r.to_string(),
                }
            }
        };
        self.reply(id, &reply);
    }

    /// Releases whatever the bridge allows, submits it in schedule order,
    /// and lifts window pauses that dropped below the threshold.
    fn pump_bridge(&mut self) {
        loop {
            let released = self.bridge.release();
            if released.is_empty() {
                break;
            }
            for held in released {
                let pipeline = matches!(held.spec, SubmitTemplate::Pipeline(_));
                let result = held.spec.submit(&mut self.svc, held.at_s);
                let enq_s = self.started.elapsed().as_secs_f64();
                self.answer_submit(
                    SubmitReply {
                        conn: held.conn,
                        seq: held.seq,
                        trace: held.trace,
                        recv_s: held.recv_s,
                        enq_s,
                        pipeline,
                    },
                    &result,
                );
            }
        }
        for (&id, conn) in self.conns.iter_mut() {
            if conn.pause == Pause::Window && self.bridge.held_by(id) < self.window {
                conn.pause = Pause::No;
            }
        }
    }

    /// Lifts queue-pauses once admission has room again. Live connections
    /// are wall-clock driven, so first move virtual time up to the wall —
    /// otherwise a fleet of paused clients would deadlock waiting for a
    /// queue nothing is left to drain.
    fn unpause_queue_waiters(&mut self) {
        if self.conns.values().all(|c| c.pause != Pause::Queue) {
            return;
        }
        let wall = self.started.elapsed().as_secs_f64();
        self.svc.advance(wall);
        if self.svc.queue_depth() >= self.svc.config().queue_capacity {
            return;
        }
        for conn in self.conns.values_mut() {
            if conn.pause == Pause::Queue {
                conn.pause = Pause::No;
            }
        }
    }

    fn drop_conn(&mut self, id: u64) {
        self.conns.remove(&id);
        self.bridge.close(id);
        self.svc
            .telemetry_mut()
            .registry
            .set_gauge(names::CONNECTIONS_OPEN, self.conns.len() as f64);
    }

    fn reap_closed(&mut self) {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.closing && c.out.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            self.drop_conn(id);
        }
    }
}

/// Renders the service's answer for a polled correlation id.
fn poll_reply(svc: &FftService, rid: u64) -> Frame {
    let ticket = Ticket {
        id: RequestId(rid),
        at_s: 0.0,
    };
    match svc.poll(ticket) {
        fft_serve::PollStatus::Queued => Frame::PollReply {
            id: rid,
            status: "queued".to_string(),
            latency_s: None,
            card: None,
            timed_out: None,
            error: None,
        },
        fft_serve::PollStatus::Done(c) => Frame::PollReply {
            id: rid,
            status: "done".to_string(),
            latency_s: Some(c.latency_s()),
            card: c.card.map(|x| x as u64),
            timed_out: Some(c.timed_out),
            error: None,
        },
        fft_serve::PollStatus::Failed(e) => Frame::PollReply {
            id: rid,
            status: "failed".to_string(),
            latency_s: None,
            card: None,
            timed_out: None,
            error: Some(e.to_string()),
        },
        fft_serve::PollStatus::Unknown => Frame::PollReply {
            id: rid,
            status: "unknown".to_string(),
            latency_s: None,
            card: None,
            timed_out: None,
            error: None,
        },
    }
}
