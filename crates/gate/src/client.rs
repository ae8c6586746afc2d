//! `ServeClient`: the blocking client side of `bifft-wire-v1.3`.
//!
//! A thin, dependency-free wrapper over one `TcpStream`: it performs the
//! `Hello` handshake at connect, then exposes the protocol verbs either
//! as blocking request/reply calls (`ping`, `submit`, `poll`, `drain`,
//! `report`, …) or as the raw `send`/`recv` pair the windowed load
//! generator streams through. Single transforms and pipeline DAGs share
//! one code path via [`ServeClient::submit_template_traced`].

use crate::proto::{Ack, Frame, FrameDecoder, Mode, PROTO};
use fft_serve::{SeededSpec, SubmitTemplate};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A typed wire error (`Error` frame) surfaced to callers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// A [`crate::proto::code`] constant.
    pub code: u16,
    /// Machine-readable kind label.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire error {} ({}): {}",
            self.code, self.kind, self.message
        )
    }
}

/// What the server declared about itself in `HelloAck`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Server build name.
    pub server: String,
    /// Fleet size behind the gateway.
    pub gpus: u64,
    /// Stream lanes per card.
    pub streams: u64,
    /// Per-connection in-flight submit window.
    pub window: u64,
    /// The admission queue bound.
    pub queue_capacity: u64,
}

/// The result of polling a correlation id.
#[derive(Clone, Debug, PartialEq)]
pub struct PollAnswer {
    /// `"queued" | "done" | "failed" | "unknown"`.
    pub status: String,
    /// `done`: completion latency, seconds.
    pub latency_s: Option<f64>,
    /// `done`: the card it ran on (`None` = sharded).
    pub card: Option<u64>,
    /// `done`: whether it missed its deadline.
    pub timed_out: Option<bool>,
    /// `failed`: the dispatch error text.
    pub error: Option<String>,
}

/// A blocking `bifft-wire-v1.3` client connection.
pub struct ServeClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The frame being sent, encoded into capacity kept from the last one.
    out: Vec<u8>,
    info: ServerInfo,
}

fn io_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.into())
}

impl ServeClient {
    /// Connects, handshakes, and returns a ready client.
    ///
    /// `first_s` matters only for [`Mode::Paced`]: the `at_s` of this
    /// connection's first submit (`None` = it will never submit), which
    /// seeds the server-side merge watermark.
    ///
    /// # Errors
    /// Socket errors, a protocol mismatch, or any non-`HelloAck` answer.
    pub fn connect(
        addr: &str,
        name: &str,
        mode: Mode,
        first_s: Option<f64>,
    ) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = ServeClient {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            info: ServerInfo {
                server: String::new(),
                gpus: 0,
                streams: 0,
                window: 1,
                queue_capacity: 0,
            },
        };
        client.send(&Frame::Hello {
            proto: PROTO.to_string(),
            client: name.to_string(),
            mode,
            first_s,
        })?;
        match client.recv()? {
            Frame::HelloAck {
                proto,
                server,
                gpus,
                streams,
                window,
                queue_capacity,
            } => {
                if proto != PROTO {
                    return Err(io_err(format!("server speaks '{proto}', not '{PROTO}'")));
                }
                client.info = ServerInfo {
                    server,
                    gpus,
                    streams,
                    window,
                    queue_capacity,
                };
                Ok(client)
            }
            Frame::Error { code, message, .. } => {
                Err(io_err(format!("handshake refused ({code}): {message}")))
            }
            other => Err(io_err(format!("expected HelloAck, got {other:?}"))),
        }
    }

    /// The server's handshake declaration.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// Sends one frame.
    ///
    /// # Errors
    /// Socket write errors.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.out.clear();
        frame.encode_into(&mut self.out);
        self.stream.write_all(&self.out)
    }

    /// Receives the next frame, blocking until one is complete.
    ///
    /// # Errors
    /// Socket errors, a clean EOF mid-frame, or an undecodable frame.
    pub fn recv(&mut self) -> std::io::Result<Frame> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(f)) => return Ok(f),
                Ok(None) => {}
                Err((code, msg)) => return Err(io_err(format!("bad frame ({code}): {msg}"))),
            }
            let mut chunk = [0u8; 16384];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.decoder.feed(&chunk[..n]);
        }
    }

    /// Round-trips a `Ping`, returning the server's virtual time.
    ///
    /// # Errors
    /// Socket/protocol errors or a mismatched nonce.
    pub fn ping(&mut self, nonce: u64) -> std::io::Result<f64> {
        self.send(&Frame::Ping { nonce })?;
        match self.recv()? {
            Frame::Pong { nonce: got, now_s } if got == nonce => Ok(now_s),
            other => Err(io_err(format!("expected Pong({nonce}), got {other:?}"))),
        }
    }

    /// Submits one request and blocks for the verdict: the correlation id
    /// on admission, the typed rejection otherwise. Sends `trace = seq`
    /// and discards the ack stamps — use
    /// [`ServeClient::submit_template_traced`] to reconcile against the
    /// server ledger.
    ///
    /// # Errors
    /// Socket/protocol errors. Admission rejections are the `Ok(Err(_))`
    /// layer — they are part of the protocol, not transport failures.
    pub fn submit(
        &mut self,
        seq: u64,
        at_s: Option<f64>,
        next_s: Option<f64>,
        spec: SeededSpec,
    ) -> std::io::Result<Result<u64, WireError>> {
        let template = SubmitTemplate::Single(spec);
        Ok(self
            .submit_template_traced(seq, Some(seq), at_s, next_s, &template)?
            .map(|ack| ack.id))
    }

    /// Submits one template — a single transform (`Submit`, acked with
    /// `SubmitAck`) or a whole pipeline DAG (`PipelineSubmit`, acked with
    /// `PipelineAck`) — and returns the gateway's [`Ack`]: the correlation
    /// id and the wall stamps. The two ack shapes are identical, so callers
    /// stream mixed traffic through one loop.
    ///
    /// # Errors
    /// Socket/protocol errors, including an ack whose echoed trace does
    /// not match what was sent.
    pub fn submit_template_traced(
        &mut self,
        seq: u64,
        trace: Option<u64>,
        at_s: Option<f64>,
        next_s: Option<f64>,
        template: &SubmitTemplate,
    ) -> std::io::Result<Result<Ack, WireError>> {
        self.send(&Frame::submit(seq, at_s, next_s, trace, template))?;
        let reply = self.recv()?;
        if let Some(ack) = reply.as_ack().filter(|a| a.seq == seq) {
            if ack.trace != trace {
                return Err(io_err(format!(
                    "ack for seq {seq} echoed trace {:?}, sent {trace:?}",
                    ack.trace
                )));
            }
            return Ok(Ok(ack));
        }
        match reply {
            Frame::Error {
                code,
                kind,
                message,
                ..
            } => Ok(Err(WireError {
                code,
                kind,
                message,
            })),
            other => Err(io_err(format!("expected a submit ack, got {other:?}"))),
        }
    }

    /// Polls a correlation id.
    ///
    /// # Errors
    /// Socket/protocol errors.
    pub fn poll(&mut self, id: u64) -> std::io::Result<PollAnswer> {
        self.send(&Frame::Poll { id })?;
        match self.recv()? {
            Frame::PollReply {
                id: got,
                status,
                latency_s,
                card,
                timed_out,
                error,
            } if got == id => Ok(PollAnswer {
                status,
                latency_s,
                card,
                timed_out,
                error,
            }),
            other => Err(io_err(format!("expected PollReply({id}), got {other:?}"))),
        }
    }

    /// Runs the service to quiescence; returns the virtual time reached.
    ///
    /// # Errors
    /// Socket/protocol errors, including the typed error the server sends
    /// when paced submissions are still in flight.
    pub fn drain(&mut self) -> std::io::Result<f64> {
        self.send(&Frame::Drain)?;
        match self.recv()? {
            Frame::DrainAck { now_s } => Ok(now_s),
            Frame::Error { code, message, .. } => {
                Err(io_err(format!("drain refused ({code}): {message}")))
            }
            other => Err(io_err(format!("expected DrainAck, got {other:?}"))),
        }
    }

    /// Fetches the `ServeReport` JSON, byte-identical to the in-process
    /// render.
    ///
    /// # Errors
    /// Socket/protocol errors.
    pub fn report(&mut self) -> std::io::Result<String> {
        self.send(&Frame::Report)?;
        match self.recv()? {
            Frame::ReportReply { json } => Ok(json),
            other => Err(io_err(format!("expected ReportReply, got {other:?}"))),
        }
    }

    /// Fetches the `bifft-metrics-v1` document.
    ///
    /// # Errors
    /// Socket/protocol errors.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.send(&Frame::MetricsReq)?;
        match self.recv()? {
            Frame::MetricsReply { json } => Ok(json),
            other => Err(io_err(format!("expected MetricsReply, got {other:?}"))),
        }
    }

    /// Fetches the hazard-validator verdict:
    /// `(enabled, clean, kernels, findings)`.
    ///
    /// # Errors
    /// Socket/protocol errors.
    pub fn check(&mut self) -> std::io::Result<(bool, bool, u64, u64)> {
        self.send(&Frame::CheckReq)?;
        match self.recv()? {
            Frame::CheckReply {
                enabled,
                clean,
                kernels,
                findings,
            } => Ok((enabled, clean, kernels, findings)),
            other => Err(io_err(format!("expected CheckReply, got {other:?}"))),
        }
    }

    /// Asks the server to shut down once every connection closes; waits
    /// for its `Bye`.
    ///
    /// # Errors
    /// Socket/protocol errors.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send(&Frame::Shutdown)?;
        match self.recv()? {
            Frame::Bye => Ok(()),
            other => Err(io_err(format!("expected Bye, got {other:?}"))),
        }
    }

    /// Says goodbye and closes.
    ///
    /// # Errors
    /// Socket write errors (already-closed streams are fine to drop
    /// silently instead).
    pub fn bye(mut self) -> std::io::Result<()> {
        self.send(&Frame::Bye)?;
        self.stream.flush()
    }

    /// Sets a read timeout so a wedged server cannot hang a test forever.
    ///
    /// # Errors
    /// Socket option errors.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}
