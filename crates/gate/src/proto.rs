//! `bifft-wire-v1.3`: the versioned, length-prefixed frame protocol the
//! gateway speaks.
//!
//! Every frame is a 5-byte header — one type byte, then the body length as
//! a little-endian `u32` — followed by a UTF-8 JSON body. Bodies are JSON
//! so a session is debuggable with a hex dump and a squint; the length
//! prefix is what lets the decoder resynchronize nothing and reject
//! oversized frames *before* allocating for them. The protocol string
//! travels in `Hello` and is matched exactly: any future breaking change
//! bumps it to `bifft-wire-v2` and old clients get a typed
//! [`code::PROTO_MISMATCH`] instead of undefined behaviour.
//!
//! The per-frame path allocates nothing once its buffers are warm:
//! [`Frame::encode_into`] writes header and body straight into the
//! caller's buffer (the socket's out-buffer, in the server), and
//! [`FrameDecoder`] reads each field from a token tape of the body it
//! keeps between frames, borrowing strings from the bytes received.
//!
//! The v1.2 → v1.3 minor rev added pipeline DAGs: `PipelineSubmit` (type
//! 20) carries a [`fft_serve::SeededPipeline`] — dims, per-input payload
//! seeds, and the stage list with stable string kinds and `"in{i}"`/
//! `"s{i}"` operand labels — and is answered by `PipelineAck` (type 21,
//! the shape of `SubmitAck`). A stage kind this server does not implement
//! rejects with the new stable [`code::UNSUPPORTED_STAGE`]. v1.2 clients
//! are unaffected: every v1.2 frame encodes and decodes byte-identically,
//! and the server still accepts a v1.2 `Hello`.
//!
//! The v1.1 → v1.2 minor rev added multi-tenant QoS plumbing: `Submit`
//! specs carry the numeric `tenant` the request is accounted to (decoders
//! default a missing field to tenant `0`, so v1.1 captures replay
//! unchanged), and a tenant over its admission quota gets the typed
//! [`code::QUOTA_EXCEEDED`] rejection.
//!
//! The v1 → v1.1 minor rev added latency-attribution plumbing: `Submit`
//! carries an optional client-chosen `trace` id, and `SubmitAck` echoes it
//! alongside three gateway wall-clock stamps (`recv_s` frame received,
//! `enq_s` submitted into the service, `ack_s` ack queued — seconds since
//! the gateway started). The stamps let a client reconcile its observed
//! round-trip against the server's virtual-time ledger; they never enter
//! the deterministic report/metrics/attribution documents.
//!
//! Requests travel as [`fft_serve::SeededSpec`] templates — shape,
//! direction, priority, deadline and the payload *seed*, a few dozen bytes
//! — and both ends materialize the identical payload from the seed. That
//! is what makes the same-seed gateway run byte-identical to the
//! in-process run without shipping megabytes of samples.

use bifft::plan::Algorithm;
use fft_math::json::{self, field, write_str, write_u64, Lookup, Node, ObjWriter, Tape};
use fft_math::twiddle::Direction;
use fft_serve::pipeline::{PipelineStage, StageKind};
use fft_serve::{
    Operand, Priority, Rejection, SeededPipeline, SeededSpec, Shape, SubmitTemplate, TenantId,
};

/// The protocol identifier carried in `Hello`/`HelloAck`.
pub const PROTO: &str = "bifft-wire-v1.3";

/// The previous minor rev. v1.3 only *adds* frame types, so the server
/// accepts a v1.2 `Hello` unchanged — pre-pipeline clients keep working.
pub const PROTO_V12: &str = "bifft-wire-v1.2";

/// Largest accepted frame body, bytes. Checked against the header length
/// before any allocation, so a hostile 4 GiB length prefix costs nothing.
pub const MAX_FRAME: u32 = 1 << 20;

/// Frame header size: type byte + `u32` little-endian body length.
pub const HEADER_LEN: usize = 5;

/// Typed wire error codes — stable numbers clients branch on without
/// parsing message strings.
pub mod code {
    /// Admission: the bounded queue is full (backpressure; retry later).
    pub const QUEUE_FULL: u16 = 1;
    /// Admission: the deadline cannot be met at the current backlog.
    pub const DEADLINE_INFEASIBLE: u16 = 2;
    /// Admission: the shape or payload is invalid for this service.
    pub const UNSUPPORTED: u16 = 3;
    /// Admission: a rows payload larger than a lane's staging slot.
    pub const OVERSIZED: u16 = 4;
    /// Admission: a volume the whole fleet has proved unallocatable.
    pub const UNALLOCATABLE: u16 = 5;
    /// Admission: the tenant is over its token-bucket rate or in-flight
    /// quota (per-tenant backpressure; retry after the bucket refills).
    pub const QUOTA_EXCEEDED: u16 = 6;
    /// Admission: a pipeline stage kind this server does not implement,
    /// or a DAG the residency executor cannot run in place.
    pub const UNSUPPORTED_STAGE: u16 = 7;
    /// Protocol: unparseable frame header or body.
    pub const BAD_FRAME: u16 = 100;
    /// Protocol: header length exceeds [`super::MAX_FRAME`].
    pub const FRAME_TOO_BIG: u16 = 101;
    /// Protocol: the first frame was not `Hello`.
    pub const HELLO_REQUIRED: u16 = 103;
    /// Protocol: the client's protocol string is not [`super::PROTO`].
    pub const PROTO_MISMATCH: u16 = 104;
    /// Protocol: a well-formed frame with nonsensical fields.
    pub const BAD_REQUEST: u16 = 106;
    /// Protocol: unknown frame type byte.
    pub const UNKNOWN_TYPE: u16 = 107;
}

/// The stable wire code for a rejection.
///
/// The match is deliberately wildcard-free: adding a `Rejection` variant
/// without assigning it a wire code fails to compile here, which is the
/// exhaustiveness guarantee the satellite task asks for.
pub fn rejection_code(r: &Rejection) -> u16 {
    match r {
        Rejection::QueueFull { .. } => code::QUEUE_FULL,
        Rejection::DeadlineInfeasible { .. } => code::DEADLINE_INFEASIBLE,
        Rejection::Unsupported(_) => code::UNSUPPORTED,
        Rejection::Oversized { .. } => code::OVERSIZED,
        Rejection::Unallocatable(_) => code::UNALLOCATABLE,
        Rejection::QuotaExceeded { .. } => code::QUOTA_EXCEEDED,
        Rejection::UnsupportedStage(_) => code::UNSUPPORTED_STAGE,
    }
}

/// The machine-readable kind label paired with each rejection code.
pub fn rejection_kind(r: &Rejection) -> &'static str {
    match r {
        Rejection::QueueFull { .. } => "queue_full",
        Rejection::DeadlineInfeasible { .. } => "deadline_infeasible",
        Rejection::Unsupported(_) => "unsupported",
        Rejection::Oversized { .. } => "oversized",
        Rejection::Unallocatable(_) => "unallocatable",
        Rejection::QuotaExceeded { .. } => "quota_exceeded",
        Rejection::UnsupportedStage(_) => "unsupported_stage",
    }
}

/// How a connection drives virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Submits are stamped with wall-clock-derived virtual arrival times —
    /// the interactive mode.
    Live,
    /// Submits carry explicit virtual arrival times from a recorded
    /// schedule; the bridge merges all paced connections into the exact
    /// schedule order.
    Paced,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Live => "live",
            Mode::Paced => "paced",
        }
    }
}

/// One decoded `bifft-wire-v1` frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server, first frame on every connection.
    Hello {
        /// Must equal [`PROTO`].
        proto: String,
        /// Free-form client name for logs.
        client: String,
        /// How this connection drives virtual time.
        mode: Mode,
        /// Paced connections: the `at_s` of this connection's first submit
        /// (`None` = it will never submit), seeding the bridge watermark.
        first_s: Option<f64>,
    },
    /// Server → client handshake reply.
    HelloAck {
        /// Echoes [`PROTO`].
        proto: String,
        /// Server build name.
        server: String,
        /// Fleet size behind the gateway.
        gpus: u64,
        /// Stream lanes per card.
        streams: u64,
        /// Per-connection in-flight submit window.
        window: u64,
        /// The admission queue bound (backpressure threshold).
        queue_capacity: u64,
    },
    /// Client → server: one request.
    Submit {
        /// Client-chosen correlation for the ack (paced runs use the
        /// schedule index, which doubles as the global merge tiebreak).
        seq: u64,
        /// Paced connections: explicit virtual arrival time.
        at_s: Option<f64>,
        /// Paced connections: the `at_s` of this connection's *next*
        /// submit (`None` = this is the last) — the bridge watermark that
        /// lets other connections' earlier arrivals release.
        next_s: Option<f64>,
        /// Client-chosen trace id, echoed verbatim in the ack — the key a
        /// client uses to reconcile its own latency observations against
        /// the server-side attribution ledger.
        trace: Option<u64>,
        /// The request template.
        spec: SeededSpec,
    },
    /// Server → client: the submit was admitted.
    SubmitAck {
        /// Echoed from the submit.
        seq: u64,
        /// The service request id — the wire correlation id for `Poll`.
        id: u64,
        /// Echoed trace id from the submit.
        trace: Option<u64>,
        /// Gateway wall clock when the submit frame was decoded, seconds
        /// since the gateway started.
        recv_s: f64,
        /// Gateway wall clock when the request entered the service (for
        /// paced submits this is the bridge release, not the frame).
        enq_s: f64,
        /// Gateway wall clock when this ack was queued for write.
        ack_s: f64,
    },
    /// Client → server: what happened to request `id`?
    Poll {
        /// A correlation id from `SubmitAck`.
        id: u64,
    },
    /// Server → client poll answer.
    PollReply {
        /// Echoed id.
        id: u64,
        /// `"queued" | "done" | "failed" | "unknown"`.
        status: String,
        /// `done`: completion latency, seconds.
        latency_s: Option<f64>,
        /// `done`: card the launch ran on (`None` = sharded or pending).
        card: Option<u64>,
        /// `done`: whether the completion missed its deadline.
        timed_out: Option<bool>,
        /// `failed`: the dispatch error rendered as text.
        error: Option<String>,
    },
    /// Server → client: a typed error, fatal to the offending request
    /// (admission codes) or to the connection (protocol codes).
    Error {
        /// The submit `seq` it answers, when there is one.
        seq: Option<u64>,
        /// A [`code`] constant.
        code: u16,
        /// Machine-readable kind label.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server liveness probe.
    Ping {
        /// Echoed back in `Pong`.
        nonce: u64,
    },
    /// Server → client probe reply.
    Pong {
        /// Echoed nonce.
        nonce: u64,
        /// Server virtual time, seconds.
        now_s: f64,
    },
    /// Client → server: run the service to quiescence (virtual time).
    Drain,
    /// Server → client: drain finished.
    DrainAck {
        /// Virtual time after the drain, seconds.
        now_s: f64,
    },
    /// Client → server: render the run's `ServeReport`.
    Report,
    /// Server → client: the report. The body is the `ServeReport` JSON
    /// document verbatim — byte-identical to the in-process render.
    ReportReply {
        /// The report JSON.
        json: String,
    },
    /// Client → server: render the `bifft-metrics-v1` document.
    MetricsReq,
    /// Server → client: the metrics document verbatim.
    MetricsReply {
        /// The metrics JSON.
        json: String,
    },
    /// Client → server: the hazard-validator verdict.
    CheckReq,
    /// Server → client check answer.
    CheckReply {
        /// Whether the fleet runs under the validator at all.
        enabled: bool,
        /// No diagnostics and no hazards (vacuously true when disabled).
        clean: bool,
        /// Kernels checked so far.
        kernels: u64,
        /// Access diagnostics + stream hazards recorded.
        findings: u64,
    },
    /// Client → server: stop accepting connections and exit once every
    /// connection closes (the orderly CI teardown).
    Shutdown,
    /// Either direction: goodbye; the sender closes after flushing.
    Bye,
    /// Client → server: one pipeline DAG (v1.3). Pacing fields mean what
    /// they do on `Submit`; the whole DAG is one schedulable unit.
    PipelineSubmit {
        /// Client-chosen correlation for the ack.
        seq: u64,
        /// Paced connections: explicit virtual arrival time.
        at_s: Option<f64>,
        /// Paced connections: the `at_s` of this connection's next submit.
        next_s: Option<f64>,
        /// Client-chosen trace id, echoed in the ack.
        trace: Option<u64>,
        /// The pipeline template (dims, input seeds, stages).
        pipe: SeededPipeline,
    },
    /// Server → client: the pipeline was admitted (v1.3; the shape of
    /// `SubmitAck`).
    PipelineAck {
        /// Echoed from the submit.
        seq: u64,
        /// The service request id — one id for the whole DAG.
        id: u64,
        /// Echoed trace id.
        trace: Option<u64>,
        /// Gateway wall clock when the frame was decoded.
        recv_s: f64,
        /// Gateway wall clock when the DAG entered the service.
        enq_s: f64,
        /// Gateway wall clock when this ack was queued for write.
        ack_s: f64,
    },
}

/// The fields of a `SubmitAck` or `PipelineAck`: the two acks have the same
/// shape, so every reader goes through [`Frame::as_ack`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ack {
    /// Echoed from the submit.
    pub seq: u64,
    /// The service request id — the wire correlation id for `Poll`.
    pub id: u64,
    /// The trace id echoed from the submit (`None` = none was sent).
    pub trace: Option<u64>,
    /// Gateway wall clock when the submit frame was decoded.
    pub recv_s: f64,
    /// Gateway wall clock when the request entered the service.
    pub enq_s: f64,
    /// Gateway wall clock when the ack was queued for write.
    pub ack_s: f64,
}

impl Ack {
    /// Seconds the gateway held this submit between decoding the frame
    /// and queueing its ack (bridge residency plus service admission) —
    /// the piece of client-observed latency the server-side attribution
    /// ledger cannot see (it lives before virtual time starts).
    pub fn hold_s(&self) -> f64 {
        self.ack_s - self.recv_s
    }
}

impl Frame {
    /// The submit frame for one template: `Submit` for a single transform,
    /// `PipelineSubmit` for a DAG.
    pub fn submit(
        seq: u64,
        at_s: Option<f64>,
        next_s: Option<f64>,
        trace: Option<u64>,
        template: &SubmitTemplate,
    ) -> Frame {
        match template {
            SubmitTemplate::Single(spec) => Frame::Submit {
                seq,
                at_s,
                next_s,
                trace,
                spec: *spec,
            },
            SubmitTemplate::Pipeline(pipe) => Frame::PipelineSubmit {
                seq,
                at_s,
                next_s,
                trace,
                pipe: pipe.clone(),
            },
        }
    }

    /// The ack of an admitted submit: `PipelineAck` for a DAG, `SubmitAck`
    /// for a single transform.
    pub fn ack(pipeline: bool, ack: Ack) -> Frame {
        let Ack {
            seq,
            id,
            trace,
            recv_s,
            enq_s,
            ack_s,
        } = ack;
        if pipeline {
            Frame::PipelineAck {
                seq,
                id,
                trace,
                recv_s,
                enq_s,
                ack_s,
            }
        } else {
            Frame::SubmitAck {
                seq,
                id,
                trace,
                recv_s,
                enq_s,
                ack_s,
            }
        }
    }

    /// The fields of either ack frame; `None` for every other frame.
    pub fn as_ack(&self) -> Option<Ack> {
        match *self {
            Frame::SubmitAck {
                seq,
                id,
                trace,
                recv_s,
                enq_s,
                ack_s,
            }
            | Frame::PipelineAck {
                seq,
                id,
                trace,
                recv_s,
                enq_s,
                ack_s,
            } => Some(Ack {
                seq,
                id,
                trace,
                recv_s,
                enq_s,
                ack_s,
            }),
            _ => None,
        }
    }

    /// Decodes one frame from its type byte and body bytes.
    ///
    /// # Errors
    /// A human-readable reason; the gateway maps it to
    /// [`code::BAD_FRAME`] / [`code::UNKNOWN_TYPE`]. Never panics, whatever
    /// the input.
    pub fn decode(type_byte: u8, body: &[u8]) -> Result<Frame, String> {
        Frame::decode_on(&mut Tape::default(), type_byte, body)
    }

    /// Encodes the frame into a fresh buffer: header + JSON body (see
    /// [`Frame::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENCODE_CAPACITY);
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame to `out`: the header, then the JSON body written
    /// in place, then the body length patched into the header. A reused
    /// `out` makes the encode allocation-free.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(self.type_byte());
        out.extend_from_slice(&[0; 4]);
        self.put_body(out);
        let len = (out.len() - start - HEADER_LEN) as u32;
        out[start + 1..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    }
}

/// [`Frame::encode`]'s first allocation: room for any submit or ack frame.
const ENCODE_CAPACITY: usize = 256;

/// A field's wire key: its name, or the `as "key"` override.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Generates `type_byte`, `put_body` and `decode_on` from the codec table
/// below. Every arm names all of its variant's fields and none with `..`,
/// so a table that drifts from the enum does not compile.
macro_rules! codec {
    ($($ty:literal => $variant:ident { $($field:ident $(as $key:literal)?),* },)*) => {
        impl Frame {
            /// The frame's wire type byte.
            pub fn type_byte(&self) -> u8 {
                match self {
                    $(Frame::$variant { $($field: _),* } => $ty,)*
                }
            }

            /// Writes the JSON body, fields in table order.
            fn put_body(&self, out: &mut Vec<u8>) {
                let mut body = ObjWriter::new(out);
                match self {
                    $(Frame::$variant { $($field),* } => {
                        $($field.put(body.key(wire_key!($field $($key)?)));)*
                    })*
                }
                body.end();
            }

            /// [`Frame::decode`] on `tape`, which a caller keeps from frame
            /// to frame so the decode allocates nothing of its own.
            fn decode_on(tape: &mut Tape, type_byte: u8, body: &[u8]) -> Result<Frame, String> {
                let text =
                    std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
                let v = tape.parse(text)?;
                match type_byte {
                    $($ty => {
                        let [$($field),*] = v.fields([$(wire_key!($field $($key)?)),*]);
                        Ok(Frame::$variant {
                            $($field: Wire::take($field, wire_key!($field $($key)?))?),*
                        })
                    })*
                    other => Err(format!("unknown frame type {other}")),
                }
            }
        }
    };
}

// The codec table: each frame's type byte and its fields in wire order.
codec! {
    1 => Hello { proto, client, mode, first_s },
    2 => HelloAck { proto, server, gpus, streams, window, queue_capacity },
    3 => Submit { seq, at_s, next_s, trace, spec },
    4 => SubmitAck { seq, id, trace, recv_s, enq_s, ack_s },
    5 => Poll { id },
    6 => PollReply { id, status, latency_s, card, timed_out, error },
    7 => Error { seq, code, kind, message },
    8 => Ping { nonce },
    9 => Pong { nonce, now_s },
    10 => Drain {},
    11 => DrainAck { now_s },
    12 => Report {},
    13 => ReportReply { json as "doc" },
    14 => MetricsReq {},
    15 => MetricsReply { json as "doc" },
    16 => CheckReq {},
    17 => CheckReply { enabled, clean, kernels, findings },
    18 => Shutdown {},
    19 => Bye {},
    20 => PipelineSubmit { seq, at_s, next_s, trace, pipe },
    21 => PipelineAck { seq, id, trace, recv_s, enq_s, ack_s },
}

/// A field type of the codec table: how it is written into a frame body
/// and how it is read back out of one.
trait Wire: Sized {
    /// Appends the field's JSON value to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads field `key` from its value as found (`None`: the key is
    /// absent, which is an error unless `Self` is an `Option`).
    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String>;
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        write_str(out, self);
    }
    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        field::str(v, key).map(str::to_string)
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        write_u64(out, *self);
    }
    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        field::u64(v, key)
    }
}

/// Error codes: an integer on the wire, range-checked on the way in.
impl Wire for u16 {
    fn put(&self, out: &mut Vec<u8>) {
        write_u64(out, u64::from(*self));
    }
    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        u16::try_from(field::u64(v, key)?).map_err(|_| format!("{key} out of range"))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        json::write_f64(out, *self);
    }
    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        field::f64(v, key)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        json::write_bool(out, *self);
    }
    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        field::bool(v, key)
    }
}

/// `null` and an absent key both read as `None`; anything else must read
/// as a `T`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => x.put(out),
            None => out.extend_from_slice(b"null"),
        }
    }
    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        match v {
            None => Ok(None),
            Some(x) if x.is_null() => Ok(None),
            Some(_) => T::take(v, key).map(Some),
        }
    }
}

/// Enums that travel as a string label: `put` writes the label function's
/// string, `take` finds the member whose label matches — one table read
/// both ways.
macro_rules! labelled {
    ($($ty:ty: $label:expr, $all:expr, $what:literal;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                write_str(out, $label(*self));
            }
            fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
                let s = field::str(v, key)?;
                $all.into_iter()
                    .find(|&x| $label(x) == s)
                    .ok_or_else(|| format!("unknown {} '{s}'", $what))
            }
        }
    )*};
}

labelled! {
    Mode: Mode::label, [Mode::Live, Mode::Paced], "mode";
    Direction: direction_label, [Direction::Forward, Direction::Inverse], "direction";
    Algorithm: algorithm_label, Algorithm::ALL, "algorithm";
    Priority: Priority::label, [Priority::High, Priority::Normal, Priority::Low], "priority";
}

fn direction_label(d: Direction) -> &'static str {
    match d {
        Direction::Forward => "fwd",
        Direction::Inverse => "inv",
    }
}

fn algorithm_label(a: Algorithm) -> &'static str {
    match a {
        Algorithm::FiveStep => "five_step",
        Algorithm::SixStep => "six_step",
        Algorithm::CufftLike => "cufft_like",
        Algorithm::OutOfCore => "out_of_core",
        Algorithm::MultiGpu => "multi_gpu",
    }
}

/// Writes the scheduling fields a spec and a pipeline share, in wire
/// order.
fn qos_put(w: &mut ObjWriter<'_>, priority: Priority, deadline_s: Option<f64>, tenant: TenantId) {
    priority.put(w.key("priority"));
    deadline_s.put(w.key("deadline_s"));
    tenant.0.put(w.key("tenant"));
}

/// Reads the shared scheduling fields back from the values found under
/// `priority`, `deadline_s` and `tenant`. A deadline must be positive; a
/// `null` or absent tenant (a v1.1 capture) is the anonymous tenant 0, so
/// recorded pre-QoS schedules replay bit-identically.
fn qos_take(
    [priority, deadline_s, tenant]: [Option<Node<'_>>; 3],
) -> Result<(Priority, Option<f64>, TenantId), String> {
    let deadline_s: Option<f64> = Wire::take(deadline_s, "deadline_s")?;
    if let Some(d) = deadline_s {
        if d <= 0.0 || d.is_nan() {
            return Err(format!("deadline_s = {d} must be positive"));
        }
    }
    let tenant: Option<u64> = Wire::take(tenant, "tenant")?;
    Ok((
        Wire::take(priority, "priority")?,
        deadline_s,
        TenantId(tenant.unwrap_or(0)),
    ))
}

/// A request template. Dimensions are bounded to `2^24` elements per axis
/// before any multiplication, so a hostile `nx: 2^63` cannot overflow
/// admission arithmetic.
impl Wire for SeededSpec {
    fn put(&self, out: &mut Vec<u8>) {
        let mut spec = ObjWriter::new(out);
        let mut shape = ObjWriter::new(spec.key("shape"));
        let (kind, dims): (&str, &[(&str, usize)]) = match self.shape {
            Shape::Rows1d { n, rows } => ("rows", &[("n", n), ("rows", rows)]),
            Shape::Volume { nx, ny, nz } => ("volume", &[("nx", nx), ("ny", ny), ("nz", nz)]),
        };
        write_str(shape.key("kind"), kind);
        for &(key, d) in dims {
            write_u64(shape.key(key), d as u64);
        }
        shape.end();
        self.direction.put(spec.key("dir"));
        self.algorithm.put(spec.key("algorithm"));
        qos_put(&mut spec, self.priority, self.deadline_s, self.tenant);
        self.seed.put(spec.key("seed"));
        spec.end();
    }

    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        let [shape_v, dir, algorithm, qos @ .., seed] = field::any(v, key)?.fields([
            "shape",
            "dir",
            "algorithm",
            "priority",
            "deadline_s",
            "tenant",
            "seed",
        ]);
        let shape_v = shape_v.ok_or("missing spec.shape")?;
        let [kind, n, rows, nx, ny, nz] = shape_v.fields(["kind", "n", "rows", "nx", "ny", "nz"]);
        let dim = |d: Option<Node<'_>>, key: &str| -> Result<usize, String> {
            let d = field::u64(d, key)?;
            if d == 0 || d > (1 << 24) {
                return Err(format!("shape.{key} = {d} out of range"));
            }
            Ok(d as usize)
        };
        let shape = match field::str(kind, "kind")? {
            "rows" => Shape::Rows1d {
                n: dim(n, "n")?,
                rows: dim(rows, "rows")?,
            },
            "volume" => Shape::Volume {
                nx: dim(nx, "nx")?,
                ny: dim(ny, "ny")?,
                nz: dim(nz, "nz")?,
            },
            other => return Err(format!("unknown shape kind '{other}'")),
        };
        let (priority, deadline_s, tenant) = qos_take(qos)?;
        Ok(SeededSpec {
            shape,
            direction: Wire::take(dir, "dir")?,
            algorithm: Wire::take(algorithm, "algorithm")?,
            priority,
            deadline_s,
            tenant,
            seed: field::u64(seed, "seed")?,
        })
    }
}

/// A pipeline template. Stage kinds travel as their stable string labels
/// and operands as `"in{i}"` / `"s{i}"`, so a hex dump of a
/// `PipelineSubmit` reads like the DAG it carries.
///
/// An unknown stage kind label errors with the stable `unsupported stage
/// kind` prefix, which the decoder maps to [`code::UNSUPPORTED_STAGE`] — a
/// newer client's DAG gets the typed rejection, not a generic bad-frame.
/// Structural DAG rules (operand wiring, masks) are *not* checked here; the
/// service validates at admission so both transports reject identically.
/// The *resource envelope* is checked here, though: dims must lie inside
/// the five-step envelope ([`Algorithm::check_shape`]; the DAG executor
/// runs five-step plans) and the seed and stage counts are bounded, so a
/// hostile sub-KiB frame can never name a template whose expansion would
/// allocate gigabytes or overflow the `nx*ny*nz` admission arithmetic.
impl Wire for SeededPipeline {
    fn put(&self, out: &mut Vec<u8>) {
        let mut pipe = ObjWriter::new(out);
        let (x, y, z) = self.dims;
        put_arr(pipe.key("dims"), [x, y, z], |out, d| {
            write_u64(out, d as u64)
        });
        put_arr(pipe.key("seeds"), &self.input_seeds, |out, &s| {
            write_u64(out, s)
        });
        put_arr(pipe.key("stages"), &self.stages, |out, st| {
            let mut stage = ObjWriter::new(out);
            write_str(stage.key("kind"), st.kind.label());
            put_operand(stage.key("src"), st.src);
            match st.src2 {
                Some(op) => put_operand(stage.key("src2"), op),
                None => stage.key("src2").extend_from_slice(b"null"),
            }
            f64::from(st.scale).put(stage.key("scale"));
            write_u64(stage.key("after"), u64::from(st.after_mask));
            stage.end();
        });
        qos_put(&mut pipe, self.priority, self.deadline_s, self.tenant);
        pipe.end();
    }

    fn take(v: Option<Node<'_>>, key: &str) -> Result<Self, String> {
        use fft_serve::pipeline::{MAX_INPUTS, MAX_STAGES};
        let [dims_v, seeds_v, stages_v, qos @ ..] = field::any(v, key)?.fields([
            "dims",
            "seeds",
            "stages",
            "priority",
            "deadline_s",
            "tenant",
        ]);
        let mut dims_v = field::arr(dims_v, "dims")?;
        if dims_v.len() != 3 {
            return Err(format!("dims has {} entries, want 3", dims_v.len()));
        }
        let mut dim = || {
            dims_v
                .next()
                .and_then(Lookup::as_u64)
                .ok_or("dims must be integers")
        };
        let [x, y, z] = [dim()?, dim()?, dim()?].map(|d| usize::try_from(d).unwrap_or(usize::MAX));
        Algorithm::FiveStep
            .check_shape(x, y, z)
            .map_err(|e| e.to_string())?;
        let seeds_v = field::arr(seeds_v, "seeds")?;
        if seeds_v.len() == 0 || seeds_v.len() > MAX_INPUTS {
            return Err(format!("{} seeds outside 1..={MAX_INPUTS}", seeds_v.len()));
        }
        let input_seeds = seeds_v
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| "seeds must be integers".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let stages_v = field::arr(stages_v, "stages")?;
        if stages_v.len() > MAX_STAGES {
            return Err(format!(
                "{} stages exceeds the {MAX_STAGES} bound",
                stages_v.len()
            ));
        }
        let mut stages = Vec::with_capacity(stages_v.len());
        for (i, st) in stages_v.enumerate() {
            let [kind, src, src2, scale, after] =
                st.fields(["kind", "src", "src2", "scale", "after"]);
            let kind_label = field::str(kind, "kind")?;
            let kind = StageKind::parse(kind_label)
                .ok_or_else(|| format!("unsupported stage kind '{kind_label}' (stage {i})"))?;
            let src = Operand::parse(field::str(src, "src")?)
                .ok_or_else(|| format!("stage {i}: bad src operand"))?;
            let src2 = match src2 {
                None => None,
                Some(o) if o.is_null() => None,
                Some(o) => Some(
                    o.as_str()
                        .and_then(Operand::parse)
                        .ok_or_else(|| format!("stage {i}: bad src2 operand"))?,
                ),
            };
            let scale = field::f64(scale, "scale")? as f32;
            if !scale.is_finite() {
                return Err(format!("stage {i}: scale must be finite"));
            }
            let after = field::u64(after, "after")?;
            let after_mask =
                u32::try_from(after).map_err(|_| format!("stage {i}: after mask out of range"))?;
            stages.push(PipelineStage {
                kind,
                src,
                src2,
                scale,
                after_mask,
            });
        }
        let (priority, deadline_s, tenant) = qos_take(qos)?;
        Ok(SeededPipeline {
            dims: (x, y, z),
            input_seeds,
            stages,
            priority,
            deadline_s,
            tenant,
        })
    }
}

/// Writes an operand as its label, `"in{i}"` / `"s{i}"`
/// ([`Operand::label`]).
fn put_operand(out: &mut Vec<u8>, op: Operand) {
    let (prefix, i): (&[u8], u8) = match op {
        Operand::Input(i) => (b"\"in", i),
        Operand::Stage(i) => (b"\"s", i),
    };
    out.extend_from_slice(prefix);
    write_u64(out, u64::from(i));
    out.push(b'"');
}

/// Writes `items` as a JSON array, each by `put`.
fn put_arr<I: IntoIterator>(out: &mut Vec<u8>, items: I, put: impl Fn(&mut Vec<u8>, I::Item)) {
    out.push(b'[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        put(out, item);
    }
    out.push(b']');
}

/// Incremental frame decoder: feed raw reads in, take complete frames out.
///
/// Frames are decoded where they lie in the buffer: a read cursor moves
/// past each one, and the consumed prefix is dropped once per
/// [`FrameDecoder::feed`], not once per frame. Bodies are tokenized onto a
/// [`Tape`] the decoder keeps, and fields are read from it in place, so
/// once the buffer and tape have grown to the traffic's frame size a
/// decode allocates only what the frame itself owns (its strings, a
/// pipeline's seed and stage lists).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of the first byte not yet decoded.
    pos: usize,
    tape: Tape,
}

impl FrameDecoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the socket, first dropping the bytes already
    /// decoded.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next complete frame, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes". Errors are fatal to the
    /// connection: a bad header length or unparseable body leaves the
    /// stream unsynchronizable, so the caller replies with a typed error
    /// and closes.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, (u16, String)> {
        let rest = &self.buf[self.pos..];
        if rest.len() < HEADER_LEN {
            return Ok(None);
        }
        let ty = rest[0];
        let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]);
        if len > MAX_FRAME {
            return Err((
                code::FRAME_TOO_BIG,
                format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"),
            ));
        }
        let total = HEADER_LEN + len as usize;
        if rest.len() < total {
            return Ok(None);
        }
        let frame =
            Frame::decode_on(&mut self.tape, ty, &rest[HEADER_LEN..total]).map_err(|e| {
                if e.starts_with("unknown frame type") {
                    (code::UNKNOWN_TYPE, e)
                } else if e.starts_with("unsupported stage kind") {
                    // A structurally fine v1.3 pipeline naming a kind this
                    // server does not implement: typed rejection, not a
                    // connection-fatal bad frame.
                    (code::UNSUPPORTED_STAGE, e)
                } else {
                    (code::BAD_FRAME, e)
                }
            })?;
        self.pos += total;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SeededSpec {
        SeededSpec {
            shape: Shape::Rows1d { n: 256, rows: 32 },
            direction: Direction::Inverse,
            algorithm: Some(Algorithm::FiveStep),
            priority: Priority::High,
            deadline_s: Some(2.5e-3),
            tenant: TenantId(3),
            seed: 0xdead_beef_cafe_f00d,
        }
    }

    fn sample_pipe() -> SeededPipeline {
        SeededPipeline {
            dims: (32, 16, 16),
            input_seeds: vec![u64::MAX, 0xdead_beef],
            stages: fft_serve::pipeline::docking_stages(32 * 16 * 16),
            priority: Priority::High,
            deadline_s: Some(0.125),
            tenant: TenantId(2),
        }
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Hello {
                proto: PROTO.to_string(),
                client: "test".to_string(),
                mode: Mode::Paced,
                first_s: Some(1e-3),
            },
            Frame::HelloAck {
                proto: PROTO.to_string(),
                server: "fft-gate".to_string(),
                gpus: 2,
                streams: 2,
                window: 32,
                queue_capacity: 64,
            },
            Frame::Submit {
                seq: 7,
                at_s: Some(0.25),
                next_s: None,
                trace: Some(41),
                spec: sample_spec(),
            },
            Frame::SubmitAck {
                seq: 7,
                id: 3,
                trace: Some(41),
                recv_s: 0.125,
                enq_s: 0.25,
                ack_s: 0.5,
            },
            Frame::PipelineSubmit {
                seq: 8,
                at_s: Some(0.375),
                next_s: Some(0.5),
                trace: Some(42),
                pipe: sample_pipe(),
            },
            Frame::PipelineAck {
                seq: 8,
                id: 4,
                trace: Some(42),
                recv_s: 0.375,
                enq_s: 0.4375,
                ack_s: 0.5,
            },
            Frame::Poll { id: 3 },
            Frame::PollReply {
                id: 3,
                status: "done".to_string(),
                latency_s: Some(1.25e-3),
                card: Some(1),
                timed_out: Some(false),
                error: None,
            },
            Frame::Error {
                seq: Some(7),
                code: code::QUEUE_FULL,
                kind: "queue_full".to_string(),
                message: "queue full (capacity 64)".to_string(),
            },
            Frame::Ping { nonce: 99 },
            Frame::Pong {
                nonce: 99,
                now_s: 0.125,
            },
            Frame::Drain,
            Frame::DrainAck { now_s: 0.5 },
            Frame::Report,
            Frame::ReportReply {
                json: "{\n  \"x\": 1\n}".to_string(),
            },
            Frame::MetricsReq,
            Frame::MetricsReply {
                json: "{}".to_string(),
            },
            Frame::CheckReq,
            Frame::CheckReply {
                enabled: true,
                clean: true,
                kernels: 12,
                findings: 0,
            },
            Frame::Shutdown,
            Frame::Bye,
        ];
        let mut dec = FrameDecoder::new();
        for f in &frames {
            dec.feed(&f.encode());
        }
        for f in &frames {
            let got = dec.next_frame().unwrap().expect("frame buffered");
            assert_eq!(&got, f);
        }
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn u64_seeds_survive_the_wire_exactly() {
        let spec = SeededSpec {
            seed: u64::MAX - 1,
            ..sample_spec()
        };
        let f = Frame::Submit {
            seq: u64::MAX,
            at_s: Some(0.1 + 0.2),
            next_s: Some(f64::MIN_POSITIVE),
            trace: Some(u64::MAX - 1),
            spec,
        };
        let bytes = f.encode();
        let got = Frame::decode(bytes[0], &bytes[HEADER_LEN..]).unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn rejection_codes_are_stable_and_exhaustive() {
        use bifft::plan::FftError;
        let cases: Vec<(Rejection, u16, &str)> = vec![
            (
                Rejection::QueueFull { capacity: 4 },
                code::QUEUE_FULL,
                "queue_full",
            ),
            (
                Rejection::DeadlineInfeasible {
                    estimated_s: 2.0,
                    deadline_s: 1.0,
                },
                code::DEADLINE_INFEASIBLE,
                "deadline_infeasible",
            ),
            (
                Rejection::Unsupported(FftError::UnsupportedSize {
                    axis: 'x',
                    n: 7,
                    max: 512,
                }),
                code::UNSUPPORTED,
                "unsupported",
            ),
            (
                Rejection::Oversized {
                    elems: 10,
                    limit_elems: 5,
                },
                code::OVERSIZED,
                "oversized",
            ),
            (
                Rejection::Unallocatable(FftError::UnsupportedSize {
                    axis: 'y',
                    n: 9,
                    max: 256,
                }),
                code::UNALLOCATABLE,
                "unallocatable",
            ),
            (
                Rejection::QuotaExceeded {
                    tenant: fft_serve::TenantId(2),
                    kind: fft_serve::QuotaKind::Rate,
                },
                code::QUOTA_EXCEEDED,
                "quota_exceeded",
            ),
            (
                Rejection::UnsupportedStage("stage 1 reads a reduced value".to_string()),
                code::UNSUPPORTED_STAGE,
                "unsupported_stage",
            ),
        ];
        for (r, want_code, want_kind) in cases {
            assert_eq!(rejection_code(&r), want_code, "{r}");
            assert_eq!(rejection_kind(&r), want_kind, "{r}");
        }
    }

    #[test]
    fn oversized_headers_and_junk_bodies_error_cleanly() {
        let mut dec = FrameDecoder::new();
        // 4 GiB length prefix: rejected from the header alone.
        dec.feed(&[3, 0xff, 0xff, 0xff, 0xff]);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err.0, code::FRAME_TOO_BIG);

        let mut dec = FrameDecoder::new();
        let mut bad = vec![3u8];
        bad.extend_from_slice(&4u32.to_le_bytes());
        bad.extend_from_slice(b"}{!(");
        dec.feed(&bad);
        assert_eq!(dec.next_frame().unwrap_err().0, code::BAD_FRAME);

        let mut dec = FrameDecoder::new();
        let mut unknown = vec![200u8];
        unknown.extend_from_slice(&2u32.to_le_bytes());
        unknown.extend_from_slice(b"{}");
        dec.feed(&unknown);
        assert_eq!(dec.next_frame().unwrap_err().0, code::UNKNOWN_TYPE);
    }

    #[test]
    fn unknown_stage_kind_maps_to_the_stable_unsupported_code() {
        // A structurally valid v1.3 pipeline naming a kind this build does
        // not implement: the decoder must answer with the typed code, not
        // a generic bad frame, and never panic.
        let mut encoded = Frame::PipelineSubmit {
            seq: 1,
            at_s: None,
            next_s: None,
            trace: None,
            pipe: sample_pipe(),
        }
        .encode();
        let body = String::from_utf8(encoded.split_off(HEADER_LEN)).unwrap();
        let body = body.replacen("\"kind\":\"forward\"", "\"kind\":\"wavelet\"", 1);
        let mut dec = FrameDecoder::new();
        dec.feed(&[encoded[0]]);
        dec.feed(&(body.len() as u32).to_le_bytes());
        dec.feed(body.as_bytes());
        let (ecode, msg) = dec.next_frame().unwrap_err();
        assert_eq!(ecode, code::UNSUPPORTED_STAGE);
        assert!(msg.contains("wavelet"), "names the offending kind: {msg}");
    }

    #[test]
    fn pipeline_scale_survives_the_wire_exactly() {
        // The f32 scale rides the wire as f64; widening and narrowing are
        // exact, so `1/N` comes back bit-identical.
        let pipe = sample_pipe();
        let want: Vec<u32> = pipe.stages.iter().map(|s| s.scale.to_bits()).collect();
        let f = Frame::PipelineSubmit {
            seq: 0,
            at_s: None,
            next_s: None,
            trace: None,
            pipe,
        };
        let bytes = f.encode();
        match Frame::decode(bytes[0], &bytes[HEADER_LEN..]).unwrap() {
            Frame::PipelineSubmit { pipe, .. } => {
                let got: Vec<u32> = pipe.stages.iter().map(|s| s.scale.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("expected PipelineSubmit, got {other:?}"),
        }
    }

    /// Decodes one raw body through the framing layer, as the gateway does.
    fn decode_raw(ty: u8, body: &str) -> Result<Option<Frame>, (u16, String)> {
        let mut dec = FrameDecoder::new();
        dec.feed(&[ty]);
        dec.feed(&(body.len() as u32).to_le_bytes());
        dec.feed(body.as_bytes());
        dec.next_frame()
    }

    #[test]
    fn optional_fields_are_null_or_absent_and_required_ones_are_not() {
        // A v1/v1.1 capture: no `trace`, no `tenant`.
        let submit = r#"{"seq":4,"at_s":0.5,"next_s":null,"spec":{"shape":{"kind":"rows","n":256,"rows":32},"dir":"fwd","algorithm":null,"priority":"normal","deadline_s":null,"seed":9}}"#;
        match decode_raw(3, submit).unwrap() {
            Some(Frame::Submit {
                seq: 4,
                at_s: Some(0.5),
                next_s: None,
                trace: None,
                spec,
            }) => {
                assert_eq!(spec.tenant, TenantId(0));
                assert_eq!(spec.algorithm, None);
                assert_eq!(spec.deadline_s, None);
                assert_eq!(spec.seed, 9);
            }
            other => panic!("expected a v1.1 Submit, got {other:?}"),
        }
        assert_eq!(
            decode_raw(6, r#"{"id":3,"status":"queued"}"#).unwrap(),
            Some(Frame::PollReply {
                id: 3,
                status: "queued".to_string(),
                latency_s: None,
                card: None,
                timed_out: None,
                error: None,
            })
        );
        let hello_ack =
            r#"{"proto":"bifft-wire-v1.3","server":"s","gpus":1,"streams":1,"queue_capacity":8}"#;
        assert_eq!(decode_raw(2, hello_ack).unwrap_err().0, code::BAD_FRAME);
        let bad_card = r#"{"id":3,"status":"done","card":"x"}"#;
        assert_eq!(decode_raw(6, bad_card).unwrap_err().0, code::BAD_FRAME);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let f = Frame::Ping { nonce: 5 };
        let bytes = f.encode();
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            if i + 1 < bytes.len() {
                dec.feed(&[*b]);
                assert!(dec.next_frame().unwrap().is_none(), "byte {i}");
            } else {
                dec.feed(&[*b]);
                assert_eq!(dec.next_frame().unwrap(), Some(Frame::Ping { nonce: 5 }));
            }
        }
    }
}
