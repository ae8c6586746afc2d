//! Stateful frame-stream fuzz: seeded streams of many frames — the
//! committed `frames.hex` exemplars plus seeded `Submit` and
//! `PipelineSubmit` frames — some with one corrupted byte or one lying
//! length header, fed to `FrameDecoder` in random read sizes. However the
//! reads split the stream, the decoder must hand out the same frames, and
//! then the same first error (code and message), as it does when the
//! whole stream arrives in one read. One hostile stream then goes through
//! a live gateway, which must still answer a `Ping` afterwards.

use fft_gate::control;
use fft_gate::proto::{code, Frame, FrameDecoder, Mode, HEADER_LEN, PROTO};
use fft_gate::server::{GateConfig, GateServer};
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_serve::pipeline::{convolution_stages, docking_stages, MAX_INPUTS};
use fft_serve::{Priority, SeededPipeline, SeededSpec, ServeConfig, Shape, TenantId};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest simulated socket read, bytes (the gateway reads 16 KiB chunks).
const MAX_READ: usize = 16 * 1024;

/// What a decoder hands out for a stream: the frames in order, then the
/// first error, if one came before the bytes ran out.
type Decoded = (Vec<Frame>, Option<(u16, String)>);

/// The exemplar frames pinned in `tests/golden/frames.hex`, as wire bytes.
fn exemplars() -> Vec<Vec<u8>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/frames.hex");
    std::fs::read_to_string(path)
        .expect("frames.hex")
        .lines()
        .map(|line| {
            let hex = line.split_once(' ').expect("'TT HEX' line").1;
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
                .collect()
        })
        .collect()
}

/// A seeded `Submit` or `PipelineSubmit`. Fields range past what the
/// decoder accepts (zero dims, `null` doubles), so some frames reject.
fn seeded_frame(rng: &mut SplitMix64) -> Frame {
    let maybe = |rng: &mut SplitMix64, x: f64| (rng.below(3) > 0).then_some(x);
    let seq = rng.next_u64() >> rng.below(64);
    let x = rng.next_f64() * 10.0;
    let at_s = maybe(rng, x);
    let x = f64::from_bits(rng.next_u64());
    let next_s = maybe(rng, x);
    let trace = (rng.below(2) == 0).then_some(rng.next_u64());
    let priority = [Priority::High, Priority::Normal, Priority::Low][rng.below(3)];
    let x = rng.next_f64() - 0.1;
    let deadline_s = maybe(rng, x);
    let tenant = TenantId(rng.below(4) as u64);
    if rng.below(4) == 0 {
        let (x, y, z) = [(16, 16, 16), (32, 16, 16), (64, 32, 16)][rng.below(3)];
        let stages = if rng.below(2) == 0 {
            docking_stages(x * y * z)
        } else {
            convolution_stages(x * y * z)
        };
        let inputs = 1 + rng.below(MAX_INPUTS);
        Frame::PipelineSubmit {
            seq,
            at_s,
            next_s,
            trace,
            pipe: SeededPipeline {
                dims: (x, y, z),
                input_seeds: (0..inputs).map(|_| rng.next_u64()).collect(),
                stages,
                priority,
                deadline_s,
                tenant,
            },
        }
    } else {
        let dim = |rng: &mut SplitMix64| 1usize << rng.below(10);
        let shape = if rng.below(3) == 0 {
            Shape::Volume {
                nx: dim(rng),
                ny: dim(rng),
                nz: dim(rng) - 1,
            }
        } else {
            Shape::Rows1d {
                n: dim(rng),
                rows: dim(rng),
            }
        };
        Frame::Submit {
            seq,
            at_s,
            next_s,
            trace,
            spec: SeededSpec {
                shape,
                direction: [Direction::Forward, Direction::Inverse][rng.below(2)],
                algorithm: None,
                priority,
                deadline_s,
                tenant,
                seed: rng.next_u64(),
            },
        }
    }
}

/// A stream of `frames` frames, each an exemplar or a seeded submit; with
/// `hostile`, one byte somewhere is replaced or one frame's length header
/// lies.
fn stream(rng: &mut SplitMix64, exemplars: &[Vec<u8>], frames: usize, hostile: bool) -> Vec<u8> {
    let mut out = Vec::new();
    let mut headers = Vec::new();
    for _ in 0..frames {
        headers.push(out.len());
        if rng.below(2) == 0 {
            out.extend_from_slice(&exemplars[rng.below(exemplars.len())]);
        } else {
            seeded_frame(rng).encode_into(&mut out);
        }
    }
    if hostile {
        if rng.below(2) == 0 {
            let at = rng.below(out.len());
            out[at] = rng.next_u64() as u8;
        } else {
            let at = headers[rng.below(headers.len())] + 1;
            let old = u32::from_le_bytes(out[at..at + 4].try_into().expect("4 bytes"));
            let lie = match rng.below(3) {
                0 => old.wrapping_add(1 + rng.below(8) as u32),
                1 => old.saturating_sub(1 + rng.below(8) as u32),
                _ => rng.next_u64() as u32,
            };
            out[at..at + 4].copy_from_slice(&lie.to_le_bytes());
        }
    }
    out
}

/// Decodes `bytes` fed in reads of `sizes` (cycled), taking every complete
/// frame after each read, up to the first error.
fn decode(bytes: &[u8], mut sizes: impl FnMut() -> usize) -> Decoded {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut fed = 0;
    while fed < bytes.len() {
        let n = sizes().min(bytes.len() - fed);
        dec.feed(&bytes[fed..fed + n]);
        fed += n;
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => return (frames, Some(e)),
            }
        }
    }
    (frames, None)
}

#[test]
fn split_reads_decode_like_one_read() {
    let exemplars = exemplars();
    assert!(exemplars.len() >= 20, "every frame type is pinned");
    let mut rng = SplitMix64::new(0x5e_edf4_a3e5_7ea3);
    let mut clean = 0;
    let mut codes = std::collections::BTreeSet::new();
    for round in 0..300 {
        let frames = 1 + rng.below(40);
        let hostile = round % 2 == 1;
        let bytes = stream(&mut rng, &exemplars, frames, hostile);
        let whole = decode(&bytes, || usize::MAX);
        // Mostly small reads, so frames straddle them; now and then a big
        // one that carries many frames at once.
        let split_seed = rng.next_u64();
        let mut split = SplitMix64::new(split_seed);
        let chunked = decode(&bytes, || match split.below(4) {
            0 => 1 + split.below(MAX_READ),
            _ => 1 + split.below(64),
        });
        assert_eq!(
            chunked,
            whole,
            "round {round} (split seed {split_seed:#x}, {} bytes)",
            bytes.len()
        );
        match &whole.1 {
            Some((c, _)) => {
                codes.insert(*c);
            }
            None => clean += 1,
        }
        // One byte at a time, the slowest socket there is.
        if round % 10 == 0 {
            assert_eq!(decode(&bytes, || 1), whole, "round {round}, byte reads");
        }
    }
    // The corpus exercises both sides: streams that decode to the end, and
    // streams that stop on each framing error.
    assert!(clean > 50, "{clean} streams decoded to the end");
    for c in [code::BAD_FRAME, code::FRAME_TOO_BIG, code::UNKNOWN_TYPE] {
        assert!(
            codes.contains(&c),
            "no stream ended in error {c}: {codes:?}"
        );
    }
}

/// An undecodable stream through a live gateway: the connection gets a
/// typed error and is closed, and the gateway keeps serving. (The stream
/// carries no `Shutdown`, which would rightly stop the gateway.)
#[test]
fn hostile_stream_leaves_the_gateway_serving() {
    let exemplars: Vec<Vec<u8>> = exemplars()
        .into_iter()
        .filter(|f| Frame::decode(f[0], &f[HEADER_LEN..]) != Ok(Frame::Shutdown))
        .collect();
    let mut rng = SplitMix64::new(0xbad_5eed);
    let hostile = loop {
        let bytes = stream(&mut rng, &exemplars, 24, true);
        let (frames, err) = decode(&bytes, || usize::MAX);
        if err.is_some() && !frames.contains(&Frame::Shutdown) {
            break bytes;
        }
    };
    let cfg = GateConfig {
        serve: ServeConfig::builder()
            .gpus(1)
            .streams(2)
            .queue_capacity(64)
            .build()
            .expect("valid config"),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut bytes = Frame::Hello {
        proto: PROTO.to_string(),
        client: "stream-fuzz".to_string(),
        mode: Mode::Live,
        first_s: None,
    }
    .encode();
    bytes.extend_from_slice(&hostile);
    let mut sent = 0;
    while sent < bytes.len() {
        let n = (1 + rng.below(512)).min(bytes.len() - sent);
        // The gateway may close on us mid-stream; that is the point.
        if s.write_all(&bytes[sent..sent + n]).is_err() {
            break;
        }
        sent += n;
    }
    let mut answer = Vec::new();
    let _ = s.read_to_end(&mut answer);
    assert!(answer.len() > HEADER_LEN, "the gateway answered the stream");
    drop(s);

    let mut ctl = control(&addr).expect("control connect");
    assert!(ctl.ping(7).is_ok(), "the gateway answers a ping afterwards");
    ctl.shutdown().expect("shutdown");
    handle.join().expect("gateway thread exits cleanly");
}
