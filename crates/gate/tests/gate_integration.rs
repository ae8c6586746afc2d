//! Gateway acceptance tests: golden-pinned wire frames, hostile-bytes fuzz
//! that must never panic the server, the N-concurrent-clients same-seed
//! report-equality pin (the reason the paced bridge exists), and both
//! backpressure paths observed from the outside through the exported
//! `gate_*` counters.

use fft_gate::json;
use fft_gate::proto::{code, Frame, Mode, HEADER_LEN, PROTO};
use fft_gate::server::{names, GateConfig, GateServer};
use fft_gate::{control, run_open_loop_net, ServeClient};
use fft_math::rng::SplitMix64;
use fft_math::twiddle::Direction;
use fft_serve::loadgen::open_loop_templates;
use fft_serve::pipeline::docking_stages;
use fft_serve::{FftService, Priority, SeededPipeline, SeededSpec, ServeConfig, Shape, Workload};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn check_golden(got: &str, path: &str, what: &str) {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, got).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing; regenerate with BLESS=1");
    assert_eq!(
        got, golden,
        "{what} drifted from {path}; if the change is intended, regenerate with BLESS=1"
    );
}

fn sample_spec(seed: u64) -> SeededSpec {
    SeededSpec {
        shape: Shape::Rows1d { n: 256, rows: 16 },
        direction: Direction::Forward,
        algorithm: Some(bifft::plan::Algorithm::FiveStep),
        priority: Priority::High,
        deadline_s: Some(0.25),
        tenant: fft_serve::TenantId(1),
        seed,
    }
}

/// One instance of every frame type, with deliberately awkward payload
/// values (full-width u64 seeds, non-representable decimals, escapes).
fn exemplar_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            proto: PROTO.to_string(),
            client: "golden \"client\"\n".to_string(),
            mode: Mode::Paced,
            first_s: Some(0.1 + 0.2),
        },
        Frame::HelloAck {
            proto: PROTO.to_string(),
            server: "fft-gate".to_string(),
            gpus: 4,
            streams: 2,
            window: 32,
            queue_capacity: 64,
        },
        Frame::Submit {
            seq: u64::MAX,
            at_s: Some(1.5e-3),
            next_s: None,
            trace: Some(7),
            spec: sample_spec(u64::MAX - 1),
        },
        Frame::Submit {
            seq: 1,
            at_s: None,
            next_s: Some(2.0),
            trace: None,
            spec: SeededSpec {
                shape: Shape::Volume {
                    nx: 64,
                    ny: 32,
                    nz: 16,
                },
                direction: Direction::Inverse,
                algorithm: None,
                priority: Priority::Low,
                deadline_s: None,
                tenant: fft_serve::TenantId(0),
                seed: 7,
            },
        },
        // Fixed literal stamps: exemplar frames feed the committed golden
        // hex dump, so nothing here may come from a real clock.
        Frame::SubmitAck {
            seq: 3,
            id: 9,
            trace: Some(7),
            recv_s: 0.001,
            enq_s: 0.002,
            ack_s: 0.004,
        },
        Frame::PipelineSubmit {
            seq: 4,
            at_s: Some(0.25),
            next_s: None,
            trace: Some(11),
            pipe: SeededPipeline {
                dims: (16, 16, 16),
                input_seeds: vec![u64::MAX, 3],
                stages: docking_stages(16 * 16 * 16),
                priority: Priority::Normal,
                deadline_s: None,
                tenant: fft_serve::TenantId(0),
            },
        },
        Frame::PipelineAck {
            seq: 4,
            id: 10,
            trace: Some(11),
            recv_s: 0.002,
            enq_s: 0.004,
            ack_s: 0.008,
        },
        Frame::Poll { id: 9 },
        Frame::PollReply {
            id: 9,
            status: "done".to_string(),
            latency_s: Some(0.000274),
            card: Some(1),
            timed_out: Some(false),
            error: None,
        },
        Frame::Error {
            seq: Some(5),
            code: code::QUEUE_FULL,
            kind: "queue_full".to_string(),
            message: "admission queue is full (capacity 64)".to_string(),
        },
        Frame::Ping { nonce: 42 },
        Frame::Pong {
            nonce: 42,
            now_s: 0.001,
        },
        Frame::Drain,
        Frame::DrainAck { now_s: 0.0125 },
        Frame::Report,
        Frame::ReportReply {
            json: "{\"schema\":\"x\"}".to_string(),
        },
        Frame::MetricsReq,
        Frame::MetricsReply {
            json: "{\"counters\":{}}".to_string(),
        },
        Frame::CheckReq,
        Frame::CheckReply {
            enabled: true,
            clean: false,
            kernels: 12,
            findings: 3,
        },
        Frame::Shutdown,
        Frame::Bye,
    ]
}

/// The on-wire encoding of every frame type is pinned byte-for-byte: any
/// change to the frame grammar is a reviewable golden diff (and a protocol
/// version bump). Regenerate with
/// `BLESS=1 cargo test -p fft-gate --test gate_integration`.
#[test]
fn wire_frames_match_committed_golden() {
    let mut doc = String::new();
    for f in exemplar_frames() {
        let bytes = f.encode();
        doc.push_str(&format!("{:02}", bytes[0]));
        doc.push(' ');
        for b in &bytes {
            doc.push_str(&format!("{b:02x}"));
        }
        doc.push('\n');
        // Whatever we pin must also decode back to the same frame.
        let back = Frame::decode(bytes[0], &bytes[HEADER_LEN..]).expect("exemplar decodes");
        assert_eq!(back, f, "encode/decode must round-trip");
    }
    check_golden(
        &doc,
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/frames.hex"),
        "wire frames",
    );
}

fn serve_cfg(gpus: usize, queue: usize) -> ServeConfig {
    ServeConfig::builder()
        .gpus(gpus)
        .streams(2)
        .queue_capacity(queue)
        .build()
        .expect("valid test config")
}

/// THE acceptance pin: eight concurrent TCP clients replaying a seeded
/// schedule produce the byte-identical `ServeReport` an in-process run
/// does, regardless of socket/thread timing.
#[test]
fn eight_clients_same_seed_report_matches_in_process() {
    let workload = Workload::mixed();
    let (requests, rate, seed) = (64u64, 5000.0, 42u64);
    let cfg = GateConfig {
        serve: serve_cfg(2, 64),
        window: 8,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    let load = run_open_loop_net(&addr, &workload, requests, rate, seed, 8).expect("network load");
    assert_eq!(load.offered, requests);
    let mut ctl = control(&addr).expect("control connection");
    ctl.drain().expect("drain");
    let wire_report = ctl.report().expect("report");
    ctl.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    let mut svc = FftService::new(serve_cfg(2, 64)).expect("local service");
    for (at_s, template) in open_loop_templates(&workload, requests, rate, seed) {
        let _ = template.submit(&mut svc, at_s);
    }
    svc.drain();
    let local_report = svc.report().to_json();

    assert_eq!(
        wire_report, local_report,
        "gateway and in-process reports must be byte-identical for the same seed"
    );
    assert_eq!(
        load.accepted + load.rejected,
        requests,
        "every wire submit must be answered"
    );
}

/// The same pin with DAG traffic in the mix: a seeded pipeline workload
/// (convolution and docking DAGs interleaved with single transforms)
/// replayed over eight concurrent connections must render the
/// byte-identical `ServeReport` the in-process template run does — the
/// v1.3 acceptance bar.
#[test]
fn eight_clients_pipeline_workload_report_matches_in_process() {
    let workload = Workload::pipeline();
    let (requests, rate, seed) = (48u64, 4000.0, 11u64);
    let cfg = GateConfig {
        serve: serve_cfg(2, 64),
        window: 8,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    let load = run_open_loop_net(&addr, &workload, requests, rate, seed, 8).expect("network load");
    assert_eq!(load.offered, requests);
    let mut ctl = control(&addr).expect("control connection");
    ctl.drain().expect("drain");
    let wire_report = ctl.report().expect("report");
    ctl.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    let mut svc = FftService::new(serve_cfg(2, 64)).expect("local service");
    for (at_s, template) in open_loop_templates(&workload, requests, rate, seed) {
        let _ = template.submit(&mut svc, at_s);
    }
    svc.drain();
    let report = svc.report();
    assert!(
        report.pipelines > 0,
        "the seeded mix must actually carry DAGs"
    );
    assert!(
        report.resident_hits > 0,
        "served DAGs must hit device-resident intermediates"
    );
    assert_eq!(
        wire_report,
        report.to_json(),
        "gateway and in-process pipeline reports must be byte-identical for the same seed"
    );
}

/// An otherwise well-formed v1.3 pipeline naming a stage kind this server
/// does not implement gets the stable typed code — not a generic bad
/// frame, and never a panic.
#[test]
fn unknown_stage_kind_rejects_with_the_stable_wire_code() {
    let cfg = GateConfig {
        serve: serve_cfg(1, 16),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    // Encode a valid DAG, then rewrite one stage kind to a label from the
    // future. The frame stays structurally perfect JSON.
    let mut bytes = Frame::PipelineSubmit {
        seq: 1,
        at_s: None,
        next_s: None,
        trace: Some(1),
        pipe: SeededPipeline {
            dims: (16, 16, 16),
            input_seeds: vec![1, 2],
            stages: docking_stages(16 * 16 * 16),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: fft_serve::TenantId(0),
        },
    }
    .encode();
    let body = String::from_utf8(bytes.split_off(HEADER_LEN)).unwrap();
    let body = body.replacen(
        "\"kind\":\"reduce_argmax\"",
        "\"kind\":\"reduce_median\"",
        1,
    );
    let mut patched = vec![bytes[0]];
    patched.extend_from_slice(&(body.len() as u32).to_le_bytes());
    patched.extend_from_slice(body.as_bytes());

    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut dec = fft_gate::proto::FrameDecoder::new();
    let next = |s: &mut TcpStream, dec: &mut fft_gate::proto::FrameDecoder| -> Frame {
        loop {
            if let Some(f) = dec.next_frame().expect("client-side decode") {
                return f;
            }
            let mut chunk = [0u8; 4096];
            let n = s.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed before answering");
            dec.feed(&chunk[..n]);
        }
    };
    s.write_all(
        &Frame::Hello {
            proto: PROTO.to_string(),
            client: "newer-client".to_string(),
            mode: Mode::Live,
            first_s: None,
        }
        .encode(),
    )
    .expect("hello");
    assert!(matches!(next(&mut s, &mut dec), Frame::HelloAck { .. }));
    s.write_all(&patched).expect("patched pipeline submit");
    match next(&mut s, &mut dec) {
        Frame::Error {
            code: ecode,
            kind,
            message,
            ..
        } => {
            assert_eq!(ecode, code::UNSUPPORTED_STAGE);
            assert_eq!(kind, "unsupported_stage");
            assert!(
                message.contains("reduce_median"),
                "names the kind: {message}"
            );
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    drop(s);

    // The server survives and keeps answering other clients.
    let mut probe = control(&addr).expect("probe");
    probe.ping(7).expect("alive after the rejection");
    probe.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A sub-KiB `Submit` naming a shape whose payload would take gigabytes to
/// petabytes gets its typed rejection from the template alone, and the
/// gateway keeps answering on the same connection.
#[test]
fn hostile_submit_shapes_reject_before_any_payload_exists() {
    let cfg = GateConfig {
        serve: serve_cfg(1, 16),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();
    let mut c = ServeClient::connect(&addr, "hostile", Mode::Live, None).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let cases = [
        // 2^33 samples, 64 GiB: in the envelope, but past a staging slot.
        (
            Shape::Rows1d {
                n: 512,
                rows: 1 << 24,
            },
            code::OVERSIZED,
        ),
        // 2^48 samples, 2 PiB: the length envelope bounces it.
        (
            Shape::Rows1d {
                n: 1 << 24,
                rows: 1 << 24,
            },
            code::UNSUPPORTED,
        ),
        // The product of the axes overflows 64 bits.
        (
            Shape::Volume {
                nx: 1 << 24,
                ny: 1 << 24,
                nz: 1 << 24,
            },
            code::UNSUPPORTED,
        ),
    ];
    for (seq, (shape, want)) in (1..).zip(cases) {
        let spec = SeededSpec {
            shape,
            ..sample_spec(seq)
        };
        let verdict = c.submit(seq, None, None, spec).expect("answered");
        assert_eq!(verdict.map_err(|e| e.code), Err(want), "{shape:?}");
    }
    c.ping(9).expect("the connection still answers");
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Shapes outside the five-step envelope get typed answers instead of a
/// panic on the gateway's poll-loop thread: a hint-less 16×512×16 `Submit`
/// is refused as `unsupported` while a six-step hint serves it, and a
/// `PipelineSubmit` with a 512-point Z fails its decode. The gateway keeps
/// answering pings throughout.
#[test]
fn shapes_outside_the_five_step_envelope_get_typed_answers() {
    let cfg = GateConfig {
        serve: serve_cfg(1, 16),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();
    let mut c = ServeClient::connect(&addr, "tall", Mode::Live, None).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let tall = |algorithm| SeededSpec {
        shape: Shape::Volume {
            nx: 16,
            ny: 512,
            nz: 16,
        },
        algorithm,
        deadline_s: None,
        ..sample_spec(1)
    };
    let err = c.submit(1, None, None, tall(None)).expect("answered");
    let err = err.expect_err("outside the five-step envelope");
    assert_eq!(
        (err.code, err.kind.as_str()),
        (code::UNSUPPORTED, "unsupported")
    );
    assert!(err.message.contains("16..=256"), "{}", err.message);
    c.ping(2).expect("the connection still answers");
    let six_step = tall(Some(bifft::plan::Algorithm::SixStep));
    let id = c.submit(3, None, None, six_step).expect("answered");
    let id = id.expect("a six-step hint is admitted");
    c.drain().expect("drain");
    assert_eq!(c.poll(id).expect("poll").status, "done");

    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Frame::Hello {
        proto: PROTO.to_string(),
        client: "tall-dag".to_string(),
        mode: Mode::Live,
        first_s: None,
    };
    let submit = Frame::PipelineSubmit {
        seq: 1,
        at_s: None,
        next_s: None,
        trace: None,
        pipe: SeededPipeline {
            dims: (16, 16, 512),
            input_seeds: vec![1, 2],
            stages: docking_stages(16 * 16 * 512),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: fft_serve::TenantId(0),
        },
    };
    s.write_all(&[hello.encode(), submit.encode()].concat())
        .expect("hello + pipeline submit");
    let mut dec = fft_gate::proto::FrameDecoder::new();
    let mut replies = Vec::new();
    while replies.len() < 2 {
        match dec.next_frame().expect("client-side decode") {
            Some(f) => replies.push(f),
            None => {
                let mut chunk = [0u8; 4096];
                let n = s.read(&mut chunk).expect("read");
                assert!(n > 0, "server closed before answering");
                dec.feed(&chunk[..n]);
            }
        }
    }
    assert!(matches!(replies[0], Frame::HelloAck { .. }));
    match &replies[1] {
        Frame::Error {
            code: ecode,
            message,
            ..
        } => {
            assert_eq!(*ecode, code::BAD_FRAME);
            assert!(message.contains("z-dimension 512"), "{message}");
        }
        other => panic!("expected the decode error, got {other:?}"),
    }
    drop(s);
    c.ping(4).expect("alive after the hostile frames");
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Raw hostile bytes — truncations, lying length headers, junk JSON, junk
/// types, mid-handshake garbage — never panic the gateway, and it keeps
/// serving well-formed clients afterwards.
#[test]
fn hostile_bytes_never_panic_the_gateway() {
    let cfg = GateConfig {
        serve: serve_cfg(2, 16),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    let hello = Frame::Hello {
        proto: PROTO.to_string(),
        client: "fuzz".to_string(),
        mode: Mode::Live,
        first_s: None,
    }
    .encode();
    let mut corpus: Vec<Vec<u8>> = vec![
        // A length header promising 4 GiB.
        vec![3, 0xff, 0xff, 0xff, 0xff],
        // Unknown frame type.
        vec![0xee, 2, 0, 0, 0, b'{', b'}'],
        // Type 0 is reserved / invalid.
        vec![0, 0, 0, 0, 0],
        // Truncated header.
        vec![3, 1],
        // Valid type, body is not JSON.
        vec![8, 3, 0, 0, 0, 0xde, 0xad, 0xbf],
        // Valid type, JSON but wrong fields.
        b"\x08\x02\x00\x00\x00{}".to_vec(),
        // Submit before Hello.
        Frame::Ping { nonce: 1 }.encode(),
        // Hello with the wrong protocol string.
        b"\x01\x1c\x00\x00\x00{\"proto\":\"nope\",\"mode\":\"live\"}".to_vec(),
        // Hello, then garbage.
        [hello.clone(), vec![0x7f; 64]].concat(),
        // Hello, then a submit whose dims are absurd.
        [
            hello.clone(),
            b"\x03\x4b\x00\x00\x00{\"seq\":0,\"at_s\":null,\"next_s\":null,\
              \"spec\":{\"kind\":\"rows\",\"n\":99999999999,\"rows\":1}}"
                .to_vec(),
        ]
        .concat(),
        // A pipeline submit whose body is not JSON.
        vec![20, 3, 0, 0, 0, 0xde, 0xad, 0xbf],
        // Hello, then a pipeline with junk everywhere: absurd dims, a
        // garbage operand, a non-numeric scale.
        [hello.clone(), {
            let body = b"{\"seq\":0,\"at_s\":null,\"next_s\":null,\"trace\":null,\
                  \"pipe\":{\"dims\":[99999999999,0,-3],\"seeds\":[1],\
                  \"stages\":[{\"kind\":\"forward\",\"src\":\"zz9\",\"src2\":null,\
                  \"scale\":\"loud\",\"after\":0}],\"priority\":\"normal\",\
                  \"deadline_s\":null,\"tenant\":0}}"
                .to_vec();
            let mut f = vec![20u8];
            f.extend_from_slice(&(body.len() as u32).to_le_bytes());
            f.extend_from_slice(&body);
            f
        }]
        .concat(),
        // Hello, then a pipeline claiming thousands of stages (the decoder
        // must bound the count before allocating).
        [hello.clone(), {
            let mut body = b"{\"seq\":0,\"at_s\":null,\"next_s\":null,\"trace\":null,\
                  \"pipe\":{\"dims\":[16,16,16],\"seeds\":[1,2],\"stages\":["
                .to_vec();
            for i in 0..2000 {
                if i > 0 {
                    body.push(b',');
                }
                body.extend_from_slice(
                    b"{\"kind\":\"forward\",\"src\":\"in0\",\"src2\":null,\
                          \"scale\":1.0,\"after\":0}",
                );
            }
            body.extend_from_slice(b"],\"priority\":\"normal\",\"deadline_s\":null,\"tenant\":0}}");
            let mut f = vec![20u8];
            f.extend_from_slice(&(body.len() as u32).to_le_bytes());
            f.extend_from_slice(&body);
            f
        }]
        .concat(),
        // A client sending the server-only PipelineAck.
        [
            hello.clone(),
            Frame::PipelineAck {
                seq: 1,
                id: 2,
                trace: None,
                recv_s: 0.1,
                enq_s: 0.2,
                ack_s: 0.3,
            }
            .encode(),
        ]
        .concat(),
        // A deeply nested body.
        {
            let mut b = vec![1u8];
            let body = [
                b"{\"proto\":".to_vec(),
                vec![b'['; 200],
                vec![b']'; 200],
                b"}".to_vec(),
            ]
            .concat();
            b.extend_from_slice(&(body.len() as u32).to_le_bytes());
            b.extend_from_slice(&body);
            b
        },
    ];
    // Seeded random garbage, reproducible across runs.
    let mut rng = SplitMix64::new(0xfeed);
    for _ in 0..64 {
        let len = rng.below(96) + 1;
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(len);
        corpus.push(bytes);
    }

    for (i, bytes) in corpus.iter().enumerate() {
        let mut s = TcpStream::connect(&addr).expect("fuzz connect");
        s.set_read_timeout(Some(Duration::from_millis(200))).ok();
        // The server may already have closed on us mid-write; that's fine.
        let _ = s.write_all(bytes);
        let mut sink = [0u8; 4096];
        while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
        drop(s);
        // Every few rounds, prove the server still answers politely.
        if i % 16 == 0 {
            let mut probe = control(&addr).expect("probe connect");
            probe.ping(i as u64).expect("server must stay alive");
            probe.bye().ok();
        }
    }

    let mut ctl = control(&addr).expect("final control");
    ctl.ping(999).expect("alive after the whole corpus");
    let metrics = ctl.metrics().expect("metrics");
    let doc = json::parse(&metrics).expect("metrics parse");
    let protocol_errors = doc
        .get("counters")
        .and_then(|c| c.get(names::PROTOCOL_ERRORS))
        .and_then(|v| v.as_u64())
        .expect("protocol error counter exported");
    assert!(
        protocol_errors > 0,
        "the corpus must have tripped the protocol-error counter"
    );
    ctl.shutdown().expect("shutdown");
    handle.join().expect("server thread survived the fuzz");
}

fn counter(metrics: &str, name: &str) -> u64 {
    json::parse(metrics)
        .expect("metrics parse")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("counter {name} missing"))
}

/// Window backpressure, observed from outside: a paced connection that
/// outruns its in-flight window gets read-paused (the stall counter moves),
/// yet every submission is still answered once the merge releases.
#[test]
fn paced_window_backpressure_stalls_and_recovers() {
    let cfg = GateConfig {
        serve: serve_cfg(2, 64),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    // Conn A promises an arrival at t=0 and stays silent: everything conn B
    // sends must be held behind that promise.
    let mut a = ServeClient::connect(&addr, "gate-a", Mode::Paced, Some(0.0)).expect("conn a");
    a.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut b = ServeClient::connect(&addr, "gate-b", Mode::Paced, Some(1.0)).expect("conn b");
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // B fires 8 submits into a window of 4 without reading a single reply.
    for i in 0..8u64 {
        let at = 1.0 + i as f64;
        let next = if i == 7 { None } else { Some(at + 1.0) };
        b.send(&Frame::Submit {
            seq: i + 1,
            at_s: Some(at),
            next_s: next,
            trace: Some(i + 1),
            spec: sample_spec(i),
        })
        .expect("b submit");
    }
    // Give the gateway time to hold B at its window and pause reading.
    std::thread::sleep(Duration::from_millis(100));

    // A's promised submit arrives; the merge releases A then B in order.
    let id_a = a
        .submit(0, Some(0.0), None, sample_spec(100))
        .expect("a submit io")
        .expect("a admitted");
    for i in 0..8u64 {
        match b.recv().expect("b reply") {
            Frame::SubmitAck {
                seq,
                id,
                trace,
                recv_s,
                ack_s,
                ..
            } => {
                assert_eq!(seq, i + 1, "acks must come back in schedule order");
                assert!(id > id_a, "B's ids all follow A's released submit");
                assert_eq!(trace, Some(i + 1), "trace ids echo verbatim");
                assert!(
                    ack_s >= recv_s,
                    "ack stamp cannot precede the receive stamp"
                );
            }
            other => panic!("expected SubmitAck, got {other:?}"),
        }
    }
    a.bye().expect("a bye");
    b.bye().expect("b bye");

    let mut ctl = control(&addr).expect("control");
    ctl.drain().expect("drain");
    let metrics = ctl.metrics().expect("metrics");
    assert!(
        counter(&metrics, names::BACKPRESSURE_STALLS) >= 1,
        "the window pause must be visible in the stall counter"
    );
    assert_eq!(counter(&metrics, names::SUBMITS), 9);
    ctl.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Queue backpressure on a live connection: a flood over a tiny queue gets
/// typed `QUEUE_FULL` rejections and read-pauses, then drains in wall time
/// and recovers — polls resolve and the counters reconcile.
#[test]
fn live_queue_backpressure_sheds_and_recovers() {
    let cfg = GateConfig {
        serve: serve_cfg(1, 2),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    let mut c = ServeClient::connect(&addr, "flood", Mode::Live, None).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let total = 32u64;
    let mut accepted: Vec<u64> = Vec::new();
    let mut rejected = 0u64;
    for i in 0..total {
        match c.submit(i, None, None, sample_spec(i)).expect("submit io") {
            Ok(id) => accepted.push(id),
            Err(e) => {
                assert_eq!(
                    e.code,
                    code::QUEUE_FULL,
                    "only queue shedding expected: {e}"
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(accepted.len() as u64 + rejected, total);
    assert!(
        !accepted.is_empty(),
        "the queue must admit some of the flood"
    );

    c.drain().expect("drain");
    for id in &accepted {
        let ans = c.poll(*id).expect("poll");
        assert_eq!(ans.status, "done", "admitted request {id} must complete");
        assert!(ans.latency_s.unwrap_or(-1.0) > 0.0);
    }
    let unknown = c.poll(1 << 40).expect("poll unknown");
    assert_eq!(unknown.status, "unknown");

    let metrics = c.metrics().expect("metrics");
    assert_eq!(counter(&metrics, names::SUBMITS), accepted.len() as u64);
    assert_eq!(counter(&metrics, names::REJECTED), rejected);
    if rejected > 0 {
        assert!(
            counter(&metrics, names::BACKPRESSURE_STALLS) >= 1,
            "queue shedding must register as transport backpressure"
        );
    }
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The full `gate_*` counter family after a scripted gateway session,
/// pinned against a committed Prometheus golden and round-tripped through
/// the exposition parser. The session is driven single-threaded through
/// `run_once` so every counter lands deterministically: one paced client,
/// window 2, three submits (the second trips a window stall), then a
/// drain. Only `gate_bytes_out_total` is normalized before the
/// comparison — the v1.1 ack stamps are wall-clock values whose rendered
/// width varies run to run.
#[test]
fn gate_counters_match_committed_prometheus_golden() {
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr");
    let cfg = GateConfig {
        serve: serve_cfg(2, 64),
        window: 2,
    };
    let mut server = GateServer::from_listener(listener, cfg).expect("server");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("timeout");
    let mut decoder = fft_gate::proto::FrameDecoder::new();

    // Alternates server iterations with client reads until a frame lands.
    let mut next_frame = |server: &mut GateServer, stream: &mut TcpStream| -> Frame {
        for _ in 0..1000 {
            if let Some(f) = decoder.next_frame().expect("client-side decode") {
                return f;
            }
            server.run_once();
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => panic!("server closed the scripted connection"),
                Ok(n) => decoder.feed(&chunk[..n]),
                Err(_) => {}
            }
        }
        panic!("no frame after 1000 scripted iterations");
    };

    stream
        .write_all(
            &Frame::Hello {
                proto: PROTO.to_string(),
                client: "golden-metrics".to_string(),
                mode: Mode::Paced,
                first_s: Some(0.0),
            }
            .encode(),
        )
        .expect("hello");
    assert!(matches!(
        next_frame(&mut server, &mut stream),
        Frame::HelloAck { .. }
    ));

    // Three submits into a window of 2: the second hits the window while
    // both are still unreleased inside one read burst, so exactly one
    // backpressure stall registers before the single-connection merge
    // releases everything.
    for i in 0..3u64 {
        let at = i as f64 * 1e-3;
        let next = if i == 2 { None } else { Some(at + 1e-3) };
        stream
            .write_all(
                &Frame::Submit {
                    seq: i,
                    at_s: Some(at),
                    next_s: next,
                    trace: Some(i),
                    spec: sample_spec(i),
                }
                .encode(),
            )
            .expect("submit");
    }
    for i in 0..3u64 {
        match next_frame(&mut server, &mut stream) {
            Frame::SubmitAck { seq, trace, .. } => {
                assert_eq!(seq, i);
                assert_eq!(trace, Some(i));
            }
            other => panic!("expected SubmitAck, got {other:?}"),
        }
    }
    stream
        .write_all(&Frame::Drain.encode())
        .expect("drain frame");
    assert!(matches!(
        next_frame(&mut server, &mut stream),
        Frame::DrainAck { .. }
    ));

    let text = server.service().prometheus_text();

    // Every sample in the exposition must survive its own parser, and the
    // gate_* family must carry the scripted session's exact counts.
    let parsed = fft_serve::telemetry::parse_prometheus(&text).expect("exposition parses");
    let gate = |name: &str| {
        *parsed
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from the exposition"))
    };
    assert_eq!(gate(names::CONNECTIONS), 1.0);
    assert_eq!(gate(names::CONNECTIONS_OPEN), 1.0);
    assert_eq!(gate(names::SUBMITS), 3.0);
    assert_eq!(gate(names::REJECTED), 0.0);
    assert_eq!(gate(names::BACKPRESSURE_STALLS), 1.0);
    assert_eq!(gate(names::FRAMES_IN), 5.0);
    assert_eq!(gate(names::FRAMES_OUT), 5.0);
    assert!(gate(names::BYTES_IN) > 0.0);
    assert!(gate(names::BYTES_OUT) > 0.0);

    // Counters are monotone (set_counter clamps upward), so the wall-width
    // byte total is normalized in the rendered text, not the registry.
    let text: String = text
        .lines()
        .map(|l| {
            if l.starts_with(&format!("{} ", names::BYTES_OUT)) {
                format!("{} NORMALIZED\n", names::BYTES_OUT)
            } else {
                format!("{l}\n")
            }
        })
        .collect();

    check_golden(
        &text,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/gate_metrics.prom"
        ),
        "gateway prometheus exposition",
    );
}

/// Draining while the bridge still holds paced submissions is refused with
/// a typed error instead of silently corrupting the replay.
#[test]
fn drain_is_refused_while_paced_submissions_are_held() {
    let cfg = GateConfig {
        serve: serve_cfg(2, 64),
        window: 4,
    };
    let (addr, handle) = GateServer::spawn("127.0.0.1:0", cfg).expect("spawn gateway");
    let addr = addr.to_string();

    // Two paced conns; B's submit is held behind A's t=0 promise.
    let a = ServeClient::connect(&addr, "a", Mode::Paced, Some(0.0)).expect("conn a");
    let mut b = ServeClient::connect(&addr, "b", Mode::Paced, Some(1.0)).expect("conn b");
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();
    b.send(&Frame::Submit {
        seq: 1,
        at_s: Some(1.0),
        next_s: None,
        trace: None,
        spec: sample_spec(1),
    })
    .expect("b submit");
    std::thread::sleep(Duration::from_millis(100));

    let mut victim = control(&addr).expect("drain conn");
    let err = victim.drain().expect_err("drain must be refused");
    assert!(
        err.to_string().contains("held"),
        "refusal should explain the held submissions: {err}"
    );

    // Releasing the merge (A closes) lets the held submit through.
    a.bye().expect("a bye");
    match b.recv().expect("b reply") {
        Frame::SubmitAck { seq, .. } => assert_eq!(seq, 1),
        other => panic!("expected SubmitAck, got {other:?}"),
    }
    b.bye().expect("b bye");
    let mut ctl = control(&addr).expect("control");
    ctl.drain().expect("drain now succeeds");
    ctl.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}
