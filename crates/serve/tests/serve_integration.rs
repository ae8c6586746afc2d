//! End-to-end serving-stack checks: numerics against the oracle, the
//! determinism and goodput acceptance criteria, hazard cleanliness under
//! the PR 4 validator, and the sharded-volume route.

use bifft::plan::Fft3d;
use fft_math::dft::dft3d_oracle;
use fft_math::error::{rel_l2_error, rel_l2_error_f32};
use fft_math::fft1d::fft_pow2;
use fft_math::twiddle::Direction;
use fft_serve::loadgen::{run_closed_loop, run_open_loop, Workload};
use fft_serve::request::{RequestSpec, Shape};
use fft_serve::service::{FftService, ServeConfig};
use gpu_sim::{DeviceSpec, Gpu};

/// Same seed, same config: the report JSON must be byte-identical — the
/// acceptance criterion that makes CI gating on serving metrics possible.
#[test]
fn same_seed_same_bits() {
    let run = |seed: u64| {
        let mut svc = FftService::new(ServeConfig::default()).unwrap();
        run_open_loop(&mut svc, &Workload::mixed(), 96, 4000.0, seed);
        svc.finish().to_json()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must replay bit-identically");
    let c = run(43);
    assert_ne!(a, c, "different seeds explore different schedules");
}

/// The tentpole acceptance criterion: the full service (2 cards, stream
/// lanes, adaptive batching) sustains at least twice the goodput of serial
/// one-at-a-time submission of the same workload.
#[test]
fn two_card_service_doubles_serial_goodput() {
    let requests = 64;
    let seed = 7;
    let workload = Workload::rows();

    let mut serial = ServeConfig::builder()
        .gpus(1)
        .streams(0)
        .batch_requests(1)
        .build_service()
        .unwrap();
    run_closed_loop(&mut serial, &workload, requests, 1, seed);
    let serial_report = serial.finish();
    assert_eq!(serial_report.completed, requests);
    assert!(serial_report.goodput_gbs > 0.0);

    let mut svc = FftService::new(ServeConfig::default()).unwrap();
    run_closed_loop(&mut svc, &workload, requests, 32, seed);
    let report = svc.finish();
    assert_eq!(report.completed, requests);

    assert!(
        report.goodput_gbs >= 2.0 * serial_report.goodput_gbs,
        "service goodput {:.3} GB/s must be at least 2x serial {:.3} GB/s",
        report.goodput_gbs,
        serial_report.goodput_gbs
    );
    assert!(
        report.mean_batch_size() > 1.0,
        "saturated closed loop must coalesce"
    );
}

/// A checked serving run (every card under the memcheck/racecheck-style
/// validator) reports zero diagnostics: the per-lane buffer discipline is
/// hazard-free by construction.
#[test]
fn checked_run_is_hazard_clean() {
    let mut svc = ServeConfig::builder()
        .check_hazards(true)
        .build_service()
        .unwrap();
    run_open_loop(&mut svc, &Workload::mixed(), 48, 4000.0, 11);
    svc.drain();
    let rep = svc.check_report().expect("checking was enabled");
    assert!(rep.clean(), "serving must be hazard-clean, got:\n{rep}");
    assert!(rep.kernels_checked > 0, "the validator saw real launches");
    let report = svc.report();
    assert!(report.completed > 0);
}

/// Outputs served through the whole stack (queue -> batcher -> stream lane
/// -> D2H) match the host reference FFT row by row, forward and inverse.
#[test]
fn served_rows_match_reference() {
    let mut svc = ServeConfig::builder()
        .keep_outputs(true)
        .build_service()
        .unwrap();
    let mut specs = Vec::new();
    for (seed, dir) in [(1, Direction::Forward), (2, Direction::Inverse)] {
        let spec = RequestSpec::seeded(Shape::Rows1d { n: 256, rows: 4 }, dir, seed);
        specs.push(spec.clone());
        svc.submit(spec, 0.0).unwrap();
    }
    svc.drain();
    let completions = svc.completions();
    assert_eq!(completions.len(), 2);
    for (c, spec) in completions.iter().zip(&specs) {
        let out = c.output.as_ref().expect("keep_outputs");
        for r in 0..4 {
            let mut want = spec.payload[r * 256..(r + 1) * 256].to_vec();
            fft_pow2(&mut want, spec.direction);
            let err = rel_l2_error_f32(&out[r * 256..(r + 1) * 256], &want);
            assert!(err < 1e-5, "row {r} error {err}");
        }
    }
}

/// A served volume matches the O(N^2) oracle.
#[test]
fn served_volume_matches_oracle() {
    let mut svc = ServeConfig::builder()
        .keep_outputs(true)
        .build_service()
        .unwrap();
    let spec = RequestSpec::seeded(
        Shape::Volume {
            nx: 16,
            ny: 16,
            nz: 16,
        },
        Direction::Forward,
        5,
    );
    let payload = spec.payload.clone();
    svc.submit(spec, 0.0).unwrap();
    svc.drain();
    let c = &svc.completions()[0];
    let out = c.output.as_ref().unwrap();
    let want = dft3d_oracle(&payload, 16, 16, 16, Direction::Forward);
    let err = rel_l2_error(out, &want);
    assert!(err < 1e-4, "volume error {err}");
    assert!(c.card.is_some(), "a 16^3 volume fits one card");
}

/// Volumes too large for one card route through the multi-GPU sharder,
/// occupy the whole fleet, and still produce the right answer.
#[test]
fn oversized_volume_routes_to_sharder() {
    // 8 MiB cards: a 64^3 volume needs 2 MiB data + 2 MiB work per plan
    // plus the two 1 MiB staging slots per lane, which no single card can
    // hold alongside its slots — but two sharded cards can.
    let mut spec = DeviceSpec::gts8800();
    spec.memory_bytes = 5 << 20;
    let mut svc = ServeConfig::builder()
        .spec(spec)
        .gpus(2)
        .streams(1)
        .batch_elems(1 << 17)
        .keep_outputs(true)
        .build_service()
        .unwrap();
    let req = RequestSpec::seeded(
        Shape::Volume {
            nx: 64,
            ny: 64,
            nz: 64,
        },
        Direction::Forward,
        9,
    );
    let payload = req.payload.clone();
    svc.submit(req, 0.0).unwrap();
    svc.drain();
    let c = &svc.completions()[0];
    assert_eq!(c.card, None, "sharded completions span every card");

    // The fleet dispatch keeps the same books as a card dispatch: a full
    // monotone waterfall, a balanced attribution ledger and one launch.
    let wf = svc.telemetry().lifecycle.get(c.id).expect("waterfall");
    assert!(wf.is_complete_pipeline(), "sharded waterfall incomplete");
    assert!(wf.is_monotone(), "sharded waterfall out of order");
    assert!(svc.attribution_audit().ok(), "sharded ledger unbalanced");
    let launches: Vec<_> = svc.report().batch_histogram.into_iter().collect();
    assert_eq!(launches, vec![(1, 1)], "one launch of one volume");

    // Reference: the same transform on one big-memory card.
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = Fft3d::builder(64, 64, 64).build(&mut gpu).unwrap();
    let (want, _) = plan
        .transform(&mut gpu, &payload, Direction::Forward)
        .unwrap();
    let err = rel_l2_error_f32(c.output.as_ref().unwrap(), &want);
    assert!(err < 1e-5, "sharded route diverged from single-card: {err}");
}

/// Under open-loop overload the queue bound sheds requests instead of
/// growing without limit, and the report accounts for every submission.
#[test]
fn overload_sheds_and_accounts() {
    let mut svc = ServeConfig::builder()
        .gpus(1)
        .streams(1)
        .queue_capacity(8)
        .build_service()
        .unwrap();
    // Far beyond one card's capacity: arrivals every 2 us.
    let load = run_open_loop(&mut svc, &Workload::rows(), 400, 500_000.0, 3);
    let report = svc.finish();
    assert!(report.rejected_queue_full > 0, "overload must shed");
    assert!(load.accepted < load.offered);
    assert_eq!(report.submitted, 400);
    assert_eq!(
        report.admitted
            + report.rejected_queue_full
            + report.rejected_deadline
            + report.rejected_unsupported
            + report.rejected_oversized
            + report.rejected_unallocatable,
        report.submitted
    );
    assert_eq!(report.completed, report.admitted);
    assert!(report.queue_max_depth <= 8);
    // Depth-adaptive batching: overload drives multi-request launches.
    assert!(report.mean_batch_size() > 1.5);
}
