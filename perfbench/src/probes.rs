//! Direct probes of fixed per-call costs that the workloads bury inside
//! larger calls: one kernel launch, and one wire frame.

use bifft::Fft1dBatchGpu;
use fft_gate::{Frame, FrameDecoder};
use fft_math::stats::percentile;
use fft_math::{Complex32, Direction};
use gpu_sim::{DeviceSpec, Gpu};
use std::time::Instant;

/// Launches timed by the launch probe.
const LAUNCHES: usize = 2000;

/// Host µs of the smallest serve-small batch — one 16-point row — through
/// `Fft1dBatchGpu::execute` on a standalone card (median over launches).
pub fn launch_fixed_us() -> f64 {
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    let plan = Fft1dBatchGpu::new(&mut gpu, 16).expect("16-point rows are supported");
    let buf = gpu.mem_mut().alloc(16).expect("16 elements fit");
    gpu.mem_mut().upload(buf, 0, &[Complex32::ONE; 16]);
    let mut samples = Vec::with_capacity(LAUNCHES);
    for _ in 0..LAUNCHES {
        let t = Instant::now();
        std::hint::black_box(plan.execute(&mut gpu, buf, buf, 1, Direction::Forward));
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    percentile(&samples, 0.5)
}

/// Per-frame host µs of `Frame::encode` and of `FrameDecoder`, and mean
/// encoded bytes, over `frames` (each encoded and decoded once per round).
pub fn proto(frames: &[Frame]) -> (f64, f64, f64) {
    const ROUNDS: usize = 5;
    let mut enc = Vec::with_capacity(ROUNDS);
    let mut dec = Vec::with_capacity(ROUNDS);
    let mut bytes = 0usize;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let wire: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        enc.push(t.elapsed().as_nanos() as f64);
        bytes = wire.iter().map(Vec::len).sum();
        let t = Instant::now();
        let mut d = FrameDecoder::new();
        let mut decoded = 0;
        for w in &wire {
            d.feed(w);
            while let Ok(Some(f)) = d.next_frame() {
                std::hint::black_box(f);
                decoded += 1;
            }
        }
        dec.push(t.elapsed().as_nanos() as f64);
        assert_eq!(decoded, frames.len(), "every encoded frame decodes");
    }
    let n = frames.len().max(1) as f64;
    (
        percentile(&enc, 0.5) / n / 1e3,
        percentile(&dec, 0.5) / n / 1e3,
        bytes as f64 / n,
    )
}
