//! Host-time figures in reference seconds.
//!
//! On a shared machine host speed is not constant: it switches between
//! faster and slower states that last seconds to minutes (other tenants of
//! the same cores, caches and memory), and a run sees whatever mix of states
//! it happened to catch. So after every pass the benchmark times a fixed
//! calibration loop — its own code, no program code — and scales the pass's
//! host times by [`CAL_REF_S`] over the loop's time: a host second measured
//! while the machine runs slow counts for less. The figures then read as
//! the host times of a machine on which the loop takes [`CAL_REF_S`], and a
//! change to the program moves them while a change of machine state mostly
//! does not.

use fft_math::stats::percentile;
use std::time::Instant;

/// Host seconds of one calibration loop at the reference speed.
pub const CAL_REF_S: f64 = 0.0025;

/// One run of the calibration loop: short-lived heap allocations, float
/// arithmetic and string formatting, the mix that dominates the serve
/// control plane. Host seconds.
fn calibration_loop() -> f64 {
    let t = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..20_000usize {
        let v: Vec<f64> = (0..64).map(|j| ((i * 64 + j) as f64).sqrt()).collect();
        acc += v.iter().sum::<f64>();
        acc += format!("k{i}").len() as f64;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Reference seconds per host second now: [`CAL_REF_S`] over the fastest
/// of three calibration loops.
pub fn scale() -> f64 {
    let fastest = (0..3)
        .map(|_| calibration_loop())
        .fold(f64::INFINITY, f64::min);
    CAL_REF_S / fastest
}

/// Mean host seconds of `loops` calibration loops run back to back. Where
/// the machine's speed flickers faster than a pass lasts, the mean of
/// calibrations on either side of a pass follows the pass better than the
/// fastest loop does.
pub fn calibration_s(loops: usize) -> f64 {
    (0..loops).map(|_| calibration_loop()).sum::<f64>() / loops.max(1) as f64
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the whole process (every thread, live or finished) has used,
/// to the nanosecond.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Pins the calling thread, and every thread it starts from now on, to the
/// CPU it runs on. Returns that CPU, or `None` when the kernel refused.
///
/// On a virtual machine each vCPU can run at its own speed, set by whatever
/// shares its physical core, so a calibration loop on one vCPU says little
/// about a thread running on the other. Pinned, the calibration and every
/// timed thread see the same vCPU.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// One timed pass (or paper-kernel round) as the host clock saw it.
pub struct HostPass {
    pub ops: usize,
    /// Host seconds of the pass.
    pub host_s: f64,
    /// Host milliseconds of each op that gives a per-op sample.
    pub op_ms: Vec<f64>,
    /// [`scale`] measured next to the pass.
    pub scale: f64,
}

/// Host-time figures of one timed phase, in reference seconds.
pub struct Host {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Ops per host second before scaling, for the run's notes.
    pub raw_ops_per_s: f64,
    /// Per-op samples the percentiles come from.
    pub samples: usize,
}

/// How a run combines its passes' p99s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PassTail {
    /// The median: for a workload whose first passes are outliers (their
    /// p99 several times the rest while the process's heap grows).
    Median,
    /// The mean: for a workload whose passes' p99s scatter widely but have
    /// no outliers. It uses every pass, and one slow pass moves it by only
    /// its share.
    Mean,
}

/// The median over passes of ops per reference second, and per-op
/// percentiles in reference milliseconds. When every pass has at least ten
/// samples beyond a percentile, each pass's own percentile is taken, which
/// keeps the heavy tails of a process's first passes from deciding the
/// figure: the median of the passes' p50s, and their p99s combined as
/// `tail` says. Otherwise the percentile of all samples pooled.
pub fn host_figures(passes: &[HostPass], tail: PassTail) -> Host {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.ops as f64 / (p.host_s * p.scale))
        .collect();
    let raw: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.host_s).collect();
    let scaled: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.op_ms.iter().map(|ms| ms * p.scale).collect())
        .collect();
    let at = |q: f64, over: fn(&[f64]) -> f64| {
        if scaled.iter().all(|xs| xs.len() as f64 * (1.0 - q) >= 10.0) {
            let per: Vec<f64> = scaled.iter().map(|xs| percentile(xs, q)).collect();
            over(&per)
        } else {
            percentile(&scaled.concat(), q)
        }
    };
    Host {
        ops_per_s: percentile(&rates, 0.5),
        p50_ms: at(0.50, |xs| percentile(xs, 0.5)),
        p99_ms: match tail {
            PassTail::Median => at(0.99, |xs| percentile(xs, 0.5)),
            PassTail::Mean => at(0.99, |xs| xs.iter().sum::<f64>() / xs.len() as f64),
        },
        raw_ops_per_s: percentile(&raw, 0.5),
        samples: scaled.iter().map(Vec::len).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_figures_scale_each_pass() {
        let pass = |host_s: f64, ms: f64, scale: f64| HostPass {
            ops: 10,
            host_s,
            op_ms: vec![ms; 10],
            scale,
        };
        // The same work measured at full speed and at half speed.
        let h = host_figures(
            &[
                pass(1.0, 1.0, 1.0),
                pass(2.0, 2.0, 0.5),
                pass(1.0, 1.0, 1.0),
            ],
            PassTail::Median,
        );
        assert_eq!(h.ops_per_s, 10.0);
        assert_eq!((h.p50_ms, h.p99_ms), (1.0, 1.0));
        assert_eq!(h.raw_ops_per_s, 10.0);
        assert_eq!(h.samples, 30);
    }

    #[test]
    fn per_pass_percentiles_once_every_pass_has_ten_beyond() {
        // 1000 samples a pass: ten lie beyond p99. One pass is slow.
        let pass = |mid: f64, tail: f64| {
            let mut op_ms = vec![mid; 1000];
            op_ms[..20].fill(tail);
            HostPass {
                ops: 1000,
                host_s: 1.0,
                op_ms,
                scale: 1.0,
            }
        };
        let passes = [pass(1.0, 2.0), pass(3.0, 8.0), pass(1.0, 2.0)];
        // The median of the passes' p50s; their p99s as asked.
        let h = host_figures(&passes, PassTail::Median);
        assert_eq!((h.p50_ms, h.p99_ms), (1.0, 2.0));
        let h = host_figures(&passes, PassTail::Mean);
        assert_eq!((h.p50_ms, h.p99_ms), (1.0, 4.0));
        // With fewer samples the pool decides, heavy tail included.
        let short = |tail: f64| HostPass {
            ops: 100,
            host_s: 1.0,
            op_ms: [vec![1.0; 95], vec![tail; 5]].concat(),
            scale: 1.0,
        };
        let pooled = host_figures(&[short(1.0), short(50.0), short(1.0)], PassTail::Median);
        assert!(pooled.p99_ms > 1.0);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let until = Instant::now() + std::time::Duration::from_millis(50);
        while Instant::now() < until {
            std::hint::black_box(calibration_loop());
        }
        assert!(process_cpu_s() > t0);
    }

    #[test]
    fn calibration_is_positive_and_finite() {
        let s = calibration_s(2);
        assert!(s.is_finite() && s > 0.0, "{s}");
    }

    #[test]
    fn threads_started_after_pinning_stay_on_one_cpu() {
        let parallel = std::thread::spawn(|| {
            pin_to_current_cpu()?;
            std::thread::spawn(|| std::thread::available_parallelism().ok())
                .join()
                .unwrap()
        })
        .join()
        .unwrap();
        // The kernel may refuse to pin; the benchmark then runs unpinned.
        if let Some(n) = parallel {
            assert_eq!(n.get(), 1);
        }
    }

    #[test]
    fn scale_is_positive_and_finite() {
        let s = scale();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
