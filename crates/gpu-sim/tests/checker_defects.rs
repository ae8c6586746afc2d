//! Seeded-defect tests for the validation layer ([`gpu_sim::check`]):
//! each test plants one bug of a class the checker claims to catch and
//! asserts the diagnostic comes back with the right shape — and that the
//! fixed variant of the same program comes back clean.

use fft_math::Complex32;
use gpu_sim::{AccessKind, DeviceSpec, Gpu, LaunchConfig};

fn signal(len: usize) -> Vec<Complex32> {
    (0..len)
        .map(|i| Complex32::new((i as f32 * 0.173).sin(), (i as f32 * 0.311).cos()))
        .collect()
}

/// A store one element past the allocation is reported as out-of-bounds
/// with the kernel name and thread coordinates, the store itself is
/// suppressed, and the in-bounds part of the run is unaffected.
#[test]
fn seeded_oob_store_is_caught() {
    let n = 256usize;
    let mut gpu = Gpu::new(DeviceSpec::gt8800());
    gpu.check_enable();
    let buf = gpu.mem_mut().alloc(n).unwrap();
    gpu.mem_mut().upload(buf, 0, &signal(n));

    let cfg = LaunchConfig::copy("oob_store", 1, 16);
    gpu.launch(&cfg, |t| {
        let i = t.gid();
        let v = t.ld(buf, i);
        // The defect: writes land one buffer-length too far.
        t.st(buf, n + i, v);
    });

    let rep = gpu.check_report().unwrap();
    assert!(!rep.clean());
    let d = rep
        .access
        .iter()
        .find(|d| d.kind == AccessKind::OutOfBounds)
        .expect("an out-of-bounds diagnostic");
    assert_eq!(d.kernel, "oob_store");
    assert_eq!(d.buffer, buf.index());
    assert!(d.write);
    assert!(d.index >= n);
    assert_eq!(d.occurrences, 16, "all 16 threads collapse onto one diag");
    // The suppressed stores never corrupted the arena.
    assert_eq!(gpu.mem_mut().as_slice(buf).len(), n);

    // The fixed kernel is clean.
    let mut gpu2 = Gpu::new(DeviceSpec::gt8800());
    gpu2.check_enable();
    let buf2 = gpu2.mem_mut().alloc(n).unwrap();
    gpu2.mem_mut().upload(buf2, 0, &signal(n));
    gpu2.launch(&LaunchConfig::copy("in_bounds_store", 1, 16), |t| {
        let i = t.gid();
        let v = t.ld(buf2, i);
        t.st(buf2, i, v);
    });
    assert!(gpu2.check_report().unwrap().clean());
}

/// A load from a freshly-allocated buffer (cudaMalloc promises nothing)
/// is an uninitialized-read; after an upload covers the range it is not.
#[test]
fn seeded_uninitialized_read_is_caught() {
    let n = 64usize;
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    gpu.check_enable();
    let buf = gpu.mem_mut().alloc(n).unwrap();

    gpu.launch(&LaunchConfig::copy("uninit_read", 1, 16), |t| {
        let _ = t.ld(buf, t.gid());
    });
    let rep = gpu.check_report().unwrap();
    let d = rep
        .access
        .iter()
        .find(|d| d.kind == AccessKind::UninitRead)
        .expect("an uninitialized-read diagnostic");
    assert_eq!(d.kernel, "uninit_read");
    assert!(!d.write);

    let mut gpu2 = Gpu::new(DeviceSpec::gts8800());
    gpu2.check_enable();
    let buf2 = gpu2.mem_mut().alloc(n).unwrap();
    gpu2.mem_mut().upload(buf2, 0, &signal(n));
    gpu2.launch(&LaunchConfig::copy("init_read", 1, 16), |t| {
        let _ = t.ld(buf2, t.gid());
    });
    assert!(gpu2.check_report().unwrap().clean());
}

/// Reading zero from an unbacked element does not make it initialised: past
/// an uploaded prefix, and below kernel stores that backed the buffer up to
/// a later element, a load of a never-written element is still an
/// uninitialized-read, and it reads zero.
#[test]
fn never_written_elements_of_a_lazy_buffer_are_uninitialised() {
    let n = 1 << 16;
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    gpu.check_enable();
    let buf = gpu.mem_mut().alloc(n).unwrap();
    gpu.mem_mut().upload(buf, 0, &signal(16));
    let mut seen = Vec::new();
    // Past the uploaded head, where nothing is backed.
    gpu.launch(&LaunchConfig::copy("lazy_unbacked", 1, 16), |t| {
        seen.push(t.ld(buf, 100 * (t.tid + 1)));
    });
    // Below stores that back the buffer up to its last element.
    gpu.launch(&LaunchConfig::copy("lazy_backed", 1, 16), |t| {
        t.st(buf, n - 1 - t.tid, Complex32::new(1.0, 0.0));
        seen.push(t.ld(buf, 100 * (t.tid + 1)));
    });
    assert_eq!(seen.len(), 32);
    assert!(seen.iter().all(|&v| v == Complex32::ZERO));
    let rep = gpu.check_report().unwrap();
    for kernel in ["lazy_unbacked", "lazy_backed"] {
        let d = rep
            .access
            .iter()
            .find(|d| d.kind == AccessKind::UninitRead && d.kernel == kernel)
            .unwrap_or_else(|| panic!("an uninitialized-read diagnostic in {kernel}"));
        assert_eq!(d.buffer, buf.index());
        assert_eq!(d.occurrences, 16);
    }
    // The uploaded head and the stored element are initialised.
    let mut gpu2 = Gpu::new(DeviceSpec::gts8800());
    gpu2.check_enable();
    let buf2 = gpu2.mem_mut().alloc(n).unwrap();
    gpu2.mem_mut().upload(buf2, 0, &signal(16));
    gpu2.launch(&LaunchConfig::copy("lazy_head", 1, 16), |t| {
        let _ = t.ld(buf2, t.tid);
    });
    assert!(gpu2.check_report().unwrap().clean());
}

/// The racecheck analog: an async H2D copy on stream 1 overwrites a buffer
/// a kernel on stream 0 is concurrently working through, with no event
/// ordering the two. The interval replay must flag the pair; inserting
/// the event edge (the fix) must silence it without changing the data
/// the copy ultimately leaves behind.
#[test]
fn racing_async_memcpy_vs_kernel_needs_an_event() {
    let n = 4096usize;
    let host = signal(n);

    let run = |with_event: bool| {
        let mut gpu = Gpu::new(DeviceSpec::gt8800());
        gpu.check_enable();
        let buf = gpu.mem_mut().alloc(n).unwrap();
        let s0 = gpu.stream_create();
        let s1 = gpu.stream_create();
        gpu.memcpy_h2d_async(s0, buf, 0, &host, 1, "seed_h2d");
        let cfg = LaunchConfig::copy("square_inplace", 8, 64);
        let total = 8 * 64;
        gpu.with_stream(s0, |g| {
            g.launch(&cfg, |t| {
                let mut i = t.gid();
                while i < n {
                    let v = t.ld(buf, i);
                    t.st(buf, i, v * v);
                    i += total;
                }
            })
        });
        if with_event {
            let done = gpu.event_record(s0);
            gpu.stream_wait_event(s1, done);
        }
        // The defect (when with_event is false): this overwrite is issued
        // with no ordering edge against the in-flight kernel.
        gpu.memcpy_h2d_async(s1, buf, 0, &host, 1, "racy_h2d");
        gpu.synchronize();
        gpu.check_report().unwrap()
    };

    let racy = run(false);
    assert!(!racy.clean());
    let h = &racy.hazards[0];
    assert!(
        h.first == "square_inplace" || h.second == "racy_h2d",
        "hazard names the participants: {h:?}"
    );
    assert_eq!(h.buffer, 0);
    assert!(h.hi > h.lo);

    let fixed = run(true);
    assert!(fixed.clean(), "event-ordered copy must not flag: {fixed}");
}

/// The same two ops serialised on one stream are ordered by the stream's
/// own timeline — no event needed, no hazard.
#[test]
fn same_stream_copy_after_kernel_is_ordered() {
    let n = 2048usize;
    let host = signal(n);
    let mut gpu = Gpu::new(DeviceSpec::gts8800());
    gpu.check_enable();
    let buf = gpu.mem_mut().alloc(n).unwrap();
    let s0 = gpu.stream_create();
    gpu.memcpy_h2d_async(s0, buf, 0, &host, 1, "h2d");
    let cfg = LaunchConfig::copy("scale", 4, 64);
    let total = 4 * 64;
    gpu.with_stream(s0, |g| {
        g.launch(&cfg, |t| {
            let mut i = t.gid();
            while i < n {
                let v = t.ld(buf, i);
                t.st(buf, i, v.scale(2.0));
                i += total;
            }
        })
    });
    let mut out = vec![Complex32::ZERO; n];
    gpu.memcpy_d2h_async(s0, buf, 0, &mut out, 1, "d2h");
    gpu.synchronize();
    let rep = gpu.check_report().unwrap();
    assert!(rep.clean(), "{rep}");
    assert!(rep.ops_tracked >= 3);
}
