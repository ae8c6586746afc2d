//! Allocation budget of the wire codec's per-frame path. Once a socket
//! buffer and a decoder have grown to the traffic's frame size, encoding a
//! frame into the buffer and decoding one from the decoder allocate
//! nothing: the body is written in place, and fields are read from the
//! decoder's token tape without building a tree of keys and strings.
//!
//! The counting allocator counts per thread, so tests running beside each
//! other do not see each other's allocations.

use fft_gate::proto::{Frame, FrameDecoder};
use fft_math::twiddle::Direction;
use fft_serve::{Priority, SeededSpec, Shape, TenantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocation calls (including reallocations) made by this thread.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain per-thread statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocation blocks `f` takes on this thread.
fn blocks<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (BLOCKS.with(Cell::get) - before, out)
}

/// A rows `Submit` as the paced benchmark client sends it, and the
/// gateway's `SubmitAck`.
fn frames() -> [Frame; 2] {
    [
        Frame::Submit {
            seq: 123_456,
            at_s: Some(12.345_678_901_234_567),
            next_s: Some(12.345_912_345_678_912),
            trace: Some(123_456),
            spec: SeededSpec {
                shape: Shape::Rows1d { n: 256, rows: 4 },
                direction: Direction::Forward,
                algorithm: None,
                priority: Priority::Normal,
                deadline_s: Some(0.002_5),
                tenant: TenantId(2),
                seed: 0x9e37_79b9_7f4a_7c15,
            },
        },
        Frame::SubmitAck {
            seq: 123_456,
            id: 123_457,
            trace: Some(123_456),
            recv_s: 0.731_592_653_589_793,
            enq_s: 0.731_598_765_432_1,
            ack_s: 0.731_601_234_567_89,
        },
    ]
}

#[test]
fn warm_encode_and_decode_stay_within_budget() {
    for frame in frames() {
        let mut out = Vec::new();
        let mut dec = FrameDecoder::new();
        let mut round = |out: &mut Vec<u8>| {
            out.clear();
            let (enc, ()) = blocks(|| frame.encode_into(out));
            let (dec, got) = blocks(|| {
                dec.feed(out);
                dec.next_frame()
            });
            assert_eq!(got, Ok(Some(frame.clone())), "round trip");
            (enc, dec)
        };
        // Warm-up: the buffer and the decoder grow to the frame's size.
        for _ in 0..3 {
            round(&mut out);
        }
        // The budget is zero blocks each way. Building the body as a
        // per-key tree took 42 blocks to encode the `Submit` and 23 the
        // `SubmitAck`; parsing into one took 28 and 8 to decode.
        for _ in 0..100 {
            let (enc, dec) = round(&mut out);
            assert_eq!(enc, 0, "{frame:?}: encode took {enc} blocks");
            assert_eq!(dec, 0, "{frame:?}: decode took {dec} blocks");
        }
        // A fresh `Frame::encode` is one block: the buffer it returns.
        let (fresh, bytes) = blocks(|| frame.encode());
        assert_eq!(fresh, 1, "{frame:?}: Frame::encode");
        assert_eq!(bytes, out);
    }
}
