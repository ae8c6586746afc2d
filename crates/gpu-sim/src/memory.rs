//! Simulated device (global) memory.
//!
//! Buffers live in a single virtual device address space so that the
//! coalescing rules — which depend on *byte addresses* and their alignment —
//! can be checked exactly as the hardware would. Allocations are 256-byte
//! aligned, the strictest alignment rule (c) requires, matching `cudaMalloc`
//! behaviour.
//!
//! All buffers hold interleaved single-precision complex values: the paper's
//! kernels are exclusively complex-to-complex, and an 8-byte element is
//! exactly the 64-bit coalescable word of rule (b).

use fft_math::Complex32;

use std::cell::RefCell;
use std::rc::Rc;

use crate::check::SharedChecker;
use crate::trace::{TraceEvent, Tracer};

/// Element size in bytes (interleaved complex32).
pub const ELEM_BYTES: u64 = 8;

/// Alignment of every allocation (rule (c)'s strictest boundary).
pub const ALLOC_ALIGN: u64 = 256;

/// Handle to a device buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

impl BufferId {
    /// The buffer's arena slot — the value checker diagnostics report in
    /// [`crate::AccessDiag::buffer`] and [`crate::HazardDiag::buffer`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Shared handle onto the arena's deferred-free queue.
///
/// RAII guards (e.g. a dropped FFT plan) cannot reach the arena through a
/// `&mut` borrow from their `Drop` impl, so they push their buffer ids here
/// instead; the arena treats queued buffers as free immediately (in
/// [`DeviceMemory::used_bytes`] and admission control) and physically
/// reclaims them on the next [`DeviceMemory::alloc`]/[`DeviceMemory::reclaim`].
pub type FreeQueue = Rc<RefCell<Vec<BufferId>>>;

/// One allocation. `len` is its logical size, charged in full against the
/// card's capacity; `data` backs only the prefix written so far, and every
/// element past it reads as zero. Host memory then follows what the device
/// writes, not what it allocates.
struct Buffer {
    base: u64,
    len: usize,
    data: Vec<Complex32>,
    live: bool,
}

impl Buffer {
    /// Panics unless `end <= len`, naming the buffer.
    #[inline]
    fn check_end(&self, id: BufferId, end: usize) {
        assert!(
            end <= self.len,
            "access to element {} of {id:?} out of bounds (len {})",
            end - 1,
            self.len
        );
    }

    /// Backs the prefix up to `end` (zero-filled), so `data[..end]` exists.
    #[inline]
    fn back_to(&mut self, end: usize) {
        if self.data.len() < end {
            self.data.resize(end, Complex32::ZERO);
        }
    }

    /// Element `idx`: zero past the backed prefix.
    #[inline]
    fn get(&self, id: BufferId, idx: usize) -> Complex32 {
        match self.data.get(idx) {
            Some(&v) => v,
            None => {
                self.check_end(id, idx + 1);
                Complex32::ZERO
            }
        }
    }
}

/// The device memory arena.
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
    next_base: u64,
    buffers: Vec<Buffer>,
    /// Buffers freed so far (recorded launches naming one are dropped).
    frees: u64,
    pending_free: FreeQueue,
    tracer: Option<Tracer>,
    checker: Option<SharedChecker>,
}

impl DeviceMemory {
    /// Creates an arena of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            next_base: ALLOC_ALIGN,
            buffers: Vec::new(),
            frees: 0,
            pending_free: Rc::new(RefCell::new(Vec::new())),
            tracer: None,
            checker: None,
        }
    }

    /// Attaches the validation checker (see [`crate::Gpu::check_enable`]):
    /// every buffer already live is registered with its history assumed
    /// initialised (no false positives for pre-checker data), and subsequent
    /// allocs/frees/uploads/writes update the shadow state.
    pub(crate) fn set_checker(&mut self, checker: Option<SharedChecker>) {
        if let Some(c) = &checker {
            let mut c = c.borrow_mut();
            for (i, b) in self.buffers.iter().enumerate() {
                if b.live {
                    c.on_alloc(BufferId(i), b.len, true);
                }
            }
        }
        self.checker = checker;
    }

    /// A handle onto the deferred-free queue, for RAII guards that release
    /// buffers from `Drop` (see [`FreeQueue`]).
    pub fn free_queue(&self) -> FreeQueue {
        self.pending_free.clone()
    }

    /// Physically frees every buffer queued on the deferred-free queue.
    /// Ids whose buffers were already freed explicitly are skipped.
    pub fn reclaim(&mut self) {
        let ids: Vec<BufferId> = self.pending_free.borrow_mut().drain(..).collect();
        for id in ids {
            if self.buffers[id.0].live {
                self.free(id);
            }
        }
    }

    /// Installs (or removes) the profiling tracer that timestamps
    /// [`TraceEvent::Alloc`]/[`TraceEvent::Free`] events. Wired up by
    /// [`crate::Gpu::set_sink`]; not usually called directly.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    /// Bytes currently allocated, not counting buffers already queued for
    /// deferred free (they are as good as free to new allocations).
    pub fn used_bytes(&self) -> u64 {
        let pending: u64 = self
            .pending_free
            .borrow()
            .iter()
            .filter(|id| self.buffers[id.0].live)
            .map(|id| self.buffers[id.0].len as u64 * ELEM_BYTES)
            .sum();
        self.used - pending
    }

    /// Host bytes backing buffer contents: the prefixes of the live buffers
    /// written so far. Compare with [`DeviceMemory::used_bytes`], the
    /// modelled card's charge.
    pub fn backed_bytes(&self) -> u64 {
        self.buffers
            .iter()
            .map(|b| b.data.len() as u64 * ELEM_BYTES)
            .sum()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Allocates a buffer of `len` complex elements.
    ///
    /// # Errors
    /// Returns `Err` when the allocation would exceed device capacity — the
    /// condition that forces the out-of-core path of §3.3.
    pub fn alloc(&mut self, len: usize) -> Result<BufferId, AllocError> {
        self.reclaim();
        let bytes = len as u64 * ELEM_BYTES;
        if self.used + bytes > self.capacity {
            return Err(AllocError {
                requested: bytes,
                free: self.capacity - self.used,
            });
        }
        let base = self.next_base;
        self.next_base += bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.used += bytes;
        self.buffers.push(Buffer {
            base,
            len,
            data: Vec::new(),
            live: true,
        });
        if let Some(t) = &self.tracer {
            t.emit(TraceEvent::Alloc {
                bytes,
                used_bytes: self.used,
                t_s: t.now(),
            });
        }
        let id = BufferId(self.buffers.len() - 1);
        if let Some(c) = &self.checker {
            // Fresh allocations are *uninitialised*: cudaMalloc makes no
            // content promise, even though the simulator reads zero.
            c.borrow_mut().on_alloc(id, len, false);
        }
        Ok(id)
    }

    /// Frees a buffer. The handle must not be reused.
    pub fn free(&mut self, id: BufferId) {
        let b = &mut self.buffers[id.0];
        assert!(b.live, "double free of {id:?}");
        b.live = false;
        self.frees += 1;
        let bytes = b.len as u64 * ELEM_BYTES;
        self.used -= bytes;
        // Later accesses through the stale handle are out of bounds.
        b.len = 0;
        b.data = Vec::new();
        if let Some(c) = &self.checker {
            c.borrow_mut().on_free(id);
        }
        if let Some(t) = &self.tracer {
            t.emit(TraceEvent::Free {
                bytes,
                used_bytes: self.used,
                t_s: t.now(),
            });
        }
    }

    /// Length of a buffer in elements.
    pub fn len(&self, id: BufferId) -> usize {
        let b = &self.buffers[id.0];
        assert!(b.live, "use after free of {id:?}");
        b.len
    }

    /// False once the buffer has been freed (a queued deferred free still
    /// counts as live until it is reclaimed).
    pub(crate) fn is_live(&self, id: BufferId) -> bool {
        self.buffers[id.0].live
    }

    /// Number of buffers freed so far.
    pub(crate) fn frees(&self) -> u64 {
        self.frees
    }

    /// True when no buffer is currently live (pending frees count as dead).
    pub fn is_empty(&self) -> bool {
        self.used_bytes() == 0
    }

    /// Device byte address of element `idx` of the buffer.
    #[inline]
    pub fn addr(&self, id: BufferId, idx: usize) -> u64 {
        self.buffers[id.0].base + idx as u64 * ELEM_BYTES
    }

    /// Reads an element (functional path). Elements never written read as
    /// zero.
    #[inline]
    pub fn read(&self, id: BufferId, idx: usize) -> Complex32 {
        self.buffers[id.0].get(id, idx)
    }

    /// Writes an element (functional path), backing the buffer up to it.
    #[inline]
    pub fn write(&mut self, id: BufferId, idx: usize, v: Complex32) {
        if let Some(c) = &self.checker {
            c.borrow_mut().on_write_elem(id, idx);
        }
        let b = &mut self.buffers[id.0];
        if idx >= b.data.len() {
            b.check_end(id, idx + 1);
            b.back_to(idx + 1);
        }
        b.data[idx] = v;
    }

    /// Host-side bulk copy into a buffer (the data plane of an H2D transfer).
    pub fn upload(&mut self, id: BufferId, offset: usize, host: &[Complex32]) {
        if let Some(c) = &self.checker {
            c.borrow_mut()
                .on_host_write_range(id, offset, offset + host.len());
        }
        let b = &mut self.buffers[id.0];
        assert!(b.live, "use after free");
        let end = offset + host.len();
        b.check_end(id, end);
        b.back_to(end);
        b.data[offset..end].copy_from_slice(host);
    }

    /// Host-side bulk copy out of a buffer (D2H).
    pub fn download(&self, id: BufferId, offset: usize, host: &mut [Complex32]) {
        let b = &self.buffers[id.0];
        assert!(b.live, "use after free");
        b.check_end(id, offset + host.len());
        Backed(&b.data).read(offset, host);
    }

    /// The two views a native executor moving data from `src` to a distinct
    /// `dst` works on: `src` as [`Backed`], and `dst[..dst_end]`, backed up
    /// to `dst_end` as the element-wise stores of a simulated launch writing
    /// that far would leave it. The checker does not see writes through
    /// this view (or [`DeviceMemory::backed_mut`]'s): native executors run
    /// only with it off.
    pub fn src_dst(
        &mut self,
        src: BufferId,
        dst: BufferId,
        dst_end: usize,
    ) -> (Backed<'_>, &mut [Complex32]) {
        assert_ne!(src, dst, "src_dst needs two distinct buffers");
        assert!(self.buffers[src.0].live, "use after free of {src:?}");
        let d = &mut self.buffers[dst.0];
        assert!(d.live, "use after free of {dst:?}");
        d.check_end(dst, dst_end);
        d.back_to(dst_end);
        let (s, d) = if src.0 < dst.0 {
            let (lo, hi) = self.buffers.split_at_mut(dst.0);
            (&lo[src.0], &mut hi[0])
        } else {
            let (lo, hi) = self.buffers.split_at_mut(src.0);
            (&hi[0], &mut lo[dst.0])
        };
        (Backed(&s.data), &mut d.data[..dst_end])
    }

    /// `id[..end]`, backed up to `end`: the view of a native executor that
    /// transforms a buffer in place.
    pub fn backed_mut(&mut self, id: BufferId, end: usize) -> &mut [Complex32] {
        let b = &mut self.buffers[id.0];
        assert!(b.live, "use after free of {id:?}");
        b.check_end(id, end);
        b.back_to(end);
        &mut b.data[..end]
    }

    /// Direct slice view for verification helpers (not a kernel path).
    /// Backs the whole buffer first.
    pub fn as_slice(&mut self, id: BufferId) -> &[Complex32] {
        let b = &mut self.buffers[id.0];
        assert!(b.live, "use after free");
        b.back_to(b.len);
        &b.data
    }

    /// Direct mutable view for device-side initialisation helpers, backing
    /// the whole buffer. The checker conservatively treats the whole buffer
    /// as initialised afterwards (it cannot see which elements the caller
    /// writes).
    pub fn as_mut_slice(&mut self, id: BufferId) -> &mut [Complex32] {
        if let Some(c) = &self.checker {
            c.borrow_mut().on_host_write_all(id);
        }
        let b = &mut self.buffers[id.0];
        assert!(b.live, "use after free");
        b.back_to(b.len);
        &mut b.data
    }
}

/// A buffer's contents as a native executor reads them: the backed prefix,
/// with every element past it reading as zero. It does not know the
/// buffer's length, so it suits only index sets a simulated launch has
/// already bounds-checked.
#[derive(Clone, Copy)]
pub struct Backed<'a>(&'a [Complex32]);

impl Backed<'_> {
    /// Element `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Complex32 {
        self.0.get(idx).copied().unwrap_or(Complex32::ZERO)
    }

    /// Copies the elements from `offset` on into `out`.
    pub fn read(&self, offset: usize, out: &mut [Complex32]) {
        let backed = self.0.get(offset..).unwrap_or_default();
        let n = backed.len().min(out.len());
        out[..n].copy_from_slice(&backed[..n]);
        out[n..].fill(Complex32::ZERO);
    }
}

/// Out-of-memory error carrying the sizes involved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes still free.
    pub free: u64,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device allocation of {} bytes exceeds free capacity of {} bytes",
            self.requested, self.free
        )
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::c32;

    #[test]
    fn alloc_and_rw() {
        let mut m = DeviceMemory::new(1 << 20);
        let b = m.alloc(100).unwrap();
        m.write(b, 42, c32(1.0, 2.0));
        assert_eq!(m.read(b, 42), c32(1.0, 2.0));
        assert_eq!(m.len(b), 100);
    }

    #[test]
    fn alignment_of_bases() {
        let mut m = DeviceMemory::new(1 << 20);
        let a = m.alloc(3).unwrap();
        let b = m.alloc(5).unwrap();
        assert_eq!(m.addr(a, 0) % ALLOC_ALIGN, 0);
        assert_eq!(m.addr(b, 0) % ALLOC_ALIGN, 0);
        assert_ne!(m.addr(a, 0), m.addr(b, 0));
    }

    #[test]
    fn address_arithmetic() {
        let mut m = DeviceMemory::new(1 << 20);
        let b = m.alloc(10).unwrap();
        assert_eq!(m.addr(b, 4) - m.addr(b, 0), 32);
    }

    #[test]
    fn capacity_enforced_like_a_512mb_card() {
        // 512 MB holds exactly four 256³ complex buffers (128 MiB each); the
        // out-of-place transform's two fit comfortably (§1), a fifth fails.
        let mut m = DeviceMemory::new(512 * 1024 * 1024);
        let n = 1usize << 24;
        for _ in 0..4 {
            m.alloc(n).unwrap();
        }
        let err = m.alloc(n).unwrap_err();
        assert_eq!(err.free, 0);
        assert_eq!(err.requested, 128 * 1024 * 1024);
    }

    #[test]
    fn free_returns_capacity() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(64).unwrap();
        assert_eq!(m.used_bytes(), 512);
        m.free(a);
        assert_eq!(m.used_bytes(), 0);
        let _b = m.alloc(128).unwrap();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(8).unwrap();
        m.free(a);
        m.free(a);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn use_after_free_panics() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(8).unwrap();
        m.free(a);
        let _ = m.len(a);
    }

    #[test]
    fn deferred_free_queue_reclaims_on_alloc() {
        let mut m = DeviceMemory::new(1024);
        let a = m.alloc(64).unwrap();
        assert_eq!(m.used_bytes(), 512);
        // A guard (no &mut access to the arena) queues the id…
        m.free_queue().borrow_mut().push(a);
        // …and the bytes immediately stop counting as used.
        assert_eq!(m.used_bytes(), 0);
        assert!(m.is_empty());
        // The next allocation physically reclaims them.
        let b = m.alloc(100).unwrap();
        assert_eq!(m.used_bytes(), 800);
        m.free(b);
        // Queued-then-explicitly-freed ids are skipped, not double freed.
        m.free_queue().borrow_mut().push(b);
        m.reclaim();
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut m = DeviceMemory::new(4096);
        let b = m.alloc(16).unwrap();
        let host: Vec<Complex32> = (0..8).map(|i| c32(i as f32, -1.0)).collect();
        m.upload(b, 4, &host);
        let mut back = vec![Complex32::ZERO; 8];
        m.download(b, 4, &mut back);
        assert_eq!(host, back);
        assert_eq!(m.read(b, 0), Complex32::ZERO);
    }

    #[test]
    fn fresh_buffers_read_zero() {
        let mut m = DeviceMemory::new(1 << 24);
        for len in [1, 1000, 1 << 20] {
            let b = m.alloc(len).unwrap();
            assert_eq!(m.read(b, len - 1), Complex32::ZERO);
            assert_eq!(m.backed_bytes(), 0, "reads back nothing");
            assert!(m.as_slice(b).iter().all(|&z| z == Complex32::ZERO));
            assert_eq!(m.backed_bytes(), len as u64 * ELEM_BYTES);
            m.free(b);
        }
    }
}
