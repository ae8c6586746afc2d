//! Functional kernel executor with coalescing/conflict instrumentation.
//!
//! Kernels run *functionally*: a Rust closure executes once per simulated
//! thread (or once per thread block for cooperative kernels) and really
//! reads/writes the simulated device memory, so numerical results are exact
//! and checkable. Performance is *modelled*: the executor counts every
//! element moved, samples the first few thread blocks at full address
//! fidelity to measure coalescing and bank behaviour with the real rules of
//! [`crate::coalesce`] and [`crate::shared`], and hands the aggregate to the
//! timing model.
//!
//! Grid-stride kernels hand the executor their work items
//! ([`Gpu::launch_items`], [`Gpu::launch_coop_items`]) instead of looping
//! themselves, and the executor runs them round-major: every thread's first
//! item, then every thread's second. Consecutive threads then sweep memory
//! together, as the paper's coalesced passes do, where a thread-major loop
//! would have each thread walk the whole buffer alone. The modelled numbers
//! do not depend on this order: each thread records its own accesses in
//! program order, whatever ran in between.
//!
//! A data-oblivious kernel's whole [`KernelReport`] depends only on its
//! launch shape and buffer addresses, not on the values it moves. Such a
//! kernel can go through [`Gpu::launch_replay`]: the first launch of a
//! shape is simulated and its counters recorded, and every later launch of
//! that shape moves the data with a plain native loop and reuses them. The
//! FFT kernels' native executors run eight rows at a time: they gather
//! rows into the lanes of a [`fft_math::lanes::C32x8`], run the same
//! generic arithmetic the simulated body runs on one `Complex32`, and
//! scatter the results back, so every lane's bits equal the simulated
//! row's.
//!
//! Half-warp grouping relies on the kernels being lane-uniform (every thread
//! of a half-warp performs the same sequence of access *ordinals*), which
//! holds for all SIMD-style FFT kernels here; the analysis asserts the
//! weaker prefix property it needs.

use crate::check::{CheckReport, CheckState, SharedChecker};
use crate::coalesce;
use crate::constmem::{serialization_penalty, ConstantBank};
use crate::dram::DRAM_ROW_BYTES;
use crate::memory::{BufferId, DeviceMemory, ELEM_BYTES};
use crate::occupancy::{occupancy, KernelResources, Occupancy};
use crate::pcie::{transfer_time, Dir, PcieTimeline, TransferReport};
use crate::shared::{accumulate_bank_conflicts, SharedMem, MAX_LANES};
use crate::spec::DeviceSpec;
use crate::stream::{EventId, StreamEngine, StreamId};
use crate::timing::{time_kernel, KernelClass, KernelTiming};
use crate::trace::{Recorder, SharedSink, SimClock, TraceEvent, Tracer};
use fft_math::layout::AccessPattern;
use fft_math::Complex32;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// How many thread blocks are traced at full address fidelity.
pub const DEFAULT_TRACE_BLOCKS: usize = 2;

/// Handle to a bound texture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TextureId(usize);

/// Handle to a bound constant-memory table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstId(usize);

/// How a texture is accessed, for the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TexAccess {
    /// Small, cache-resident table (twiddle factors): effectively free
    /// bandwidth, served from the per-SM texture cache.
    Cached,
    /// Large strided working-set reads (the Table 9 texture-exchange
    /// variant): roughly half the coalesced copy bandwidth.
    Strided,
}

struct Texture {
    data: Vec<Complex32>,
    access: TexAccess,
}

/// Launch-time description of a kernel, consumed by the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Kernel name for reports.
    pub name: &'static str,
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Per-block resource demands (drives occupancy).
    pub resources: KernelResources,
    /// Timing class (compute-efficiency family).
    pub class: KernelClass,
    /// Global-memory read pattern (Table 2 classification).
    pub read_pattern: AccessPattern,
    /// Global-memory write pattern.
    pub write_pattern: AccessPattern,
    /// Reads and writes hit the same buffer.
    pub in_place: bool,
    /// Nominal FLOPs (the `5 N log2 N` convention) this launch performs.
    pub nominal_flops: u64,
    /// Concurrent-stream count for `Transpose`-class kernels (drives the
    /// §2.1 stream decay); ignored by other classes.
    pub streams: usize,
}

impl LaunchConfig {
    /// A sensible default: copy-class, contiguous, no flops.
    pub fn copy(name: &'static str, grid_blocks: usize, threads_per_block: usize) -> Self {
        LaunchConfig {
            name,
            grid_blocks,
            resources: KernelResources {
                threads_per_block,
                regs_per_thread: 16,
                shared_bytes_per_block: 0,
            },
            class: KernelClass::Copy,
            read_pattern: AccessPattern::X,
            write_pattern: AccessPattern::X,
            in_place: false,
            nominal_flops: 0,
            streams: 1,
        }
    }
}

/// Aggregate counters of one kernel launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Global loads (elements).
    pub loads: u64,
    /// Global stores (elements).
    pub stores: u64,
    /// Texture reads (elements).
    pub tex_reads_cached: u64,
    /// Texture reads through a strided (uncached-working-set) texture.
    pub tex_reads_strided: u64,
    /// Executed FLOPs charged by the kernel body.
    pub flops: u64,
    /// Shared-memory word reads.
    pub shared_reads: u64,
    /// Shared-memory word writes.
    pub shared_writes: u64,
    /// Synchronisation hazards detected in shared memory.
    pub shared_races: u64,
    /// Sampled useful bytes (loads).
    pub sampled_load_useful: u64,
    /// Sampled bus bytes (loads).
    pub sampled_load_bus: u64,
    /// Sampled useful bytes (stores).
    pub sampled_store_useful: u64,
    /// Sampled bus bytes (stores).
    pub sampled_store_bus: u64,
    /// Sampled half-warp load ops that coalesced.
    pub sampled_load_coalesced: u64,
    /// Sampled half-warp load ops total.
    pub sampled_load_halfwarps: u64,
    /// Sampled half-warp store ops that coalesced.
    pub sampled_store_coalesced: u64,
    /// Sampled half-warp store ops total.
    pub sampled_store_halfwarps: u64,
    /// Sampled shared-memory half-warp ops.
    pub sampled_shared_halfwarps: u64,
    /// Sampled extra serialisation cycles from bank conflicts.
    pub sampled_shared_conflict_cycles: u64,
    /// Constant-memory reads (elements).
    pub const_reads: u64,
    /// Sampled constant half-warp fetches.
    pub sampled_const_halfwarps: u64,
    /// Sampled extra serialisation cycles from divergent constant fetches
    /// (§3.2: "the constant memory provides only a 32-bit data in each
    /// cycle").
    pub sampled_const_serial_cycles: u64,
    /// Sampled DRAM transaction-size histogram over loads and stores
    /// (32/64/128/256-byte buckets, [`crate::trace::TX_BUCKET_BYTES`]).
    pub sampled_tx_hist: [u64; 4],
    /// Sampled per-bank shared-memory conflict heatmap (extra serialisation
    /// cycles attributed to each bank); empty when no shared traffic was
    /// sampled.
    pub bank_conflicts: Vec<u64>,
    /// Sampled inter-access half-warp stride histogram for loads: for each
    /// traced half-warp, the distance in bytes between the base addresses of
    /// consecutive load ordinals, as sorted `(stride_bytes, count)` pairs
    /// (zero strides excluded). This is the raw signal the access-pattern
    /// classifier ([`crate::analysis`]) maps onto the paper's Table 2
    /// classes.
    pub sampled_load_strides: Vec<(u64, u64)>,
    /// Sampled inter-access half-warp stride histogram for stores.
    pub sampled_store_strides: Vec<(u64, u64)>,
    /// Distinct [`crate::dram::DRAM_ROW_BYTES`]-sized device-memory rows
    /// touched by sampled loads (footprint granularity of the classifier's
    /// row-density signal).
    pub sampled_load_rows: u64,
    /// Distinct DRAM rows touched by sampled stores.
    pub sampled_store_rows: u64,
}

impl KernelStats {
    /// Bytes of useful global load traffic.
    pub fn load_bytes(&self) -> u64 {
        self.loads * ELEM_BYTES
    }

    /// Bytes of useful global store traffic.
    pub fn store_bytes(&self) -> u64 {
        self.stores * ELEM_BYTES
    }

    /// Useful/bus ratio measured on sampled loads (1.0 when nothing sampled).
    pub fn load_coalesce_efficiency(&self) -> f64 {
        if self.sampled_load_bus == 0 {
            1.0
        } else {
            self.sampled_load_useful as f64 / self.sampled_load_bus as f64
        }
    }

    /// Useful/bus ratio measured on sampled stores.
    pub fn store_coalesce_efficiency(&self) -> f64 {
        if self.sampled_store_bus == 0 {
            1.0
        } else {
            self.sampled_store_useful as f64 / self.sampled_store_bus as f64
        }
    }

    /// Traffic-weighted overall coalescing efficiency.
    pub fn coalesce_efficiency(&self) -> f64 {
        let bus = self.sampled_load_bus + self.sampled_store_bus;
        if bus == 0 {
            1.0
        } else {
            (self.sampled_load_useful + self.sampled_store_useful) as f64 / bus as f64
        }
    }

    /// Fraction of sampled half-warp ops that coalesced.
    pub fn coalesced_fraction(&self) -> f64 {
        let total = self.sampled_load_halfwarps + self.sampled_store_halfwarps;
        if total == 0 {
            1.0
        } else {
            (self.sampled_load_coalesced + self.sampled_store_coalesced) as f64 / total as f64
        }
    }

    /// Mean extra cycles per sampled shared half-warp op (0 = conflict-free).
    pub fn shared_conflict_rate(&self) -> f64 {
        if self.sampled_shared_halfwarps == 0 {
            0.0
        } else {
            self.sampled_shared_conflict_cycles as f64 / self.sampled_shared_halfwarps as f64
        }
    }

    /// Mean extra cycles per sampled constant-memory half-warp fetch.
    pub fn const_serial_rate(&self) -> f64 {
        if self.sampled_const_halfwarps == 0 {
            0.0
        } else {
            self.sampled_const_serial_cycles as f64 / self.sampled_const_halfwarps as f64
        }
    }
}

/// Full result of one launch: counters, occupancy and modelled timing.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelReport {
    /// Kernel name.
    pub name: &'static str,
    /// Aggregate counters.
    pub stats: KernelStats,
    /// Occupancy achieved.
    pub occupancy: Occupancy,
    /// Modelled timing.
    pub timing: KernelTiming,
}

// ---------------------------------------------------------------------------
// Trace machinery
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ThreadTrace {
    loads: Vec<u64>,
    stores: Vec<u64>,
    shared: Vec<usize>,
    consts: Vec<usize>,
}

/// Entries per access stream a pooled trace keeps storage for: a small
/// launch reuses its trace outright, and a large one gives back what it grew.
const TRACE_KEEP: usize = 256;

#[derive(Default)]
struct BlockTrace {
    threads: Vec<ThreadTrace>,
    /// Base address of the last analysed load and store ordinal, per
    /// half-warp: the stride sample spans analysis calls.
    prev_bases: Vec<[Option<u64>; 2]>,
}

/// Scratch for the access-pattern samples of one launch: half-warp strides
/// and touched DRAM rows from every traced block, kept as flat lists and
/// sorted and run-length-folded into [`KernelStats`] once at the end, so the
/// result does not depend on the order blocks were analysed in. The device
/// keeps one across launches so the lists' storage is reused.
#[derive(Default)]
struct SampleAccum {
    load_strides: Vec<u64>,
    store_strides: Vec<u64>,
    load_rows: Vec<u64>,
    store_rows: Vec<u64>,
}

impl SampleAccum {
    /// Folds the lists into `stats` and empties them for the next launch.
    fn fold_into(&mut self, stats: &mut KernelStats) {
        stats.sampled_load_strides = run_lengths(&mut self.load_strides);
        stats.sampled_store_strides = run_lengths(&mut self.store_strides);
        stats.sampled_load_rows = distinct(&mut self.load_rows);
        stats.sampled_store_rows = distinct(&mut self.store_rows);
        self.load_strides.clear();
        self.store_strides.clear();
        self.load_rows.clear();
        self.store_rows.clear();
    }
}

/// Per-block launch state retired by earlier launches, kept by the device so
/// a launch reuses storage instead of allocating it per block. Everything
/// handed out is reset to its fresh state first, so no launch sees another's
/// traces, shared contents, race provenance or counters.
#[derive(Default)]
struct BlockPool {
    /// Traces of the traced blocks (the first `trace_blocks` of a grid).
    traces: Vec<BlockTrace>,
    /// Retired shared memories.
    shared: Vec<SharedMem>,
    /// A cooperative launch's blocks between their first and last item.
    live: Vec<Option<SharedMem>>,
}

/// Fresh traces for blocks `0..n` of `threads` threads each, taken from
/// the pool's `traces`.
fn fresh_traces(
    traces: &mut Vec<BlockTrace>,
    n: usize,
    threads: usize,
    half_warp: usize,
) -> &mut [BlockTrace] {
    if traces.len() < n {
        traces.resize_with(n, BlockTrace::default);
    }
    let traces = &mut traces[..n];
    for bt in traces.iter_mut() {
        bt.reset(threads, half_warp);
    }
    traces
}

/// Sorted `(value, count)` histogram of `v`.
fn run_lengths(v: &mut [u64]) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u64))
        .collect()
}

/// Number of distinct values in `v`.
fn distinct(v: &mut Vec<u64>) -> u64 {
    v.sort_unstable();
    v.dedup();
    v.len() as u64
}

/// Records one half-warp access (all lanes of one ordinal) into the sample
/// accumulators: the jump from the previous ordinal's base address feeds the
/// stride list, and every touched DRAM row feeds the footprint list (a row
/// repeated by consecutive lanes is listed once).
fn sample_halfwarp(
    addrs: &[u64],
    prev_base: &mut Option<u64>,
    strides: &mut Vec<u64>,
    rows: &mut Vec<u64>,
) {
    let Some(&base) = addrs.iter().min() else {
        return;
    };
    if let Some(p) = *prev_base {
        let d = base.abs_diff(p);
        if d > 0 {
            strides.push(d);
        }
    }
    *prev_base = Some(base);
    for &a in addrs {
        let row = a / DRAM_ROW_BYTES;
        if rows.last() != Some(&row) {
            rows.push(row);
        }
    }
}

impl BlockTrace {
    /// Readies the trace for a fresh block of `threads` threads: every
    /// stream emptied (its storage kept) and no stride sample carried over.
    fn reset(&mut self, threads: usize, half_warp: usize) {
        self.threads.resize_with(threads, ThreadTrace::default);
        for t in &mut self.threads {
            t.loads.clear();
            t.stores.clear();
            t.shared.clear();
            t.consts.clear();
        }
        self.prev_bases.clear();
        self.prev_bases
            .resize(threads.div_ceil(half_warp), [None; 2]);
    }

    /// Frees every stream that grew past [`TRACE_KEEP`] entries, so the
    /// pool does not hold a large launch's trace memory between launches.
    /// (Freeing, not shrinking, lets the allocator return the memory
    /// instead of stranding it behind the shrunk remainders.)
    fn trim(&mut self) {
        fn release<T>(v: &mut Vec<T>) {
            if v.capacity() > TRACE_KEEP {
                *v = Vec::new();
            }
        }
        for t in &mut self.threads {
            release(&mut t.loads);
            release(&mut t.stores);
            release(&mut t.shared);
            release(&mut t.consts);
        }
    }

    /// Folds this block's trace into the aggregate stats using the real
    /// coalescing and bank-conflict rules, and feeds the access-pattern
    /// sample accumulators.
    ///
    /// Analysed ordinals are dropped from the trace, so a block running many
    /// items can be analysed after each one: until `done`, only ordinals
    /// every lane of a half-warp has issued are taken (a lane that issues
    /// more later could still join a later ordinal), which leaves every
    /// half-warp op exactly as one analysis of the whole stream would see it.
    fn analyze(
        &mut self,
        half_warp: usize,
        banks: usize,
        stats: &mut KernelStats,
        samples: &mut SampleAccum,
        done: bool,
    ) {
        assert!(
            half_warp <= MAX_LANES,
            "half-warp of {half_warp} lanes exceeds {MAX_LANES}"
        );
        for (hw, [prev_load_base, prev_store_base]) in
            self.threads.chunks_mut(half_warp).zip(&mut self.prev_bases)
        {
            drain_ordinals(
                hw,
                |t| &mut t.loads,
                done,
                |addrs| {
                    let r = coalesce::analyze(addrs, ELEM_BYTES as u32);
                    coalesce::accumulate_tx_histogram(
                        &r,
                        ELEM_BYTES as u32,
                        &mut stats.sampled_tx_hist,
                    );
                    stats.sampled_load_useful += r.useful_bytes;
                    stats.sampled_load_bus += r.bus_bytes;
                    stats.sampled_load_halfwarps += 1;
                    if r.coalesced {
                        stats.sampled_load_coalesced += 1;
                    }
                    sample_halfwarp(
                        addrs,
                        prev_load_base,
                        &mut samples.load_strides,
                        &mut samples.load_rows,
                    );
                },
            );
            drain_ordinals(
                hw,
                |t| &mut t.stores,
                done,
                |addrs| {
                    let r = coalesce::analyze(addrs, ELEM_BYTES as u32);
                    coalesce::accumulate_tx_histogram(
                        &r,
                        ELEM_BYTES as u32,
                        &mut stats.sampled_tx_hist,
                    );
                    stats.sampled_store_useful += r.useful_bytes;
                    stats.sampled_store_bus += r.bus_bytes;
                    stats.sampled_store_halfwarps += 1;
                    if r.coalesced {
                        stats.sampled_store_coalesced += 1;
                    }
                    sample_halfwarp(
                        addrs,
                        prev_store_base,
                        &mut samples.store_strides,
                        &mut samples.store_rows,
                    );
                },
            );
            // Shared-memory bank analysis (usize word indices).
            drain_ordinals(
                hw,
                |t| &mut t.shared,
                done,
                |words| {
                    stats.sampled_shared_halfwarps += 1;
                    stats.sampled_shared_conflict_cycles +=
                        (accumulate_bank_conflicts(words, banks, &mut stats.bank_conflicts) - 1)
                            as u64;
                },
            );
            // Constant-memory broadcast analysis.
            drain_ordinals(
                hw,
                |t| &mut t.consts,
                done,
                |idx| {
                    stats.sampled_const_halfwarps += 1;
                    stats.sampled_const_serial_cycles += serialization_penalty(idx) as u64;
                },
            );
        }
    }
}

/// Calls `sink` once per access ordinal of a half-warp with the lanes that
/// issued it, gathered on the stack, then drops those ordinals from every
/// lane. Takes every ordinal when `done`, otherwise only those all lanes
/// have issued. Lane activity must be a prefix: a lane without an access at
/// ordinal `o` is followed only by lanes without one.
fn drain_ordinals<T: Copy + Default>(
    hw: &mut [ThreadTrace],
    select: impl Fn(&mut ThreadTrace) -> &mut Vec<T>,
    done: bool,
    mut sink: impl FnMut(&[T]),
) {
    let lens = hw.iter_mut().map(|t| select(t).len());
    let end = if done { lens.max() } else { lens.min() }.unwrap_or(0);
    let mut lanes = [T::default(); MAX_LANES];
    for o in 0..end {
        let mut n = 0;
        for t in hw.iter_mut() {
            let Some(&v) = select(t).get(o) else { break };
            lanes[n] = v;
            n += 1;
        }
        debug_assert!(
            hw[n..].iter_mut().all(|t| select(t).len() <= o),
            "non-prefix lane activity in trace"
        );
        sink(&lanes[..n]);
    }
    for t in hw.iter_mut() {
        let v = select(t);
        v.drain(..end.min(v.len()));
    }
}

/// What a recorded launch's report depends on besides the device: the
/// configuration, the traced-block count, the base address of every buffer
/// the kernel names and the caller's shape words.
#[derive(PartialEq, Eq, Hash)]
struct ReplayKey {
    cfg: LaunchConfig,
    trace_blocks: usize,
    bases: Vec<u64>,
    shape: Vec<u64>,
}

/// A recorded launch: the buffers it named and the counters it measured.
struct Recorded {
    bufs: Vec<BufferId>,
    stats: KernelStats,
}

/// The launches [`Gpu::launch_replay`] has recorded.
#[derive(Default)]
struct ReplayTable {
    entries: HashMap<ReplayKey, Recorded>,
    /// [`DeviceMemory::frees`] when entries naming a freed buffer were last
    /// dropped.
    frees_seen: u64,
}

/// The bound textures, as a native executor of [`Gpu::launch_replay`]
/// reads them.
#[derive(Clone, Copy)]
pub struct Textures<'a>(&'a [Texture]);

impl<'a> Textures<'a> {
    /// The contents of a bound texture.
    pub fn data(&self, tex: TextureId) -> &'a [Complex32] {
        &self.0[tex.0].data
    }
}

// ---------------------------------------------------------------------------
// Thread / block contexts
// ---------------------------------------------------------------------------

/// Per-thread view handed to kernel bodies.
pub struct ThreadCtx<'a> {
    mem: &'a mut DeviceMemory,
    textures: &'a [Texture],
    constants: &'a mut [ConstantBank],
    shared: Option<&'a mut SharedMem>,
    stats: &'a mut KernelStats,
    trace: Option<&'a mut ThreadTrace>,
    kernel: &'static str,
    checker: Option<&'a RefCell<CheckState>>,
    /// Block index in the grid.
    pub block: usize,
    /// Thread index within the block.
    pub tid: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Blocks in the grid.
    pub grid_dim: usize,
}

impl<'a> ThreadCtx<'a> {
    /// Global thread id (`block * block_dim + tid`).
    #[inline]
    pub fn gid(&self) -> usize {
        self.block * self.block_dim + self.tid
    }

    /// Total threads in the grid (the grid-stride step).
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.grid_dim * self.block_dim
    }

    /// Global-memory load of one complex element.
    ///
    /// Under the checker ([`Gpu::check_enable`]) the access is validated
    /// first; a load that would leave the allocation (out-of-bounds or
    /// use-after-free) is diagnosed and returns zero instead of aborting
    /// the simulation, so one bad kernel can be fully reported.
    #[inline]
    pub fn ld(&mut self, buf: BufferId, idx: usize) -> Complex32 {
        self.stats.loads += 1;
        let addr = self.mem.addr(buf, idx);
        if let Some(t) = self.trace.as_deref_mut() {
            t.loads.push(addr);
        }
        if let Some(chk) = self.checker {
            let ok = chk.borrow_mut().check_access(
                self.kernel,
                buf,
                idx,
                addr,
                false,
                self.block,
                self.tid,
            );
            if !ok {
                return Complex32::ZERO;
            }
        }
        self.mem.read(buf, idx)
    }

    /// Global-memory store of one complex element.
    ///
    /// Under the checker, a store that would leave the allocation is
    /// diagnosed and suppressed (see [`ThreadCtx::ld`]).
    #[inline]
    pub fn st(&mut self, buf: BufferId, idx: usize, v: Complex32) {
        self.stats.stores += 1;
        let addr = self.mem.addr(buf, idx);
        if let Some(t) = self.trace.as_deref_mut() {
            t.stores.push(addr);
        }
        if let Some(chk) = self.checker {
            let ok = chk.borrow_mut().check_access(
                self.kernel,
                buf,
                idx,
                addr,
                true,
                self.block,
                self.tid,
            );
            if !ok {
                return;
            }
        }
        self.mem.write(buf, idx, v);
    }

    /// Texture fetch (read-only path, bypasses coalescing rules).
    #[inline]
    pub fn tex1d(&mut self, tex: TextureId, idx: usize) -> Complex32 {
        let t = &self.textures[tex.0];
        match t.access {
            TexAccess::Cached => self.stats.tex_reads_cached += 1,
            TexAccess::Strided => self.stats.tex_reads_strided += 1,
        }
        t.data[idx]
    }

    /// Constant-memory fetch (§3.2 option 2): broadcasts when the half-warp
    /// agrees on the index, serialises otherwise.
    #[inline]
    pub fn const_ld(&mut self, bank: ConstId, idx: usize) -> Complex32 {
        self.stats.const_reads += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.consts.push(idx);
        }
        self.constants[bank.0].read(idx)
    }

    /// Charges executed floating-point operations to the launch.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.stats.flops += n;
    }

    /// Shared-memory 32-bit read (cooperative kernels only).
    #[inline]
    pub fn sh_read(&mut self, word: usize) -> f32 {
        let kernel = self.kernel;
        let sh = self
            .shared
            .as_deref_mut()
            .unwrap_or_else(|| panic!("kernel '{kernel}' has no shared memory"));
        self.stats.shared_reads += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.shared.push(word);
        }
        sh.read(self.tid as u32, word)
    }

    /// Shared-memory 32-bit write (cooperative kernels only).
    #[inline]
    pub fn sh_write(&mut self, word: usize, v: f32) {
        let kernel = self.kernel;
        let sh = self
            .shared
            .as_deref_mut()
            .unwrap_or_else(|| panic!("kernel '{kernel}' has no shared memory"));
        self.stats.shared_writes += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.shared.push(word);
        }
        sh.write(self.tid as u32, word, v);
    }
}

/// Per-block view for cooperative (shared-memory) kernels.
pub struct BlockCtx<'a> {
    mem: &'a mut DeviceMemory,
    textures: &'a [Texture],
    constants: &'a mut [ConstantBank],
    shared: &'a mut SharedMem,
    stats: &'a mut KernelStats,
    trace: Option<&'a mut BlockTrace>,
    kernel: &'static str,
    checker: Option<&'a RefCell<CheckState>>,
    /// Block index.
    pub block: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Blocks in the grid.
    pub grid_dim: usize,
}

impl<'a> BlockCtx<'a> {
    /// Runs one execution phase: `f(tid, ctx)` for every thread of the block.
    ///
    /// Consecutive `threads` calls are separated by an implicit
    /// `__syncthreads()` only if [`BlockCtx::sync`] is called between them —
    /// omitting it lets the race detector fire, just like real hardware.
    pub fn threads(&mut self, mut f: impl FnMut(usize, &mut ThreadCtx)) {
        for tid in 0..self.block_dim {
            let trace = self.trace.as_deref_mut().map(|bt| &mut bt.threads[tid]);
            let mut ctx = ThreadCtx {
                mem: self.mem,
                textures: self.textures,
                constants: self.constants,
                shared: Some(self.shared),
                stats: self.stats,
                trace,
                kernel: self.kernel,
                checker: self.checker,
                block: self.block,
                tid,
                block_dim: self.block_dim,
                grid_dim: self.grid_dim,
            };
            f(tid, &mut ctx);
        }
    }

    /// `__syncthreads()`.
    pub fn sync(&mut self) {
        self.shared.barrier();
    }
}

// ---------------------------------------------------------------------------
// The GPU
// ---------------------------------------------------------------------------

/// A simulated CUDA GPU: device memory + textures + the kernel executor.
///
/// ```
/// use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};
/// use fft_math::c32;
///
/// let mut gpu = Gpu::new(DeviceSpec::gts8800());
/// let src = gpu.mem_mut().alloc(256).unwrap();
/// let dst = gpu.mem_mut().alloc(256).unwrap();
/// for i in 0..256 {
///     gpu.mem_mut().write(src, i, c32(i as f32, 0.0));
/// }
///
/// // A grid-stride copy kernel: 2 blocks of 64 threads, two items each.
/// let cfg = LaunchConfig::copy("copy", 2, 64);
/// let report = gpu.launch_items(&cfg, 256, |t, i| {
///     let v = t.ld(src, i);
///     t.st(dst, i, v);
/// });
///
/// assert_eq!(gpu.mem().read(dst, 42), c32(42.0, 0.0));
/// assert!(report.stats.coalesced_fraction() > 0.999); // and it coalesced
/// ```
pub struct Gpu {
    spec: DeviceSpec,
    mem: DeviceMemory,
    textures: Vec<Texture>,
    constants: Vec<ConstantBank>,
    /// Blocks traced at full fidelity per launch.
    pub trace_blocks: usize,
    /// Monotonic simulated time, shared with the memory arena's tracer.
    clock: SimClock,
    /// The single PCIe link's busy window.
    pcie_link: PcieTimeline,
    /// Stream scheduler state (compute engine, copy engines, stream queues).
    streams: StreamEngine,
    /// Stream that plain `launch`/`span` calls are routed to, if any.
    active_stream: Option<StreamId>,
    /// Installed profiling sink, if any.
    sink: Option<SharedSink>,
    /// Opt-in memcheck/racecheck state (see [`crate::check`]), if enabled.
    checker: Option<SharedChecker>,
    /// Sample scratch reused by every launch (see [`SampleAccum`]).
    samples: SampleAccum,
    /// Block state reused by every launch (see [`BlockPool`]).
    pool: BlockPool,
    /// Launches recorded by [`Gpu::launch_replay`].
    replays: ReplayTable,
    /// Kernel launches so far, and how many of them were replayed.
    launches: u64,
    replayed: u64,
}

impl Gpu {
    /// Brings up a device of the given specification.
    pub fn new(spec: DeviceSpec) -> Self {
        let mem = DeviceMemory::new(spec.memory_bytes);
        Gpu {
            spec,
            mem,
            textures: Vec::new(),
            constants: Vec::new(),
            trace_blocks: DEFAULT_TRACE_BLOCKS,
            clock: Rc::new(Cell::new(0.0)),
            pcie_link: PcieTimeline::default(),
            streams: StreamEngine::default(),
            active_stream: None,
            sink: None,
            checker: None,
            samples: SampleAccum::default(),
            pool: BlockPool::default(),
            replays: ReplayTable::default(),
            launches: 0,
            replayed: 0,
        }
    }

    /// Turns on the cuda-memcheck/racecheck-style validation layer
    /// ([`crate::check`]): every subsequent kernel global access is checked
    /// against shadow memory, and kernels plus async stream memcpys are
    /// recorded for the hazard replay of [`Gpu::check_report`]. Buffers
    /// already allocated are assumed fully initialised (their history is
    /// unknown); buffers allocated afterwards must be written by an upload
    /// or kernel store before they are read. Idempotent.
    pub fn check_enable(&mut self) {
        if self.checker.is_some() {
            return;
        }
        let state = Rc::new(RefCell::new(CheckState::new(
            self.mem.free_queue(),
            self.spec.arch.half_warp,
        )));
        self.mem.set_checker(Some(state.clone()));
        self.checker = Some(state);
    }

    /// Replays the recorded interval timelines and returns the accumulated
    /// diagnostics. `None` when [`Gpu::check_enable`] was never called.
    pub fn check_report(&self) -> Option<CheckReport> {
        self.checker.as_ref().map(|c| c.borrow().report())
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Installs a profiling sink: every subsequent launch, transfer and
    /// allocation emits [`TraceEvent`]s timestamped with the simulated clock.
    pub fn set_sink(&mut self, sink: SharedSink) {
        let tracer = Tracer::new(sink.clone(), self.clock.clone());
        self.mem.set_tracer(Some(tracer));
        self.sink = Some(sink);
    }

    /// Removes the installed sink (tracing returns to zero overhead).
    pub fn clear_sink(&mut self) {
        self.mem.set_tracer(None);
        self.sink = None;
    }

    /// Convenience: installs a fresh [`Recorder`] and returns its handle;
    /// take the [`crate::trace::Trace`] out of it when the run completes.
    pub fn install_recorder(&mut self) -> Rc<RefCell<Recorder>> {
        let rec = Recorder::shared();
        self.set_sink(rec.clone());
        rec
    }

    /// True when a profiling sink is installed.
    pub fn is_tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Current simulated time, seconds. Advances by the modelled duration of
    /// every kernel launch and synchronous PCIe transfer.
    pub fn clock_s(&self) -> f64 {
        self.clock.get()
    }

    /// Advances the compute timeline to at least `t_s` (used to wait for an
    /// asynchronous transfer's completion time before consuming its data).
    pub fn wait_until(&mut self, t_s: f64) {
        if t_s > self.clock.get() {
            self.clock.set(t_s);
        }
    }

    /// Waits for every queued PCIe transfer to complete.
    pub fn pcie_sync(&mut self) {
        let t = self.pcie_link.busy_until_s();
        self.wait_until(t);
    }

    // -- CUDA-style streams and events (see [`crate::stream`]) --------------

    /// Creates a new stream: an in-order queue whose work may overlap other
    /// streams' work per the engine model (one compute engine per device,
    /// one copy engine per PCIe direction).
    pub fn stream_create(&mut self) -> StreamId {
        self.streams.create_stream()
    }

    /// Completion time of everything issued to `stream` so far, seconds.
    pub fn stream_ready_s(&self, stream: StreamId) -> f64 {
        self.streams.ready_s(stream)
    }

    /// Cumulative seconds the compute engine has executed kernels — stream
    /// and synchronous launches alike. Dividing by the elapsed makespan
    /// gives the device's compute utilization; external schedulers (the
    /// serving layer) use this to report per-card busy fractions.
    pub fn compute_busy_s(&self) -> f64 {
        self.streams.compute_busy_s
    }

    /// Cumulative busy seconds of the stream copy engines, `(H2D, D2H)`.
    /// Only stream memcpys count; the legacy synchronous PCIe link keeps
    /// its own timeline.
    pub fn copy_busy_s(&self) -> (f64, f64) {
        (
            self.streams.copy_busy_s(Dir::H2D),
            self.streams.copy_busy_s(Dir::D2H),
        )
    }

    /// Read-only probe of when the legacy synchronous PCIe link drains its
    /// queued transfers. Unlike [`Gpu::pcie_sync`] this does not advance the
    /// host clock — attribution ledgers use it to split "waiting for the
    /// link" from "moving the bytes" without perturbing the schedule.
    pub fn pcie_busy_until_s(&self) -> f64 {
        self.pcie_link.busy_until_s()
    }

    /// Read-only probe of when the stream copy engine for `dir` drains its
    /// queued memcpys. The engine model starts a stream copy at
    /// `max(stream ready, engine free, host clock)`; exposing the engine
    /// term lets observers reconstruct that start time before issue.
    pub fn copy_engine_free_s(&self, dir: Dir) -> f64 {
        self.streams.copy_free_s(dir)
    }

    /// Runs `f` with `stream` active, so existing plan code (whole kernel
    /// sequences) schedules onto the stream without threading a parameter
    /// through every call. Restores the previous active stream afterwards.
    pub fn with_stream<R>(&mut self, stream: StreamId, f: impl FnOnce(&mut Gpu) -> R) -> R {
        let prev = self.active_stream;
        self.active_stream = Some(stream);
        let out = f(self);
        self.active_stream = prev;
        out
    }

    /// Async host-to-device copy on `stream`: uploads `host` into `buf` at
    /// `offset` (functionally at issue, in program order) and schedules the
    /// transfer window on the H2D copy engine. Returns the report and the
    /// completion time.
    pub fn memcpy_h2d_async(
        &mut self,
        stream: StreamId,
        buf: BufferId,
        offset: usize,
        host: &[Complex32],
        chunks: usize,
        label: &str,
    ) -> (TransferReport, f64) {
        self.mem.upload(buf, offset, host);
        let (rep, start_s, end_s) = self.stream_copy(
            stream,
            Dir::H2D,
            (host.len() as u64) * ELEM_BYTES,
            chunks,
            label,
        );
        if let Some(c) = &self.checker {
            c.borrow_mut().record_copy(
                label,
                stream.0,
                buf,
                offset,
                offset + host.len(),
                true,
                start_s,
                end_s,
            );
        }
        (rep, end_s)
    }

    /// Async device-to-host copy on `stream`: downloads from `buf` at
    /// `offset` into `host` (functionally at issue, in program order) and
    /// schedules the transfer window on the D2H copy engine.
    pub fn memcpy_d2h_async(
        &mut self,
        stream: StreamId,
        buf: BufferId,
        offset: usize,
        host: &mut [Complex32],
        chunks: usize,
        label: &str,
    ) -> (TransferReport, f64) {
        self.mem.download(buf, offset, host);
        let (rep, start_s, end_s) = self.stream_copy(
            stream,
            Dir::D2H,
            (host.len() as u64) * ELEM_BYTES,
            chunks,
            label,
        );
        if let Some(c) = &self.checker {
            c.borrow_mut().record_copy(
                label,
                stream.0,
                buf,
                offset,
                offset + host.len(),
                false,
                start_s,
                end_s,
            );
        }
        (rep, end_s)
    }

    fn stream_copy(
        &mut self,
        stream: StreamId,
        dir: Dir,
        bytes: u64,
        chunks: usize,
        label: &str,
    ) -> (TransferReport, f64, f64) {
        let rep = transfer_time(self.spec.pcie, dir, bytes, chunks);
        let (start_s, end_s) =
            self.streams
                .schedule_copy(stream, dir, self.clock.get(), rep.time_s);
        if let Some(sink) = &self.sink {
            let mut sink = sink.borrow_mut();
            sink.event(TraceEvent::Pcie {
                label: label.to_string(),
                dir,
                bytes,
                start_s,
                end_s,
                overlapped: true,
            });
            sink.event(TraceEvent::StreamOp {
                stream: stream.0,
                label: label.to_string(),
                dir: Some(dir),
                bytes,
                start_s,
                end_s,
            });
        }
        (rep, start_s, end_s)
    }

    /// Records an event on `stream`: captures the completion time of all
    /// work issued to the stream so far.
    pub fn event_record(&mut self, stream: StreamId) -> EventId {
        let ev = self.streams.record_event(stream);
        if let Some(c) = &self.checker {
            c.borrow_mut().on_event_record(ev.0, stream.0);
        }
        ev
    }

    /// The simulated time a recorded event fires, seconds.
    pub fn event_time_s(&self, event: EventId) -> f64 {
        self.streams.event_time_s(event)
    }

    /// Makes future work on `stream` wait until `event` has fired
    /// (cross-stream dependency; raises the stream's ready time).
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) {
        self.streams.wait_event(stream, event);
        if let Some(c) = &self.checker {
            c.borrow_mut().on_wait_event(stream.0, event.0);
        }
    }

    /// Blocks the host until everything issued to `stream` completes
    /// (advances the host clock to the stream's ready time).
    pub fn stream_synchronize(&mut self, stream: StreamId) {
        let t = self.streams.ready_s(stream);
        self.wait_until(t);
        if let Some(c) = &self.checker {
            c.borrow_mut().on_stream_synchronize(stream.0);
        }
    }

    /// Device-wide synchronize: blocks the host until every stream, the
    /// compute engine, both stream copy engines and the legacy PCIe link
    /// are idle.
    pub fn synchronize(&mut self) {
        let t = self.streams.horizon_s().max(self.pcie_link.busy_until_s());
        self.wait_until(t);
        if let Some(c) = &self.checker {
            c.borrow_mut().on_synchronize();
        }
    }

    /// The timestamp spans and newly issued work observe: the active
    /// stream's ready time when one is set, the host clock otherwise.
    fn trace_now(&self) -> f64 {
        match self.active_stream {
            Some(s) => self.streams.ready_s(s).max(self.clock.get()),
            None => self.clock.get(),
        }
    }

    /// Opens a named plan-level span at the current simulated time (the
    /// active stream's timeline when one is set).
    pub fn span_begin(&mut self, name: &str) {
        if let Some(sink) = &self.sink {
            let t_s = self.trace_now();
            sink.borrow_mut().event(TraceEvent::SpanBegin {
                name: name.to_string(),
                t_s,
            });
        }
    }

    /// Closes the matching span at the current simulated time.
    pub fn span_end(&mut self, name: &str) {
        if let Some(sink) = &self.sink {
            let t_s = self.trace_now();
            sink.borrow_mut().event(TraceEvent::SpanEnd {
                name: name.to_string(),
                t_s,
            });
        }
    }

    /// Models a synchronous PCIe transfer: the link window is scheduled
    /// behind any queued transfer and the compute timeline blocks until it
    /// completes. Only the timing model runs — move the actual bytes with
    /// [`DeviceMemory::upload`]/[`DeviceMemory::download`].
    pub fn pcie_transfer(
        &mut self,
        dir: Dir,
        bytes: u64,
        chunks: usize,
        label: &str,
    ) -> TransferReport {
        let (rep, end) = self.pcie_schedule(dir, bytes, chunks, label, false);
        self.clock.set(end);
        rep
    }

    /// Models an asynchronous PCIe transfer (§4.4 overlap): the link window
    /// is scheduled but the compute timeline keeps running. Returns the
    /// report and the completion time to pass to [`Gpu::wait_until`] before
    /// the transferred data is consumed.
    pub fn pcie_transfer_async(
        &mut self,
        dir: Dir,
        bytes: u64,
        chunks: usize,
        label: &str,
    ) -> (TransferReport, f64) {
        self.pcie_schedule(dir, bytes, chunks, label, true)
    }

    fn pcie_schedule(
        &mut self,
        dir: Dir,
        bytes: u64,
        chunks: usize,
        label: &str,
        overlapped: bool,
    ) -> (TransferReport, f64) {
        let rep = transfer_time(self.spec.pcie, dir, bytes, chunks);
        let (start_s, end_s) = self.pcie_link.schedule(self.clock.get(), rep.time_s);
        if let Some(sink) = &self.sink {
            sink.borrow_mut().event(TraceEvent::Pcie {
                label: label.to_string(),
                dir,
                bytes,
                start_s,
                end_s,
                overlapped,
            });
        }
        (rep, end_s)
    }

    /// Device memory (allocation, upload/download data plane).
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Mutable device memory.
    pub fn mem_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// Binds a read-only texture (e.g. a twiddle table).
    pub fn bind_texture(&mut self, data: Vec<Complex32>, access: TexAccess) -> TextureId {
        self.textures.push(Texture { data, access });
        TextureId(self.textures.len() - 1)
    }

    /// How a bound texture is accessed (a native executor's replay key names
    /// it, since it selects the counter a fetch charges).
    pub fn texture_access(&self, tex: TextureId) -> TexAccess {
        self.textures[tex.0].access
    }

    /// Binds a constant-memory table (§3.2 twiddle option 2; 64 KB segment).
    pub fn bind_constant(&mut self, data: Vec<Complex32>) -> ConstId {
        self.constants.push(ConstantBank::new(data));
        ConstId(self.constants.len() - 1)
    }

    /// Validates a launch configuration against the device's hard limits —
    /// the conditions `cudaLaunch` rejects, the same ones
    /// [`crate::occupancy::occupancy`] asserts.
    ///
    /// # Panics
    /// Panics naming the kernel and the violated limit.
    fn validate_launch(&self, cfg: &LaunchConfig) {
        let arch = &self.spec.arch;
        let res = &cfg.resources;
        let reject = |reason: String| panic!("launch of kernel '{}' rejected: {reason}", cfg.name);
        if cfg.grid_blocks == 0 {
            reject("empty grid (0 blocks)".to_string());
        }
        if res.threads_per_block == 0 {
            reject("empty block (0 threads)".to_string());
        }
        if res.threads_per_block > arch.max_threads_per_block {
            reject(format!(
                "block of {} exceeds the {}-thread block limit",
                res.threads_per_block, arch.max_threads_per_block
            ));
        }
        let regs_per_block = res.regs_per_thread * res.threads_per_block;
        if regs_per_block > arch.registers_per_sm {
            reject(format!(
                "one block needs {regs_per_block} registers, SM has {}",
                arch.registers_per_sm
            ));
        }
        if res.shared_bytes_per_block > arch.shared_mem_per_sm {
            reject(format!(
                "one block needs {} B shared, SM has {}",
                res.shared_bytes_per_block, arch.shared_mem_per_sm
            ));
        }
    }

    /// Launches a coarse-grained kernel: `body` runs once per thread.
    ///
    /// Equivalent to [`Gpu::launch_items`] with one item per thread.
    ///
    /// # Panics
    /// Panics (naming the kernel) when the configuration violates a device
    /// limit.
    pub fn launch(
        &mut self,
        cfg: &LaunchConfig,
        mut body: impl FnMut(&mut ThreadCtx),
    ) -> KernelReport {
        let threads = cfg.grid_blocks * cfg.resources.threads_per_block;
        self.launch_items(cfg, threads, |t, _| body(t))
    }

    /// Launches a grid-stride kernel over `items` work items: `body(t, i)`
    /// runs item `i` on global thread `i % total_threads`, the assignment of
    /// the hand-written `for (i = gid; i < items; i += total_threads)` loop.
    /// The paper's steps 1–4 use this form — no shared memory, one small FFT
    /// per item.
    ///
    /// Items run *round-major*: the first item of every thread, then every
    /// thread's second, so consecutive threads sweep memory together as a
    /// real grid does instead of each thread walking the whole buffer alone.
    /// Each thread still sees its own items in order, and a traced thread's
    /// access streams are the same as under the hand-written loop, so every
    /// [`KernelStats`] field is unchanged. Only the order *between* threads
    /// differs, so the body must not depend on it: items that read what
    /// other items of the launch write, or a fold into captured host state
    /// where visit order matters (an argmax with strict-`>` tie breaking, a
    /// floating-point sum), keep their own loop under [`Gpu::launch`]. For a
    /// defective kernel the checker may name a different thread as the
    /// first offender of a diagnostic.
    ///
    /// # Panics
    /// Panics (naming the kernel) when the configuration violates a device
    /// limit.
    pub fn launch_items(
        &mut self,
        cfg: &LaunchConfig,
        items: usize,
        mut body: impl FnMut(&mut ThreadCtx, usize),
    ) -> KernelReport {
        self.validate_launch(cfg);
        let occ = occupancy(&self.spec.arch, &cfg.resources);
        let mut stats = KernelStats::default();
        let bd = cfg.resources.threads_per_block;
        let total = cfg.grid_blocks * bd;
        if let Some(c) = &self.checker {
            c.borrow_mut().begin_kernel();
        }
        let checker = self.checker.as_deref();
        let (half_warp, banks) = (self.spec.arch.half_warp, self.spec.arch.shared_banks);
        let mut samples = std::mem::take(&mut self.samples);
        let mut pool = std::mem::take(&mut self.pool);
        let traced = self.trace_blocks.min(cfg.grid_blocks);
        let traces = fresh_traces(&mut pool.traces, traced, bd, half_warp);
        for round in (0..items).step_by(total) {
            for (gid, item) in (round..items.min(round + total)).enumerate() {
                let (block, tid) = (gid / bd, gid % bd);
                let mut ctx = ThreadCtx {
                    mem: &mut self.mem,
                    textures: &self.textures,
                    constants: &mut self.constants,
                    shared: None,
                    stats: &mut stats,
                    trace: traces.get_mut(block).map(|bt| &mut bt.threads[tid]),
                    kernel: cfg.name,
                    checker,
                    block,
                    tid,
                    block_dim: bd,
                    grid_dim: cfg.grid_blocks,
                };
                body(&mut ctx, item);
            }
            for bt in traces.iter_mut() {
                bt.analyze(half_warp, banks, &mut stats, &mut samples, false);
            }
        }
        for bt in traces.iter_mut() {
            bt.analyze(half_warp, banks, &mut stats, &mut samples, true);
            bt.trim();
        }
        samples.fold_into(&mut stats);
        self.samples = samples;
        self.pool = pool;
        self.finish(cfg, occ, stats)
    }

    /// Launches a cooperative kernel: `body` runs once per *block* and drives
    /// its threads in phases (the paper's fine-grained step 5).
    ///
    /// Equivalent to [`Gpu::launch_coop_items`] with one item per block.
    ///
    /// # Panics
    /// Panics (naming the kernel) when the configuration violates a device
    /// limit.
    pub fn launch_coop(
        &mut self,
        cfg: &LaunchConfig,
        mut body: impl FnMut(&mut BlockCtx),
    ) -> KernelReport {
        self.launch_coop_items(cfg, cfg.grid_blocks, |blk, _| body(blk))
    }

    /// Launches a grid-stride cooperative kernel over `items` work items:
    /// `body(blk, i)` runs item `i` on block `i % grid_blocks`, the
    /// assignment of the hand-written `for (i = block; i < items; i += grid)`
    /// loop.
    ///
    /// Items run round-major, as in [`Gpu::launch_items`]. Each block keeps
    /// its shared memory (contents and race provenance) and its trace across
    /// its items, so shared races, bank conflicts and the sampled streams
    /// match the hand-written loop; the same rule about order-dependent
    /// folds applies.
    ///
    /// # Panics
    /// Panics (naming the kernel) when the configuration violates a device
    /// limit.
    pub fn launch_coop_items(
        &mut self,
        cfg: &LaunchConfig,
        items: usize,
        mut body: impl FnMut(&mut BlockCtx, usize),
    ) -> KernelReport {
        self.validate_launch(cfg);
        let occ = occupancy(&self.spec.arch, &cfg.resources);
        let mut stats = KernelStats::default();
        let mut samples = std::mem::take(&mut self.samples);
        let bd = cfg.resources.threads_per_block;
        let grid = cfg.grid_blocks;
        if let Some(c) = &self.checker {
            c.borrow_mut().begin_kernel();
        }
        let checker = self.checker.as_deref();
        let (half_warp, banks) = (self.spec.arch.half_warp, self.spec.arch.shared_banks);
        let (shared_bytes, shared_cap) = (
            cfg.resources.shared_bytes_per_block,
            self.spec.arch.shared_mem_per_sm,
        );
        let mut pool = std::mem::take(&mut self.pool);
        let traced = self.trace_blocks.min(grid).min(items);
        let traces = fresh_traces(&mut pool.traces, traced, bd, half_warp);
        let (spare, live) = (&mut pool.shared, &mut pool.live);
        // Blocks with items still to run; a block's shared memory is taken
        // from the pool at its first item and returned after its last.
        live.clear();
        live.resize_with(grid, || None);
        for round in (0..items).step_by(grid) {
            for (block, item) in (round..items.min(round + grid)).enumerate() {
                let mut shared = live[block].take().unwrap_or_else(|| match spare.pop() {
                    Some(mut sh) => {
                        sh.reset(shared_bytes, shared_cap, banks);
                        sh
                    }
                    None => SharedMem::new(shared_bytes, shared_cap, banks),
                });
                let mut bc = BlockCtx {
                    mem: &mut self.mem,
                    textures: &self.textures,
                    constants: &mut self.constants,
                    shared: &mut shared,
                    stats: &mut stats,
                    trace: traces.get_mut(block),
                    kernel: cfg.name,
                    checker,
                    block,
                    block_dim: bd,
                    grid_dim: grid,
                };
                body(&mut bc, item);
                let done = item + grid >= items;
                if let Some(bt) = traces.get_mut(block) {
                    bt.analyze(half_warp, banks, &mut stats, &mut samples, done);
                    if done {
                        bt.trim();
                    }
                }
                if done {
                    stats.shared_races += shared.race_count();
                    spare.push(shared);
                } else {
                    live[block] = Some(shared);
                }
            }
        }
        self.pool = pool;
        samples.fold_into(&mut stats);
        self.samples = samples;
        self.finish(cfg, occ, stats)
    }

    /// Launches a data-oblivious kernel whose report is a pure function of
    /// `cfg`, [`Gpu::trace_blocks`], the addresses of `bufs` and the
    /// caller's `shape` words, which must cover everything the kernel body's
    /// addresses, counts and branches read.
    ///
    /// The first launch of a shape runs `simulate`, which must make exactly
    /// this one launch of `cfg`, and records its [`KernelStats`]. A later
    /// launch of the same shape runs `native` instead: plain loops over the
    /// device memory and the bound textures that must leave every buffer
    /// exactly as the simulated body would, backing none further than it
    /// writes. The recorded counters then go through the same timing,
    /// stream scheduling, clock and trace events as a simulated launch, so
    /// the report and everything observable match bit for bit.
    ///
    /// With the checker on ([`Gpu::check_enable`]) every launch is simulated
    /// and nothing is recorded. Recorded launches that name a freed buffer
    /// are dropped: the allocator never reuses an address, so they could
    /// not be replayed again.
    ///
    /// # Panics
    /// Panics (naming the kernel) when the configuration violates a device
    /// limit.
    pub fn launch_replay(
        &mut self,
        cfg: &LaunchConfig,
        bufs: &[BufferId],
        shape: &[u64],
        simulate: impl FnOnce(&mut Gpu) -> KernelReport,
        native: impl FnOnce(&mut DeviceMemory, Textures<'_>),
    ) -> KernelReport {
        if self.checker.is_some() {
            return simulate(self);
        }
        if self.mem.frees() != self.replays.frees_seen {
            let mem = &self.mem;
            self.replays
                .entries
                .retain(|_, rec| rec.bufs.iter().all(|&b| mem.is_live(b)));
            self.replays.frees_seen = mem.frees();
        }
        let key = ReplayKey {
            cfg: *cfg,
            trace_blocks: self.trace_blocks,
            bases: bufs.iter().map(|&b| self.mem.addr(b, 0)).collect(),
            shape: shape.to_vec(),
        };
        if let Some(rec) = self.replays.entries.get(&key) {
            let stats = rec.stats.clone();
            self.validate_launch(cfg);
            native(&mut self.mem, Textures(&self.textures));
            self.replayed += 1;
            let occ = occupancy(&self.spec.arch, &cfg.resources);
            return self.finish(cfg, occ, stats);
        }
        let report = simulate(self);
        debug_assert_eq!(report.name, cfg.name, "simulate launched another kernel");
        let rec = Recorded {
            bufs: bufs.to_vec(),
            stats: report.stats.clone(),
        };
        self.replays.entries.insert(key, rec);
        report
    }

    /// Kernel launches so far and, of those, how many
    /// [`Gpu::launch_replay`] replayed natively.
    pub fn launch_counts(&self) -> (u64, u64) {
        (self.launches, self.replayed)
    }

    fn finish(&mut self, cfg: &LaunchConfig, occ: Occupancy, stats: KernelStats) -> KernelReport {
        self.launches += 1;
        let timing = time_kernel(&self.spec, cfg, &occ, &stats);
        let now = self.clock.get();
        let (start_s, end_s) = match self.active_stream {
            // Stream launch: queue behind the stream and the compute engine;
            // the host clock does not advance.
            Some(s) => self.streams.schedule_kernel(s, now, timing.time_s),
            // Synchronous launch: the host blocks. The start still respects
            // the compute engine (stream work may have it busy); with no
            // streams in flight this is exactly the old `start = clock`.
            None => {
                let start = now.max(self.streams.compute_busy_until_s);
                let end = start + timing.time_s;
                self.streams.compute_busy_until_s = end;
                self.streams.compute_busy_s += timing.time_s;
                self.clock.set(end);
                (start, end)
            }
        };
        if let Some(c) = &self.checker {
            c.borrow_mut()
                .end_kernel(cfg.name, self.active_stream.map(|s| s.0), start_s, end_s);
        }
        if let Some(sink) = &self.sink {
            let mut sink = sink.borrow_mut();
            sink.event(TraceEvent::KernelBegin {
                config: *cfg,
                occupancy: occ,
                t_s: start_s,
            });
            sink.event(TraceEvent::KernelEnd {
                name: cfg.name,
                t_s: end_s,
                timing,
                coalesced_fraction: stats.coalesced_fraction(),
                tx_hist: stats.sampled_tx_hist,
                bank_conflicts: stats.bank_conflicts.clone(),
            });
            if let Some(s) = self.active_stream {
                sink.event(TraceEvent::StreamOp {
                    stream: s.0,
                    label: cfg.name.to_string(),
                    dir: None,
                    bytes: 0,
                    start_s,
                    end_s,
                });
            }
        }
        KernelReport {
            name: cfg.name,
            stats,
            occupancy: occ,
            timing,
        }
    }

    /// [`DeviceSpec::fill_grid`] of this card.
    pub fn fill_grid(&self, res: &KernelResources) -> usize {
        self.spec.fill_grid(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::c32;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::gt8800())
    }

    #[test]
    fn functional_copy_kernel() {
        let mut g = gpu();
        let n = 4096;
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        for i in 0..n {
            g.mem_mut().write(src, i, c32(i as f32, -(i as f32)));
        }
        let cfg = LaunchConfig::copy("copy", 4, 64);
        let total = 4 * 64;
        let rep = g.launch(&cfg, |t| {
            let mut i = t.gid();
            while i < n {
                let v = t.ld(src, i);
                t.st(dst, i, v);
                i += total;
            }
        });
        for i in 0..n {
            assert_eq!(g.mem().read(dst, i), c32(i as f32, -(i as f32)));
        }
        assert_eq!(rep.stats.loads, n as u64);
        assert_eq!(rep.stats.stores, n as u64);
        // Grid-stride unit-stride copy coalesces perfectly.
        assert!(rep.stats.coalesced_fraction() > 0.999, "{:?}", rep.stats);
        assert_eq!(rep.stats.coalesce_efficiency(), 1.0);
        assert!(rep.timing.time_s > 0.0);
    }

    #[test]
    fn strided_kernel_detected_as_uncoalesced() {
        let mut g = gpu();
        let n = 4096;
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        let cfg = LaunchConfig::copy("strided", 4, 64);
        let total = 4 * 64usize;
        // Thread t reads element (t * 16) mod n — stride 16 inside each
        // half-warp, the classic uncoalesced pattern.
        let rep = g.launch(&cfg, |t| {
            let mut i = t.gid();
            while i < n {
                let v = t.ld(src, (i * 16) % n);
                t.st(dst, i, v);
                i += total;
            }
        });
        assert!(
            rep.stats.load_coalesce_efficiency() < 0.3,
            "{:?}",
            rep.stats
        );
        assert!(rep.stats.store_coalesce_efficiency() > 0.99);
    }

    #[test]
    fn coop_kernel_shared_exchange_with_sync_is_race_free() {
        let mut g = gpu();
        let n = 256;
        let buf = g.mem_mut().alloc(n).unwrap();
        for i in 0..n {
            g.mem_mut().write(buf, i, c32(i as f32, 0.0));
        }
        let mut cfg = LaunchConfig::copy("reverse", 4, 64);
        cfg.resources.shared_bytes_per_block = 64 * 4;
        // Each block reverses its 64-element slice through shared memory.
        let rep = g.launch_coop(&cfg, |blk| {
            let base = blk.block * 64;
            blk.threads(|tid, t| {
                let v = t.ld(buf, base + tid);
                t.sh_write(tid, v.re);
            });
            blk.sync();
            blk.threads(|tid, t| {
                let v = t.sh_read(63 - tid);
                t.st(buf, base + tid, c32(v, 0.0));
            });
        });
        assert_eq!(rep.stats.shared_races, 0);
        for b in 0..4 {
            for i in 0..64 {
                assert_eq!(g.mem().read(buf, b * 64 + i).re, (b * 64 + 63 - i) as f32);
            }
        }
    }

    #[test]
    fn missing_sync_is_detected() {
        let mut g = gpu();
        let buf = g.mem_mut().alloc(64).unwrap();
        let mut cfg = LaunchConfig::copy("racy", 1, 64);
        cfg.resources.shared_bytes_per_block = 64 * 4;
        let rep = g.launch_coop(&cfg, |blk| {
            blk.threads(|tid, t| {
                t.sh_write(tid, tid as f32);
            });
            // No blk.sync() here!
            blk.threads(|tid, t| {
                let v = t.sh_read(63 - tid);
                t.st(buf, tid, c32(v, 0.0));
            });
        });
        assert!(rep.stats.shared_races > 0);
    }

    #[test]
    fn bank_conflicts_measured_and_padding_fixes_them() {
        let mut g = gpu();
        let run = |g: &mut Gpu, stride: usize| {
            let mut cfg = LaunchConfig::copy("banks", 1, 16);
            cfg.resources.shared_bytes_per_block = 16 * stride * 4;
            let rep = g.launch_coop(&cfg, |blk| {
                blk.threads(|tid, t| {
                    t.sh_write(tid * stride, 1.0);
                });
            });
            rep.stats.shared_conflict_rate()
        };
        assert_eq!(run(&mut g, 16), 15.0); // all lanes in bank 0
        assert_eq!(run(&mut g, 17), 0.0); // padded: conflict-free
    }

    #[test]
    fn texture_reads_counted_by_class() {
        let mut g = gpu();
        let tw: Vec<Complex32> = (0..256).map(|i| c32(i as f32, 0.0)).collect();
        let cached = g.bind_texture(tw.clone(), TexAccess::Cached);
        let strided = g.bind_texture(tw, TexAccess::Strided);
        let dst = g.mem_mut().alloc(64).unwrap();
        let cfg = LaunchConfig::copy("tex", 1, 64);
        let rep = g.launch(&cfg, |t| {
            let a = t.tex1d(cached, t.tid);
            let b = t.tex1d(strided, t.tid * 4);
            t.st(dst, t.tid, a + b);
        });
        assert_eq!(rep.stats.tex_reads_cached, 64);
        assert_eq!(rep.stats.tex_reads_strided, 64);
        assert_eq!(g.mem().read(dst, 3).re, 3.0 + 12.0);
    }

    #[test]
    fn constant_memory_broadcast_vs_divergent() {
        let mut g = gpu();
        let table: Vec<Complex32> = (0..64).map(|i| c32(i as f32, 0.0)).collect();
        let bank = g.bind_constant(table);
        let dst = g.mem_mut().alloc(64).unwrap();
        // Broadcast: every lane reads the same word per ordinal.
        let cfg = LaunchConfig::copy("const_bcast", 1, 16);
        let rep = g.launch(&cfg, |t| {
            let v = t.const_ld(bank, 5);
            t.st(dst, t.tid, v);
        });
        assert_eq!(rep.stats.const_reads, 16);
        assert_eq!(rep.stats.const_serial_rate(), 0.0);
        assert_eq!(g.mem().read(dst, 3), c32(5.0, 0.0));
        // Divergent: every lane reads its own word — serialises (§3.2).
        let rep = g.launch(&cfg, |t| {
            let v = t.const_ld(bank, t.tid);
            t.st(dst, t.tid, v);
        });
        assert!(rep.stats.const_serial_rate() >= 29.0, "{:?}", rep.stats);
        assert!(rep.timing.conflict_time_s > 0.0);
        assert_eq!(g.mem().read(dst, 3), c32(3.0, 0.0));
    }

    #[test]
    fn fill_grid_matches_paper_block_counts() {
        // Table 3's 42-block grid: 14 SMs x 3 blocks (64 threads, copy regs).
        let g = Gpu::new(DeviceSpec::gt8800());
        let res = KernelResources {
            threads_per_block: 64,
            regs_per_thread: 40,
            shared_bytes_per_block: 0,
        };
        assert_eq!(g.fill_grid(&res), 42);
        let g = Gpu::new(DeviceSpec::gtx8800());
        assert_eq!(g.fill_grid(&res), 48);
    }

    #[test]
    fn misaligned_halfwarp_detected() {
        // Lanes sequential but the base lands mid-segment: rule (c) fails.
        let mut g = gpu();
        let n = 1024;
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        let cfg = LaunchConfig::copy("misaligned", 2, 64);
        let rep = g.launch(&cfg, |t| {
            // Offset by 8 elements (64 bytes): sequential but not 128-aligned.
            let i = (t.gid() + 8) % n;
            let v = t.ld(src, i);
            t.st(dst, t.gid(), v);
        });
        assert!(
            rep.stats.load_coalesce_efficiency() < 0.5,
            "{:?}",
            rep.stats
        );
        assert!(rep.stats.store_coalesce_efficiency() > 0.99);
    }

    #[test]
    fn tracing_can_be_disabled() {
        let mut g = gpu();
        g.trace_blocks = 0;
        let src = g.mem_mut().alloc(64).unwrap();
        let cfg = LaunchConfig::copy("untraced", 1, 64);
        let rep = g.launch(&cfg, |t| {
            let _ = t.ld(src, t.tid);
        });
        // No samples: efficiency defaults to the optimistic 1.0.
        assert_eq!(rep.stats.sampled_load_halfwarps, 0);
        assert_eq!(rep.stats.coalesce_efficiency(), 1.0);
        assert_eq!(rep.stats.loads, 64);
    }

    #[test]
    fn flops_charged() {
        let mut g = gpu();
        let cfg = LaunchConfig::copy("flops", 1, 32);
        let rep = g.launch(&cfg, |t| t.flops(10));
        assert_eq!(rep.stats.flops, 320);
    }

    #[test]
    fn clock_advances_by_modelled_kernel_time() {
        let mut g = gpu();
        assert_eq!(g.clock_s(), 0.0);
        let src = g.mem_mut().alloc(4096).unwrap();
        let dst = g.mem_mut().alloc(4096).unwrap();
        let cfg = LaunchConfig::copy("copy", 4, 64);
        let r1 = g.launch(&cfg, |t| {
            let v = t.ld(src, t.gid());
            t.st(dst, t.gid(), v);
        });
        assert_eq!(g.clock_s(), r1.timing.time_s);
        let r2 = g.launch(&cfg, |t| {
            let v = t.ld(src, t.gid());
            t.st(dst, t.gid(), v);
        });
        assert_eq!(g.clock_s(), r1.timing.time_s + r2.timing.time_s);
    }

    #[test]
    fn recorder_captures_kernels_spans_and_allocations() {
        let mut g = gpu();
        let rec = g.install_recorder();
        assert!(g.is_tracing());
        let src = g.mem_mut().alloc(4096).unwrap();
        let dst = g.mem_mut().alloc(4096).unwrap();
        g.span_begin("plan");
        let cfg = LaunchConfig::copy("copy", 4, 64);
        let rep = g.launch(&cfg, |t| {
            let v = t.ld(src, t.gid());
            t.st(dst, t.gid(), v);
        });
        g.span_end("plan");
        let trace = rec.borrow_mut().take_trace();
        // Two allocs + span pair + kernel pair.
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.kernel_count(), 1);
        assert_eq!(trace.kernel_time_s(), rep.timing.time_s);
        let spans = trace.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "plan");
        assert_eq!(spans[0].duration_s(), rep.timing.time_s);
        // The kernel slice carries the sampled tx histogram: a fully
        // coalesced complex copy issues only 128-byte transactions.
        match trace
            .events
            .iter()
            .find(|e| matches!(e, TraceEvent::KernelEnd { .. }))
        {
            Some(TraceEvent::KernelEnd {
                tx_hist,
                coalesced_fraction,
                ..
            }) => {
                assert!(*coalesced_fraction > 0.999);
                assert_eq!(tx_hist[0], 0);
                assert_eq!(tx_hist[1], 0);
                assert!(tx_hist[2] > 0);
            }
            _ => panic!("missing KernelEnd"),
        }
    }

    #[test]
    fn untraced_launch_emits_nothing_and_costs_nothing_extra() {
        let mut g = gpu();
        let src = g.mem_mut().alloc(64).unwrap();
        let cfg = LaunchConfig::copy("quiet", 1, 64);
        let _ = g.launch(&cfg, |t| {
            let _ = t.ld(src, t.tid);
        });
        assert!(!g.is_tracing());
        // Installing a recorder afterwards starts from an empty trace.
        let rec = g.install_recorder();
        assert!(rec.borrow().trace().is_empty());
        g.clear_sink();
        assert!(!g.is_tracing());
    }

    #[test]
    fn bank_conflict_heatmap_reaches_the_trace() {
        let mut g = gpu();
        let rec = g.install_recorder();
        let mut cfg = LaunchConfig::copy("banks", 1, 16);
        cfg.resources.shared_bytes_per_block = 16 * 64 * 4;
        g.launch_coop(&cfg, |blk| {
            // Stride-16 shared writes from one half-warp: all lanes bank 0.
            blk.threads(|tid, t| {
                t.sh_write(tid * 16, tid as f32);
            });
        });
        let trace = rec.borrow_mut().take_trace();
        match trace
            .events
            .iter()
            .find(|e| matches!(e, TraceEvent::KernelEnd { .. }))
        {
            Some(TraceEvent::KernelEnd { bank_conflicts, .. }) => {
                assert_eq!(bank_conflicts.len(), 16);
                assert_eq!(bank_conflicts[0], 15);
                assert!(bank_conflicts[1..].iter().all(|&c| c == 0));
            }
            _ => panic!("missing KernelEnd"),
        }
    }

    #[test]
    fn stream_copy_overlaps_other_streams_compute() {
        let mut g = gpu();
        let rec = g.install_recorder();
        let n = 4096;
        let a = g.mem_mut().alloc(n).unwrap();
        let b = g.mem_mut().alloc(n).unwrap();
        let host: Vec<Complex32> = (0..n).map(|i| c32(i as f32, 0.0)).collect();
        let s0 = g.stream_create();
        let s1 = g.stream_create();

        // Stream 0: upload then a kernel over buffer a.
        let (_, up0_done) = g.memcpy_h2d_async(s0, a, 0, &host, 1, "up0");
        let cfg = LaunchConfig::copy("work0", 4, 64);
        let total = 4 * 64;
        let rep = g.with_stream(s0, |g| {
            g.launch(&cfg, |t| {
                let mut i = t.gid();
                while i < n {
                    let v = t.ld(a, i);
                    t.st(a, i, v);
                    i += total;
                }
            })
        });
        // Stream 1: an independent upload into b — queues on the H2D engine
        // behind up0 but overlaps stream 0's kernel.
        let (_, up1_done) = g.memcpy_h2d_async(s1, b, 0, &host, 1, "up1");
        assert_eq!(g.clock_s(), 0.0, "async ops leave the host clock");
        // Functional effect happened at issue.
        assert_eq!(g.mem().read(b, 7), c32(7.0, 0.0));

        let k0_start = up0_done;
        let k0_end = g.stream_ready_s(s0);
        assert!((k0_end - k0_start - rep.timing.time_s).abs() < 1e-12);
        // up1 occupies the H2D engine right after up0, inside the kernel.
        assert!((up1_done - 2.0 * up0_done).abs() < 1e-12);
        assert!(up1_done > k0_start && up1_done < k0_end + up0_done);

        g.synchronize();
        assert_eq!(g.clock_s(), g.stream_ready_s(s0).max(up1_done));

        // Stream ops appear in the trace with their scheduled windows.
        let trace = rec.borrow_mut().take_trace();
        let ops: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StreamOp {
                    stream,
                    label,
                    start_s,
                    end_s,
                    ..
                } => Some((*stream, label.clone(), *start_s, *end_s)),
                _ => None,
            })
            .collect();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].1, "up0");
        assert_eq!(ops[1].1, "work0");
        assert_eq!((ops[2].0, ops[2].1.as_str()), (1, "up1"));
        // Genuine cross-stream overlap: up1's window intersects work0's.
        assert!(ops[2].2 < ops[1].3 && ops[1].2 < ops[2].3);
        let json = trace.chrome_json();
        assert!(json.contains("\"name\":\"stream 0\""));
        assert!(json.contains("\"name\":\"stream 1\""));
    }

    #[test]
    fn events_order_work_across_streams() {
        let mut g = gpu();
        let n = 1024;
        let a = g.mem_mut().alloc(n).unwrap();
        let host = vec![c32(1.0, 0.0); n];
        let s0 = g.stream_create();
        let s1 = g.stream_create();
        let (_, done) = g.memcpy_h2d_async(s0, a, 0, &host, 1, "up");
        let ev = g.event_record(s0);
        assert_eq!(g.event_time_s(ev), done);
        g.stream_wait_event(s1, ev);
        let cfg = LaunchConfig::copy("consume", 2, 64);
        g.with_stream(s1, |g| {
            g.launch(&cfg, |t| {
                let v = t.ld(a, t.gid());
                t.st(a, t.gid(), v);
            })
        });
        // The consumer kernel could not start before the upload finished.
        assert!(g.stream_ready_s(s1) > done);
        g.stream_synchronize(s1);
        assert_eq!(g.clock_s(), g.stream_ready_s(s1));
    }

    /// Every hard limit `validate_launch` enforces rejects through both
    /// launch forms with a panic naming the kernel and the limit.
    #[test]
    fn launches_past_a_device_limit_panic_naming_kernel_and_limit() {
        // (kernel, grid blocks, threads, registers, shared bytes, limit)
        let cases = [
            ("no_blocks", 0, 64, 16, 0, "empty grid (0 blocks)"),
            ("no_threads", 2, 0, 16, 0, "empty block (0 threads)"),
            (
                "wide_block",
                2,
                1024,
                16,
                0,
                "block of 1024 exceeds the 512-thread block limit",
            ),
            (
                "reg_hog",
                2,
                64,
                200,
                0,
                "one block needs 12800 registers, SM has 8192",
            ),
            (
                "smem_hog",
                2,
                64,
                16,
                32 * 1024,
                "one block needs 32768 B shared, SM has 16384",
            ),
        ];
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("a formatted panic message")
        };
        for (name, grid, threads, regs, shared, limit) in cases {
            let mut cfg = LaunchConfig::copy(name, grid, threads);
            cfg.resources.regs_per_thread = regs;
            cfg.resources.shared_bytes_per_block = shared;
            let want = format!("launch of kernel '{name}' rejected: {limit}");
            let plain = std::panic::catch_unwind(|| {
                gpu().launch(&cfg, |_| {});
            });
            assert_eq!(message(plain.expect_err("launch rejects")), want);
            let coop = std::panic::catch_unwind(|| {
                gpu().launch_coop_items(&cfg, 4, |_, _| {});
            });
            assert_eq!(message(coop.expect_err("coop launch rejects")), want);
        }
    }

    #[test]
    fn synchronous_launch_queues_behind_stream_kernels() {
        let mut g = gpu();
        let n = 4096;
        let a = g.mem_mut().alloc(n).unwrap();
        let s0 = g.stream_create();
        let cfg = LaunchConfig::copy("streamed", 4, 64);
        let r1 = g.with_stream(s0, |g| {
            g.launch(&cfg, |t| {
                let v = t.ld(a, t.gid());
                t.st(a, t.gid(), v);
            })
        });
        assert_eq!(g.clock_s(), 0.0);
        // A plain synchronous launch shares the single compute engine, so it
        // starts after the streamed kernel and blocks the host to its end.
        let r2 = g.launch(&cfg, |t| {
            let v = t.ld(a, t.gid());
            t.st(a, t.gid(), v);
        });
        assert_eq!(g.clock_s(), r1.timing.time_s + r2.timing.time_s);
    }

    /// A copy of `n` elements `src` → `dst` through [`Gpu::launch_replay`],
    /// or through a plain launch of the same configuration.
    fn copy(g: &mut Gpu, src: BufferId, dst: BufferId, n: usize, replay: bool) -> KernelReport {
        let cfg = LaunchConfig::copy("replay_copy", 4, 64);
        let simulate = |g: &mut Gpu| {
            g.launch_items(&cfg, n, |t, i| {
                let v = t.ld(src, i);
                t.st(dst, i, v);
            })
        };
        if !replay {
            return simulate(g);
        }
        g.launch_replay(&cfg, &[src, dst], &[n as u64], simulate, |mem, _| {
            let (s, d) = mem.src_dst(src, dst, n);
            for (i, v) in d.iter_mut().enumerate() {
                *v = s.get(i);
            }
        })
    }

    #[test]
    fn replay_table_stays_bounded_under_alloc_free_churn() {
        let mut g = gpu();
        let n = 1024;
        let host: Vec<Complex32> = (0..n).map(|i| c32(i as f32, 1.0)).collect();
        for _ in 0..50 {
            let src = g.mem_mut().alloc(n).unwrap();
            let dst = g.mem_mut().alloc(n).unwrap();
            g.mem_mut().upload(src, 0, &host);
            let first = copy(&mut g, src, dst, n, true);
            let second = copy(&mut g, src, dst, n, true);
            assert_eq!(first, second);
            assert_eq!(g.mem().read(dst, 7), c32(7.0, 1.0));
            // Only this round's launch is recorded: earlier rounds named
            // buffers that are freed now.
            assert_eq!(g.replays.entries.len(), 1);
            g.mem_mut().free(src);
            g.mem_mut().free(dst);
        }
        assert_eq!(g.launch_counts(), (100, 50));
    }

    #[test]
    fn another_trace_blocks_is_another_shape() {
        let mut g = gpu();
        let n = 1024;
        let src = g.mem_mut().alloc(n).unwrap();
        let dst = g.mem_mut().alloc(n).unwrap();
        g.mem_mut().upload(src, 0, &vec![c32(1.0, 0.0); n]);
        let traced = copy(&mut g, src, dst, n, true);
        g.trace_blocks = 0;
        let untraced = copy(&mut g, src, dst, n, true);
        assert_eq!(g.launch_counts(), (2, 0));
        assert_eq!(untraced.stats.sampled_load_halfwarps, 0);
        assert!(traced.stats.sampled_load_halfwarps > 0);
    }

    #[test]
    fn checked_launches_are_never_replayed() {
        let run = |replay: bool| {
            let mut g = gpu();
            g.check_enable();
            let n = 512;
            let src = g.mem_mut().alloc(n).unwrap();
            let dst = g.mem_mut().alloc(n).unwrap();
            // The tail of `src` is never written: every copy reads it
            // uninitialised, so the check report has something to say.
            g.mem_mut().upload(src, 0, &vec![c32(1.0, 2.0); n - 32]);
            let reps = [0, 1].map(|_| copy(&mut g, src, dst, n, replay));
            assert!(g.replays.entries.is_empty());
            (reps, g.launch_counts(), format!("{:?}", g.check_report()))
        };
        let (replayed, counts, report) = run(true);
        let (plain, _, plain_report) = run(false);
        assert_eq!(replayed, plain);
        assert_eq!(counts, (2, 0));
        assert!(report.contains("Uninit"), "{report}");
        assert_eq!(report, plain_report);
    }

    #[test]
    fn recorder_sees_the_same_events_on_hit_and_miss() {
        let events = |replay: bool| {
            let mut g = gpu();
            let rec = g.install_recorder();
            let n = 2048;
            let src = g.mem_mut().alloc(n).unwrap();
            let dst = g.mem_mut().alloc(n).unwrap();
            g.mem_mut().upload(src, 0, &vec![c32(3.0, 4.0); n]);
            let s = g.stream_create();
            for _ in 0..2 {
                copy(&mut g, src, dst, n, replay);
                g.with_stream(s, |g| copy(g, src, dst, n, replay));
            }
            g.synchronize();
            let counts = g.launch_counts();
            (
                counts,
                format!("{:?}", rec.borrow_mut().take_trace().events),
            )
        };
        let (counts, replayed) = events(true);
        assert_eq!(counts, (4, 3), "a miss, then three hits");
        assert_eq!(replayed, events(false).1);
    }

    #[test]
    fn pcie_transfers_schedule_on_one_link() {
        let mut g = gpu();
        let rec = g.install_recorder();
        // Synchronous upload: compute timeline blocks until it lands.
        let r = g.pcie_transfer(Dir::H2D, 1 << 20, 1, "h2d_sync");
        assert_eq!(g.clock_s(), r.time_s);
        // Async download: link busy, clock unchanged.
        let t0 = g.clock_s();
        let (r2, done) = g.pcie_transfer_async(Dir::D2H, 1 << 20, 1, "d2h_async");
        assert_eq!(g.clock_s(), t0);
        assert_eq!(done, t0 + r2.time_s);
        // A second transfer queues behind the async one.
        let t1 = g.clock_s();
        let r3 = g.pcie_transfer(Dir::H2D, 1 << 20, 1, "h2d_queued");
        assert!(g.clock_s() >= done + r3.time_s - 1e-15);
        assert!(g.clock_s() > t1);
        // wait_until is monotonic.
        let now = g.clock_s();
        g.wait_until(now - 1.0);
        assert_eq!(g.clock_s(), now);
        g.pcie_sync();
        assert_eq!(g.clock_s(), now);
        let trace = rec.borrow_mut().take_trace();
        let pcie: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Pcie {
                    label,
                    start_s,
                    end_s,
                    overlapped,
                    ..
                } => Some((label.clone(), *start_s, *end_s, *overlapped)),
                _ => None,
            })
            .collect();
        assert_eq!(pcie.len(), 3);
        assert_eq!(pcie[0].0, "h2d_sync");
        assert!(pcie[1].3, "async transfer flagged overlapped");
        // The queued transfer starts exactly when the async one ends.
        assert_eq!(pcie[2].1, pcie[1].2);
    }
}
