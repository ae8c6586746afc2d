//! Cards, lanes and the wisdom-backed plan cache — where batches meet
//! hardware.
//!
//! Each simulated card owns `streams_per_card` *lanes*. A lane is one
//! stream plus a dedicated pair of staging buffers, so concurrent batches
//! on one card never touch the same device memory: the §4.4-style overlap
//! (H2D of the next batch under compute of the current one) comes entirely
//! from the per-stream/per-direction engine model, and the PR 4 hazard
//! checker stays clean by construction. With `streams_per_card = 0` the
//! card degrades to one synchronous lane — the serial baseline the
//! acceptance criteria compare against.
//!
//! Plans are cached per `(shape, algorithm, card)`: 1-D row plans and 3-D
//! volume plans both memoise here (and the fine-grained stage search
//! additionally memoises process-wide in [`bifft::wisdom`]), so a hot shape
//! plans once per card and never again.

use crate::pipeline::{consumer_counts, Operand, PipelineStage, PointwiseOp, ReduceOp, StageKind};
use bifft::batch::Fft1dBatchGpu;
use bifft::elementwise::{run_argmax_norm, run_energy, run_pointwise_mul, run_scale};
use bifft::five_step::FiveStepFft;
use bifft::plan::{Algorithm, Fft3d, FftError};
use fft_math::layout::FiveStepPlanLayout;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::pcie::Dir as PcieDir;
use gpu_sim::{BufferId, DeviceSpec, Gpu, Recorder, StreamId, Trace};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Hit/miss counters of one card's plan cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Dispatches served by a memoised plan.
    pub hits: u64,
    /// Dispatches that had to plan (and allocate) first.
    pub misses: u64,
}

/// Counters of one card's residency ledger — how the pipeline executor's
/// device-resident slots behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Operand reads served from a device-resident slot (no transfer).
    pub hits: u64,
    /// Operand reads that had to move bytes up first (initial input
    /// uploads and post-spill reloads).
    pub misses: u64,
    /// Slots spilled to host under memory pressure.
    pub evictions: u64,
}

impl ResidencyStats {
    /// Folds another run's counters in.
    pub fn absorb(&mut self, other: ResidencyStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// A planned pipeline engine for one volume shape: the forward five-step
/// plan, the split-swapped chained inverse (so forward output feeds the
/// inverse with no relayout), and a shared scratch buffer.
struct PipePlan {
    fwd: FiveStepFft,
    inv: FiveStepFft,
    work: BufferId,
}

/// Per-card memo of built plans, keyed by shape (+ algorithm for volumes).
#[derive(Default)]
struct PlanCache {
    one_d: BTreeMap<usize, Fft1dBatchGpu>,
    volumes: BTreeMap<(usize, usize, usize, Algorithm), Fft3d>,
    pipes: BTreeMap<(usize, usize, usize), PipePlan>,
    /// Volume keys this card could not allocate — route to the sharder
    /// without re-trying the allocation every dispatch.
    oversized: BTreeSet<(usize, usize, usize, Algorithm)>,
    stats: PlanCacheStats,
}

impl PlanCache {
    fn batch1d<'c>(&'c mut self, gpu: &mut Gpu, n: usize) -> Result<&'c Fft1dBatchGpu, FftError> {
        if let std::collections::btree_map::Entry::Vacant(e) = self.one_d.entry(n) {
            self.stats.misses += 1;
            e.insert(Fft1dBatchGpu::new(gpu, n)?);
        } else {
            self.stats.hits += 1;
        }
        Ok(&self.one_d[&n])
    }

    /// `Ok(None)` means the volume does not fit this card (sharder's job).
    fn volume<'c>(
        &'c mut self,
        gpu: &mut Gpu,
        dims: (usize, usize, usize),
        algo: Algorithm,
    ) -> Result<Option<&'c Fft3d>, FftError> {
        let key = (dims.0, dims.1, dims.2, algo);
        if self.oversized.contains(&key) {
            self.stats.hits += 1;
            return Ok(None);
        }
        if !self.volumes.contains_key(&key) {
            self.stats.misses += 1;
            match Fft3d::builder(dims.0, dims.1, dims.2)
                .algorithm(algo)
                .build(gpu)
            {
                Ok(plan) => {
                    self.volumes.insert(key, plan);
                }
                Err(FftError::Alloc(_)) => {
                    self.oversized.insert(key);
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        } else {
            self.stats.hits += 1;
        }
        Ok(Some(&self.volumes[&key]))
    }

    /// The pipeline engine for `dims`, planning (and allocating scratch) on
    /// first use. Unlike single volumes, a pipeline that cannot even stage
    /// its scratch has nowhere to shard to — the `Alloc` error propagates
    /// and the service fails the request.
    fn pipeline<'c>(
        &'c mut self,
        gpu: &mut Gpu,
        dims: (usize, usize, usize),
    ) -> Result<&'c PipePlan, FftError> {
        if !self.pipes.contains_key(&dims) {
            self.stats.misses += 1;
            let fwd = FiveStepFft::new(gpu, dims.0, dims.1, dims.2);
            let inv = fwd.inverse_chained(gpu);
            let work = gpu.mem_mut().alloc(fwd.volume())?;
            self.pipes.insert(dims, PipePlan { fwd, inv, work });
        } else {
            self.stats.hits += 1;
        }
        Ok(&self.pipes[&dims])
    }
}

/// One dispatch slot: a stream (or the synchronous timeline) plus its
/// dedicated staging buffers.
#[derive(Debug)]
pub struct Lane {
    stream: Option<StreamId>,
    src: BufferId,
    dst: BufferId,
    /// Trace labels of the lane's H2D and D2H staging copies, built once.
    label_up: String,
    label_down: String,
    /// When the lane's last batch completes, simulated seconds.
    pub busy_until_s: f64,
}

/// When one dispatched unit's phases ended, simulated seconds — the record
/// every dispatch path hands the lifecycle log. Each time is a pure
/// observation of stream/clock state the dispatch already produced;
/// reading them never advances the simulation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Phases {
    /// When the unit's plan was ready (cache hit: immediately; miss: after
    /// the build).
    pub plan_ready_s: f64,
    /// When the first H2D staging *starts* moving bytes — the engine
    /// model's `max(stream ready, copy engine free, host clock)` — so the
    /// ledger can split staging-slot wait from transfer time.
    pub h2d_start_s: f64,
    /// When the last upward transfer landed.
    pub h2d_done_s: f64,
    /// When the unit's kernels finished.
    pub compute_done_s: f64,
    /// When the result download landed — the unit's completion.
    pub completion_s: f64,
}

/// What one dispatched unit reports back, however it held the hardware:
/// a rows batch on one lane, a volume batch or a DAG on a whole card, or
/// a volume batch sharded over the fleet.
#[derive(Default)]
pub(crate) struct Outcome {
    /// The unit's phase times — its last member's, so `completion_s` is
    /// when the unit frees what it holds.
    pub phases: Phases,
    /// Each member's phase times (batch order) when members finish apart,
    /// as a volume batch's back-to-back transforms do; empty when every
    /// member shares `phases` (a lane batch's one D2H, a DAG's one member),
    /// so that case stores one record and allocates nothing.
    pub each: Vec<Phases>,
    /// The sim-prof span that wraps the launch (lifecycle cross-link).
    pub span: String,
    /// Per-member outputs (batch order), when kept. A DAG's is its final
    /// value in natural order: a full volume, or for a terminal reduce the
    /// 2-element `[(value, 0), (idx_lo, idx_hi)]` encoding (16-bit index
    /// halves, exact in `f32`), whose argmax index is the natural-order
    /// linear index, never the card's packed-layout one.
    pub outputs: Option<Vec<Vec<Complex32>>>,
    /// Bytes that crossed PCIe upward (payloads, DAG inputs and spill
    /// reloads).
    pub h2d_bytes: u64,
    /// Bytes that crossed PCIe downward (results and DAG spills).
    pub d2h_bytes: u64,
    /// A DAG's stage boundaries: when each stage's kernels finished, stage
    /// order — what the per-stage-kind EWMA estimator learns from. Empty
    /// for a transform batch.
    pub stage_done_s: Vec<f64>,
    /// A DAG's compute seconds over operands that were *all* served from
    /// device-resident slots — the ledger's `resident` split. Zero for a
    /// transform batch.
    pub resident_s: f64,
}

impl Outcome {
    /// Member `i`'s phase times.
    pub fn phases_of(&self, i: usize) -> Phases {
        self.each.get(i).copied().unwrap_or(self.phases)
    }
}

/// One refcounted residency slot: a pipeline value that is device-resident
/// (`buf`), spilled to host (`host`), or not yet materialised (an input
/// still waiting for its first read).
struct Slot {
    buf: Option<BufferId>,
    host: Option<Vec<Complex32>>,
    refs: u32,
    last_use: u64,
    /// True when the value sits in the forward plan's *output* layout.
    out_layout: bool,
}

/// Transfer/residency bookkeeping one pipeline run threads through the
/// slot helpers (free functions, so the plan borrow on the cache can stay
/// alive across them).
struct PipeRun<'a> {
    vol: usize,
    bytes: u64,
    stats: ResidencyStats,
    h2d_bytes: u64,
    d2h_bytes: u64,
    h2d_start_s: Option<f64>,
    h2d_done_s: f64,
    tick: u64,
    label_up: &'a str,
    label_down: &'a str,
}

impl PipeRun<'_> {
    /// Ensures slot `i` is device-resident, uploading (and spilling others
    /// under pressure) as needed; returns its buffer.
    fn touch(
        &mut self,
        gpu: &mut Gpu,
        slots: &mut [Slot],
        i: usize,
        pinned: &[usize],
    ) -> Result<BufferId, FftError> {
        self.tick += 1;
        slots[i].last_use = self.tick;
        if let Some(b) = slots[i].buf {
            self.stats.hits += 1;
            return Ok(b);
        }
        self.stats.misses += 1;
        let b = self.alloc(gpu, slots, pinned)?;
        let host = slots[i]
            .host
            .take()
            .expect("a non-resident slot holds a host copy");
        let start = gpu.clock_s().max(gpu.pcie_busy_until_s());
        self.h2d_start_s.get_or_insert(start);
        gpu.pcie_transfer(PcieDir::H2D, self.bytes, 1, self.label_up);
        gpu.mem_mut().upload(b, 0, &host);
        self.h2d_done_s = gpu.clock_s();
        self.h2d_bytes += self.bytes;
        slots[i].buf = Some(b);
        Ok(b)
    }

    /// Allocates a volume-sized buffer, spilling least-recently-used live
    /// slots to host until the allocation fits (the residency ledger's
    /// under-pressure path).
    fn alloc(
        &mut self,
        gpu: &mut Gpu,
        slots: &mut [Slot],
        pinned: &[usize],
    ) -> Result<BufferId, FftError> {
        loop {
            match gpu.mem_mut().alloc(self.vol) {
                Ok(b) => return Ok(b),
                Err(e) => {
                    let victim = slots
                        .iter()
                        .enumerate()
                        .filter(|(j, s)| s.buf.is_some() && s.refs > 0 && !pinned.contains(j))
                        .min_by_key(|(_, s)| s.last_use)
                        .map(|(j, _)| j);
                    let Some(j) = victim else {
                        return Err(e.into());
                    };
                    let buf = slots[j].buf.take().expect("victim is resident");
                    let mut host = vec![Complex32::ZERO; self.vol];
                    gpu.pcie_transfer(PcieDir::D2H, self.bytes, 1, self.label_down);
                    gpu.mem().download(buf, 0, &mut host);
                    gpu.mem_mut().free(buf);
                    slots[j].host = Some(host);
                    self.d2h_bytes += self.bytes;
                    self.stats.evictions += 1;
                }
            }
        }
    }

    /// Drops one reference to slot `i`; frees its buffer when it was the
    /// last **unless** the buffer index is `keep` (it was handed to the
    /// next stage's value in place).
    fn release(&mut self, gpu: &mut Gpu, slots: &mut [Slot], i: usize, keep: Option<BufferId>) {
        slots[i].refs -= 1;
        if slots[i].refs == 0 {
            if let Some(b) = slots[i].buf.take() {
                if keep == Some(b) {
                    return;
                }
                gpu.mem_mut().free(b);
            }
            slots[i].host = None;
        }
    }
}

/// Where each voxel sits in the five-step plan's packed device layout,
/// in natural order (`x` fastest, then `y`, then `z`): the input packing,
/// or the output packing when `out_layout` — the served twin of
/// `apps::GpuCorrelator::unpack_index`, covering both packings a DAG
/// value can sit in.
fn packed_indices(l: &FiveStepPlanLayout, out_layout: bool) -> impl Iterator<Item = usize> + '_ {
    (0..l.nz).flat_map(move |z| {
        (0..l.ny).flat_map(move |y| {
            (0..l.nx).map(move |x| match out_layout {
                true => l.output_index(x, y, z),
                false => l.input_index(x, y, z),
            })
        })
    })
}

/// One simulated card with its lanes and plan cache.
pub struct Card {
    /// The card's index in the service.
    pub index: usize,
    /// The simulated device.
    pub gpu: Gpu,
    cache: PlanCache,
    lanes: Vec<Lane>,
    slot_elems: usize,
    residency: ResidencyStats,
    recorder: Option<Rc<RefCell<Recorder>>>,
    /// Trace labels of the whole-card staging copies (volume H2D/D2H,
    /// pipeline H2D/D2H), built once.
    vol_labels: (String, String),
    pipe_labels: (String, String),
}

impl Card {
    /// Brings up card `index`: `streams_per_card` stream lanes (0 = one
    /// synchronous lane), each with `slot_elems`-element staging buffers.
    pub fn new(
        spec: &DeviceSpec,
        index: usize,
        streams_per_card: usize,
        slot_elems: usize,
        check: bool,
    ) -> Result<Self, FftError> {
        let mut gpu = Gpu::new(*spec);
        if check {
            gpu.check_enable();
        }
        let n_lanes = streams_per_card.max(1);
        let mut lanes = Vec::with_capacity(n_lanes);
        for lane_idx in 0..n_lanes {
            let stream = (streams_per_card > 0).then(|| gpu.stream_create());
            let src = gpu.mem_mut().alloc(slot_elems)?;
            let dst = gpu.mem_mut().alloc(slot_elems)?;
            lanes.push(Lane {
                stream,
                src,
                dst,
                label_up: format!("serve_h2d_c{index}l{lane_idx}"),
                label_down: format!("serve_d2h_c{index}l{lane_idx}"),
                busy_until_s: 0.0,
            });
        }
        Ok(Card {
            index,
            gpu,
            cache: PlanCache::default(),
            lanes,
            slot_elems,
            residency: ResidencyStats::default(),
            recorder: None,
            vol_labels: (
                format!("serve_vol_h2d_c{index}"),
                format!("serve_vol_d2h_c{index}"),
            ),
            pipe_labels: (
                format!("serve_pipe_h2d_c{index}"),
                format!("serve_pipe_d2h_c{index}"),
            ),
        })
    }

    /// Lifetime residency-ledger counters for this card.
    pub fn residency_stats(&self) -> ResidencyStats {
        self.residency
    }

    /// Installs a sim-prof recorder on the card's device so kernel, PCIe
    /// and span events accumulate into a per-card trace. Idempotent.
    pub fn enable_trace(&mut self) {
        if self.recorder.is_none() {
            self.recorder = Some(self.gpu.install_recorder());
        }
    }

    /// Drains the card's accumulated trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.recorder.as_ref().map(|r| r.borrow_mut().take_trace())
    }

    /// The card's lanes (scheduling state).
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Earliest time any lane is free.
    pub fn earliest_free_s(&self) -> f64 {
        self.lanes
            .iter()
            .map(|l| l.busy_until_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Latest busy-until over the card's lanes.
    pub fn all_free_s(&self) -> f64 {
        self.lanes
            .iter()
            .map(|l| l.busy_until_s)
            .fold(0.0, f64::max)
    }

    /// Index of a lane free at `now_s`, lowest index first.
    pub fn free_lane_at(&self, now_s: f64) -> Option<usize> {
        self.lanes.iter().position(|l| l.busy_until_s <= now_s)
    }

    /// Marks every lane busy until `t_s` (a whole-card dispatch).
    pub fn occupy_all(&mut self, t_s: f64) {
        for l in &mut self.lanes {
            l.busy_until_s = l.busy_until_s.max(t_s);
        }
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats
    }

    /// Whether this card already memoised the 1-D rows plan for length
    /// `n` — placement uses this to prefer a warm card over a cold one.
    pub fn has_rows_plan(&self, n: usize) -> bool {
        self.cache.one_d.contains_key(&n)
    }

    /// Aborts the batch occupying lane `lane_idx` at `safe_s`, the next
    /// stream-safe point (an H2D or kernel phase boundary the dispatch
    /// already recorded). The lane frees at `safe_s` and gets a **fresh
    /// stream and staging pair**: the aborted dispatch's remaining
    /// transfers are still modeled on the old stream/buffers, so reusing
    /// either would race them. The old buffers stay allocated for the same
    /// reason — preemption trades a staging slot of device memory for the
    /// reclaimed lane time. They stay charged to the modelled card but cost
    /// no host memory beyond the elements already written into them (device
    /// buffers are backed only where written). The lane keeps its index and
    /// so its transfer labels.
    ///
    /// # Errors
    /// [`FftError::Alloc`] when the card cannot stage a fresh buffer pair;
    /// the lane is left untouched and the caller must skip the preemption.
    ///
    /// # Panics
    /// When the lane is synchronous (no stream): there is no safe point to
    /// abort at on the blocking timeline, and the service never tries.
    pub fn preempt_lane(&mut self, lane_idx: usize, safe_s: f64) -> Result<(), FftError> {
        assert!(
            self.lanes[lane_idx].stream.is_some(),
            "preempting a synchronous lane"
        );
        let src = self.gpu.mem_mut().alloc(self.slot_elems)?;
        let dst = match self.gpu.mem_mut().alloc(self.slot_elems) {
            Ok(b) => b,
            Err(e) => {
                self.gpu.mem_mut().free(src);
                return Err(e.into());
            }
        };
        let stream = self.gpu.stream_create();
        let lane = &mut self.lanes[lane_idx];
        lane.stream = Some(stream);
        lane.src = src;
        lane.dst = dst;
        lane.busy_until_s = safe_s;
        Ok(())
    }

    /// Compute utilization over `makespan_s` (engine-busy seconds over
    /// elapsed seconds, clamped to `[0, 1]`).
    pub fn utilization(&self, makespan_s: f64) -> f64 {
        if makespan_s <= 0.0 {
            0.0
        } else {
            (self.gpu.compute_busy_s() / makespan_s).clamp(0.0, 1.0)
        }
    }

    /// Copy-engine utilization over `makespan_s`: both DMA engines' busy
    /// seconds over the time both could have been busy, clamped to
    /// `[0, 1]`.
    pub fn copy_utilization(&self, makespan_s: f64) -> f64 {
        if makespan_s <= 0.0 {
            0.0
        } else {
            let (up, down) = self.gpu.copy_busy_s();
            ((up + down) / (2.0 * makespan_s)).clamp(0.0, 1.0)
        }
    }

    /// Runs one coalesced batch of `n`-point rows on lane `lane_idx`, with
    /// `payloads` concatenated in batch order, and holds the lane until
    /// the batch completes (one batch = one D2H, so every member completes
    /// together).
    ///
    /// # Errors
    /// Plan-construction errors propagate ([`FftError::BadPlanConfig`] for
    /// unsupported lengths).
    ///
    /// # Panics
    /// When the concatenated payload exceeds the lane's staging slot (the
    /// batcher's `max_elems` must match the slot size).
    pub(crate) fn dispatch_rows(
        &mut self,
        lane_idx: usize,
        n: usize,
        payloads: &[&[Complex32]],
        dir: Direction,
        now_s: f64,
        keep_outputs: bool,
    ) -> Result<Outcome, FftError> {
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        let rows = total / n;
        debug_assert!(payloads.iter().all(|p| p.len() % n == 0));
        let host = payloads.concat();
        let lane = &self.lanes[lane_idx];
        let (src, dst, stream) = (lane.src, lane.dst, lane.stream);
        let bytes = total as u64 * 8;
        self.gpu.wait_until(now_s);
        let span = format!("serve_rows_{n}x{rows}_c{}l{}", self.index, lane_idx);
        self.gpu.span_begin(&span);
        let plan = self.cache.batch1d(&mut self.gpu, n)?;
        let plan_ready_s = self.gpu.clock_s();
        let (label_up, label_down) = (&lane.label_up, &lane.label_down);
        let mut out = vec![Complex32::ZERO; total];
        // The phase stamps are pure reads of state the dispatch already
        // created (stream-ready probes, the host clock) — recording them
        // cannot move any timeline.
        let (h2d_start_s, h2d_done_s, compute_done_s, completion_s) = match stream {
            Some(s) => {
                // Mirror of the engine model's issue rule: a stream copy
                // starts at max(stream ready, copy engine free, host clock).
                let h2d_start = self
                    .gpu
                    .stream_ready_s(s)
                    .max(self.gpu.copy_engine_free_s(PcieDir::H2D))
                    .max(self.gpu.clock_s());
                self.gpu.memcpy_h2d_async(s, src, 0, &host, 1, label_up);
                let h2d = self.gpu.stream_ready_s(s);
                self.gpu
                    .with_stream(s, |g| plan.execute(g, src, dst, rows, dir));
                let compute = self.gpu.stream_ready_s(s);
                self.gpu
                    .memcpy_d2h_async(s, dst, 0, &mut out, 1, label_down);
                (h2d_start, h2d, compute, self.gpu.stream_ready_s(s))
            }
            None => {
                let h2d_start = self.gpu.clock_s().max(self.gpu.pcie_busy_until_s());
                self.gpu.pcie_transfer(PcieDir::H2D, bytes, 1, label_up);
                self.gpu.mem_mut().upload(src, 0, &host);
                let h2d = self.gpu.clock_s();
                plan.execute(&mut self.gpu, src, dst, rows, dir);
                let compute = self.gpu.clock_s();
                self.gpu.pcie_transfer(PcieDir::D2H, bytes, 1, label_down);
                self.gpu.mem().download(dst, 0, &mut out);
                (h2d_start, h2d, compute, self.gpu.clock_s())
            }
        };
        self.gpu.span_end(&span);
        self.lanes[lane_idx].busy_until_s = completion_s;
        let outputs = keep_outputs.then(|| {
            let mut cut = Vec::with_capacity(payloads.len());
            let mut at = 0;
            for p in payloads {
                cut.push(out[at..at + p.len()].to_vec());
                at += p.len();
            }
            cut
        });
        Ok(Outcome {
            phases: Phases {
                plan_ready_s,
                h2d_start_s,
                h2d_done_s,
                compute_done_s,
                completion_s,
            },
            span,
            outputs,
            h2d_bytes: bytes,
            d2h_bytes: bytes,
            ..Outcome::default()
        })
    }

    /// Runs a batch of same-shape 3-D volumes back-to-back on the card's
    /// synchronous timeline and occupies the whole card until the last one
    /// completes (a volume plan owns card-wide buffers). Returns `Ok(None)`
    /// when the volume does not fit the card, in which case the service
    /// routes the batch to the multi-GPU sharder.
    ///
    /// # Errors
    /// Shape-validation errors from the planner propagate.
    pub(crate) fn dispatch_volumes(
        &mut self,
        dims: (usize, usize, usize),
        algo: Algorithm,
        payloads: &[&[Complex32]],
        dir: Direction,
        now_s: f64,
        keep_outputs: bool,
    ) -> Result<Option<Outcome>, FftError> {
        self.gpu.wait_until(now_s);
        let Some(plan) = self.cache.volume(&mut self.gpu, dims, algo)? else {
            return Ok(None);
        };
        let plan_ready_s = self.gpu.clock_s();
        let span = format!("serve_vol_{}x{}x{}_c{}", dims.0, dims.1, dims.2, self.index);
        self.gpu.span_begin(&span);
        let bytes = (dims.0 * dims.1 * dims.2) as u64 * 8;
        let (label_up, label_down) = &self.vol_labels;
        let mut phases = Vec::with_capacity(payloads.len());
        let mut outputs = keep_outputs.then(Vec::new);
        for payload in payloads {
            let h2d_start_s = self.gpu.clock_s().max(self.gpu.pcie_busy_until_s());
            self.gpu.pcie_transfer(PcieDir::H2D, bytes, 1, label_up);
            let h2d_done_s = self.gpu.clock_s();
            let (out, _rep) = plan.transform(&mut self.gpu, payload, dir)?;
            let compute_done_s = self.gpu.clock_s();
            self.gpu.pcie_transfer(PcieDir::D2H, bytes, 1, label_down);
            phases.push(Phases {
                plan_ready_s,
                h2d_start_s,
                h2d_done_s,
                compute_done_s,
                completion_s: self.gpu.clock_s(),
            });
            if let Some(o) = &mut outputs {
                o.push(out);
            }
        }
        self.gpu.span_end(&span);
        let last = *phases.last().expect("volume batch is nonempty");
        self.occupy_all(last.completion_s);
        let moved = bytes * payloads.len() as u64;
        Ok(Some(Outcome {
            phases: last,
            each: phases,
            span,
            outputs,
            h2d_bytes: moved,
            d2h_bytes: moved,
            ..Outcome::default()
        }))
    }

    /// Runs a whole pipeline DAG on the card's synchronous timeline, with
    /// every intermediate held in a refcounted device-resident slot, and
    /// occupies the whole card until the result lands, as a volume batch
    /// does. The final value is kept when `keep_outputs` is set or it is a
    /// terminal reduce's 2 elements.
    ///
    /// Stages execute in topological (submission) order, which satisfies
    /// every `after_mask` by construction: the synchronous timeline is the
    /// degenerate one-lane case of the stream/event machinery, so the
    /// hazard checker stays clean — no two stages ever overlap. Inputs
    /// upload lazily at first read; each value's slot frees the moment its
    /// last consumer has run (or moves, for in-place stages); under memory
    /// pressure the least-recently-used live slot spills to host and
    /// reloads on its next read, both counted by the residency ledger.
    ///
    /// # Errors
    /// [`FftError::Alloc`] when even spilling every other slot cannot make
    /// room (the card is simply too small for the DAG's live set). A DAG
    /// that fails after it started still closes its span, frees its slots
    /// and occupies the card up to the clock it reached.
    ///
    /// # Panics
    /// When `stages`/`inputs` violate [`crate::pipeline::validate_dag`] —
    /// the service validates at admission.
    pub(crate) fn dispatch_pipeline(
        &mut self,
        dims: (usize, usize, usize),
        stages: &[PipelineStage],
        inputs: &[Vec<Complex32>],
        now_s: f64,
        keep_outputs: bool,
    ) -> Result<Outcome, FftError> {
        self.gpu.wait_until(now_s);
        let plan = self.cache.pipeline(&mut self.gpu, dims)?;
        let plan_ready_s = self.gpu.clock_s();
        let vol = plan.fwd.volume();
        let span = format!(
            "serve_pipe_{}x{}x{}s{}_c{}",
            dims.0,
            dims.1,
            dims.2,
            stages.len(),
            self.index
        );
        self.gpu.span_begin(&span);
        let mut run = PipeRun {
            vol,
            bytes: vol as u64 * 8,
            stats: ResidencyStats::default(),
            h2d_bytes: 0,
            d2h_bytes: 0,
            h2d_start_s: None,
            h2d_done_s: plan_ready_s,
            tick: 0,
            label_up: &self.pipe_labels.0,
            label_down: &self.pipe_labels.1,
        };
        let (in_refs, st_refs) = consumer_counts(inputs.len(), stages);
        let mut slots: Vec<Slot> = inputs
            .iter()
            .zip(&in_refs)
            .map(|(v, &refs)| {
                assert_eq!(v.len(), vol, "input volume mismatch");
                Slot {
                    buf: None,
                    host: Some(plan.fwd.pack_input(v)),
                    refs,
                    last_use: 0,
                    out_layout: false,
                }
            })
            .collect();
        let slot_of = |op: Operand| match op {
            Operand::Input(i) => i as usize,
            Operand::Stage(s) => inputs.len() + s as usize,
        };
        let gpu = &mut self.gpu;
        let mut resident_s = 0.0;
        let mut stage_done_s = Vec::with_capacity(stages.len());
        // Every fallible step runs in here, so a DAG that fails mid-run
        // still closes its span, frees its slots and holds the card for
        // the device time it used.
        let ran = (|| -> Result<(f64, Vec<Complex32>), FftError> {
            let mut reduce_result: Option<(usize, f32)> = None;
            for (idx, st) in stages.iter().enumerate() {
                debug_assert_eq!(st.effective_after() >> idx, 0, "DAG arrives topo-sorted");
                let si = slot_of(st.src);
                let s2i = st.src2.map(&slot_of);
                let all_resident =
                    slots[si].buf.is_some() && s2i.is_none_or(|j| slots[j].buf.is_some());
                let pinned = [si, s2i.unwrap_or(si)];
                let a = run.touch(gpu, &mut slots, si, &pinned)?;
                let b = match s2i {
                    Some(j) => Some(run.touch(gpu, &mut slots, j, &pinned)?),
                    None => None,
                };
                let t0 = gpu.clock_s();
                let (buf, out_layout) = match st.kind {
                    StageKind::Forward => {
                        plan.fwd.execute(gpu, a, plan.work, Direction::Forward);
                        run.release(gpu, &mut slots, si, Some(a));
                        (Some(a), true)
                    }
                    StageKind::Inverse => {
                        plan.inv.execute(gpu, a, plan.work, Direction::Inverse);
                        run.release(gpu, &mut slots, si, Some(a));
                        // The chained inverse lands back in the forward plan's
                        // *input* layout.
                        (Some(a), false)
                    }
                    StageKind::Pointwise(PointwiseOp::Scale) => {
                        run_scale(gpu, a, vol, st.scale);
                        let layout = slots[si].out_layout;
                        run.release(gpu, &mut slots, si, Some(a));
                        (Some(a), layout)
                    }
                    StageKind::Pointwise(op) => {
                        let conj = op == PointwiseOp::ConjMultiply;
                        let b = b.expect("validated: multiply has src2");
                        let j = s2i.expect("validated: multiply has src2");
                        let layout = slots[si].out_layout;
                        // Reuse a dying operand's buffer as the destination —
                        // src2 first, mirroring the correlator's
                        // `mul(buf_a, buf_b, buf_b)` idiom.
                        let dst = if si == j {
                            if slots[si].refs == 2 {
                                a
                            } else {
                                run.alloc(gpu, &mut slots, &pinned)?
                            }
                        } else if slots[j].refs == 1 {
                            b
                        } else if slots[si].refs == 1 {
                            a
                        } else {
                            run.alloc(gpu, &mut slots, &pinned)?
                        };
                        run_pointwise_mul(gpu, a, b, dst, vol, st.scale, conj);
                        run.release(gpu, &mut slots, si, Some(dst));
                        run.release(gpu, &mut slots, j, Some(dst));
                        (Some(dst), layout)
                    }
                    StageKind::Reduce(op) => {
                        let got = match op {
                            ReduceOp::ArgMax => {
                                let (i, score, _) = run_argmax_norm(gpu, a, vol);
                                // The kernel reports an index into the plan's
                                // packed device layout — a card-side detail a
                                // served client cannot interpret. Map it back
                                // to the natural-order linear index (the same
                                // mapping apps::GpuCorrelator::unpack_index
                                // applies) before it crosses the wire.
                                let natural =
                                    packed_indices(plan.fwd.layout(), slots[si].out_layout)
                                        .position(|p| p == i)
                                        .expect("a packed index maps to a voxel");
                                (natural, score)
                            }
                            ReduceOp::Energy => {
                                let (e, _) = run_energy(gpu, a, vol);
                                (0, e)
                            }
                        };
                        reduce_result = Some(got);
                        run.release(gpu, &mut slots, si, None);
                        (None, false)
                    }
                };
                if all_resident {
                    resident_s += gpu.clock_s() - t0;
                }
                stage_done_s.push(gpu.clock_s());
                run.tick += 1;
                slots.push(Slot {
                    buf,
                    host: None,
                    refs: st_refs[idx],
                    last_use: run.tick,
                    out_layout,
                });
            }
            let compute_done_s = gpu.clock_s();

            // Result download: the final stage's value (8 bytes for a reduce).
            let last = slots.len() - 1;
            let output = if let Some((ri, rv)) = reduce_result {
                gpu.pcie_transfer(PcieDir::D2H, 8, 1, run.label_down);
                run.d2h_bytes += 8;
                slots[last].refs -= 1;
                vec![
                    Complex32::new(rv, 0.0),
                    Complex32::new((ri & 0xffff) as f32, (ri >> 16) as f32),
                ]
            } else {
                let b = run.touch(gpu, &mut slots, last, &[last])?;
                let mut packed = vec![Complex32::ZERO; vol];
                gpu.pcie_transfer(PcieDir::D2H, run.bytes, 1, run.label_down);
                gpu.mem().download(b, 0, &mut packed);
                run.d2h_bytes += run.bytes;
                // Unpack through the forward plan's mapping for the layout the
                // value sits in (an inverse output sits in the *input* one),
                // like the correlator does.
                let mut natural = Vec::with_capacity(vol);
                let order = packed_indices(plan.fwd.layout(), slots[last].out_layout);
                natural.extend(order.map(|p| packed[p]));
                run.release(gpu, &mut slots, last, None);
                natural
            };
            Ok((compute_done_s, output))
        })();
        let completion_s = gpu.clock_s();
        gpu.span_end(&span);
        self.residency.absorb(run.stats);
        let (compute_done_s, output) = match ran {
            Ok(done) => done,
            Err(e) => {
                for b in slots.iter_mut().filter_map(|s| s.buf.take()) {
                    gpu.mem_mut().free(b);
                }
                self.occupy_all(completion_s);
                return Err(e);
            }
        };
        debug_assert!(
            slots.iter().all(|s| s.refs == 0 && s.buf.is_none()),
            "every slot released"
        );
        let outcome = Outcome {
            phases: Phases {
                plan_ready_s,
                h2d_start_s: run.h2d_start_s.unwrap_or(plan_ready_s),
                h2d_done_s: run.h2d_done_s,
                compute_done_s,
                completion_s,
            },
            span,
            outputs: (keep_outputs || output.len() <= 2).then(|| vec![output]),
            h2d_bytes: run.h2d_bytes,
            d2h_bytes: run.d2h_bytes,
            stage_done_s,
            resident_s,
            ..Outcome::default()
        };
        self.occupy_all(completion_s);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::error::rel_l2_error_f32;
    use fft_math::fft1d::fft_pow2;
    use fft_math::rng::SplitMix64;

    fn rows_payload(n: usize, rows: usize, seed: u64) -> Vec<Complex32> {
        let mut rng = SplitMix64::new(seed);
        (0..n * rows)
            .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
            .collect()
    }

    #[test]
    fn stream_lanes_overlap_and_match_reference() {
        let mut card = Card::new(&DeviceSpec::gts8800(), 0, 2, 1 << 16, false).unwrap();
        let a = rows_payload(256, 8, 1);
        let b = rows_payload(256, 8, 2);
        let ra = card
            .dispatch_rows(0, 256, &[&a], Direction::Forward, 0.0, true)
            .unwrap();
        let rb = card
            .dispatch_rows(1, 256, &[&b], Direction::Forward, 0.0, true)
            .unwrap();
        // Lane 1's upload overlaps lane 0's compute: it finishes before the
        // serial sum of both batches would.
        let (pa, pb) = (ra.phases, rb.phases);
        assert!(pb.completion_s > pa.completion_s);
        for p in [pa, pb] {
            assert!(p.h2d_done_s <= p.compute_done_s);
            assert!(p.compute_done_s <= p.completion_s);
        }
        assert_eq!(ra.span, "serve_rows_256x8_c0l0");
        let serial = 2.0 * pa.completion_s;
        assert!(
            pb.completion_s < serial,
            "overlap: {} vs serial {serial}",
            pb.completion_s
        );
        for (payload, outcome) in [(&a, &ra), (&b, &rb)] {
            let out = &outcome.outputs.as_ref().unwrap()[0];
            for r in 0..8 {
                let mut want = payload[r * 256..(r + 1) * 256].to_vec();
                fft_pow2(&mut want, Direction::Forward);
                assert!(rel_l2_error_f32(&out[r * 256..(r + 1) * 256], &want) < 1e-5);
            }
        }
        assert_eq!(card.cache_stats().misses, 1);
        assert_eq!(card.cache_stats().hits, 1);
    }

    #[test]
    fn sync_lane_serializes() {
        let mut card = Card::new(&DeviceSpec::gts8800(), 0, 0, 1 << 16, false).unwrap();
        let a = rows_payload(256, 8, 1);
        let r1 = card
            .dispatch_rows(0, 256, &[&a], Direction::Forward, 0.0, false)
            .unwrap();
        let r2 = card
            .dispatch_rows(
                0,
                256,
                &[&a],
                Direction::Forward,
                r1.phases.completion_s,
                false,
            )
            .unwrap();
        let d1 = r1.phases.completion_s;
        let d2 = r2.phases.completion_s - r1.phases.completion_s;
        assert!((d1 - d2).abs() < 0.05 * d1, "equal batches take equal time");
    }

    #[test]
    fn volume_cache_hits_and_oversize_detection() {
        // A 4 MiB card: a 64^3 plan needs two 2 MiB buffers plus staging,
        // so it cannot fit; 16^3 fits fine.
        let mut spec = DeviceSpec::gts8800();
        spec.memory_bytes = 4 << 20;
        let mut card = Card::new(&spec, 0, 1, 1 << 10, false).unwrap();
        let small = rows_payload(16 * 16 * 16, 1, 3);
        let got = card
            .dispatch_volumes(
                (16, 16, 16),
                Algorithm::FiveStep,
                &[&small, &small],
                Direction::Forward,
                0.0,
                false,
            )
            .unwrap()
            .expect("16^3 fits");
        assert_eq!(got.each.len(), 2);
        assert!(got.each[0].completion_s < got.each[1].completion_s);
        assert_eq!(card.all_free_s(), got.each[1].completion_s);
        for p in &got.each {
            assert!(p.h2d_done_s <= p.compute_done_s);
            assert!(p.compute_done_s <= p.completion_s);
        }
        assert_eq!(got.span, "serve_vol_16x16x16_c0");
        assert_eq!(card.cache_stats().misses, 1, "one plan for two transforms");

        let big = rows_payload(64 * 64 * 64, 1, 4);
        let none = card
            .dispatch_volumes(
                (64, 64, 64),
                Algorithm::FiveStep,
                &[&big],
                Direction::Forward,
                0.0,
                false,
            )
            .unwrap();
        assert!(none.is_none(), "64^3 routes to the sharder");
        // The oversize verdict is memoised: no second allocation attempt.
        let misses = card.cache_stats().misses;
        let _ = card
            .dispatch_volumes(
                (64, 64, 64),
                Algorithm::FiveStep,
                &[&big],
                Direction::Forward,
                0.0,
                false,
            )
            .unwrap();
        assert_eq!(card.cache_stats().misses, misses);
    }
}
