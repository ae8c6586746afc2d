//! Per-SM shared memory: 16 KB, 16 banks, hazard and conflict tracking.
//!
//! §3 of the paper: "Each SM of CUDA GPUs contains a shared memory (currently
//! 16 Kbytes) that facilitates very fast data exchange between the threads
//! within the SM... Since shared memory has 16 banks which are accessible in
//! parallel, we employ a padding technique for efficient data exchange
//! without bank conflicts. To save the amount of shared memory to be
//! allocated, real parts are exchanged at first, and then the imaginary
//! parts" — which is why this model is 32-bit-word granular.
//!
//! The functional model stores real words and additionally detects
//! *synchronisation hazards*: a thread reading a word written by a different
//! thread in the same phase (i.e. without an intervening `__syncthreads()`)
//! is a data race on real hardware. The executor surfaces the race count so
//! tests can assert kernels are properly synchronised.

/// Shared-memory words are 32 bits, matching the bank width.
pub const WORD_BYTES: usize = 4;

/// One SM's shared memory.
#[derive(Debug)]
pub struct SharedMem {
    words: Vec<f32>,
    banks: usize,
    phase: u32,
    /// `(phase, thread)` of the last write to each word.
    last_writer: Vec<Option<(u32, u32)>>,
    reads: u64,
    writes: u64,
    races: u64,
}

impl SharedMem {
    /// Allocates `bytes` of shared memory with the given bank count.
    ///
    /// # Panics
    /// Panics if the allocation exceeds the SM capacity the caller's
    /// [`crate::spec::ArchConstants`] allows — enforcing §3's observation
    /// that a 256-block double buffer simply does not fit.
    pub fn new(bytes: usize, capacity_bytes: usize, banks: usize) -> Self {
        let mut m = SharedMem {
            words: Vec::new(),
            banks,
            phase: 0,
            last_writer: Vec::new(),
            reads: 0,
            writes: 0,
            races: 0,
        };
        m.reset(bytes, capacity_bytes, banks);
        m
    }

    /// Turns this memory into a fresh [`SharedMem::new`] of the given shape,
    /// keeping its storage: words zeroed, provenance cleared, phase and
    /// counters back to 0. The executor reuses retired blocks' memories this
    /// way instead of allocating one per block per launch.
    ///
    /// # Panics
    /// As [`SharedMem::new`].
    pub(crate) fn reset(&mut self, bytes: usize, capacity_bytes: usize, banks: usize) {
        assert!(
            bytes <= capacity_bytes,
            "shared allocation of {bytes} B exceeds the {capacity_bytes} B SM capacity"
        );
        let n = bytes / WORD_BYTES;
        self.words.clear();
        self.words.resize(n, 0.0);
        self.last_writer.clear();
        self.last_writer.resize(n, None);
        self.banks = banks;
        self.phase = 0;
        self.reads = 0;
        self.writes = 0;
        self.races = 0;
    }

    /// Number of 32-bit words allocated.
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Writes one word as `thread`.
    #[inline]
    pub fn write(&mut self, thread: u32, word: usize, value: f32) {
        self.writes += 1;
        // Write-after-write from different threads in one phase is also a
        // race; record it before overwriting the provenance.
        if let Some((p, t)) = self.last_writer[word] {
            if p == self.phase && t != thread {
                self.races += 1;
            }
        }
        self.words[word] = value;
        self.last_writer[word] = Some((self.phase, thread));
    }

    /// Reads one word as `thread`, flagging same-phase cross-thread reads.
    #[inline]
    pub fn read(&mut self, thread: u32, word: usize) -> f32 {
        self.reads += 1;
        if let Some((p, t)) = self.last_writer[word] {
            if p == self.phase && t != thread {
                self.races += 1;
            }
        }
        self.words[word]
    }

    /// Marks a `__syncthreads()` barrier: writes of earlier phases become
    /// safely visible.
    pub fn barrier(&mut self) {
        self.phase += 1;
    }

    /// Total reads performed.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Cross-thread same-phase accesses observed (should be 0 for a correctly
    /// synchronised kernel).
    pub fn race_count(&self) -> u64 {
        self.races
    }

    /// Bank count (16 on CUDA 1.x).
    pub fn banks(&self) -> usize {
        self.banks
    }
}

/// Most banks the conflict helpers accept (16 on CUDA 1.x, 32 from 2.x on).
pub const MAX_BANKS: usize = 32;

/// Most lanes one shared-memory op may carry (a 32-thread warp).
pub const MAX_LANES: usize = 32;

/// Distinct words each bank serves in one half-warp op, counted on the
/// stack: the quantity both the conflict degree and the heatmap derive from.
fn distinct_words_per_bank(word_indices: &[usize], banks: usize) -> [u32; MAX_BANKS] {
    assert!(
        (1..=MAX_BANKS).contains(&banks),
        "bank count {banks} outside 1..={MAX_BANKS}"
    );
    assert!(
        word_indices.len() <= MAX_LANES,
        "{} lanes exceed {MAX_LANES}",
        word_indices.len()
    );
    let mut sorted = [0usize; MAX_LANES];
    let sorted = &mut sorted[..word_indices.len()];
    sorted.copy_from_slice(word_indices);
    sorted.sort_unstable();
    let mut per_bank = [0u32; MAX_BANKS];
    for run in sorted.chunk_by(|a, b| a == b) {
        per_bank[run[0] % banks] += 1;
    }
    per_bank
}

/// Serialization degree of a half-warp of shared accesses.
///
/// Each bank serves one 32-bit word per cycle; lanes hitting different words
/// in the same bank serialise. Lanes reading the *same* word broadcast in a
/// single cycle (CUDA 1.x broadcast rule). Degree 1 means conflict-free.
///
/// # Panics
/// Panics unless `1 <= banks <= MAX_BANKS` and at most [`MAX_LANES`] words
/// are given.
pub fn bank_conflict_degree(word_indices: &[usize], banks: usize) -> u32 {
    let per_bank = distinct_words_per_bank(word_indices, banks);
    per_bank.into_iter().max().unwrap_or(0).max(1)
}

/// Extra cycles (beyond the conflict-free baseline of 1) a half-warp access
/// with the given indices costs.
pub fn conflict_penalty_cycles(word_indices: &[usize], banks: usize) -> u32 {
    bank_conflict_degree(word_indices, banks) - 1
}

/// Folds one half-warp's shared accesses into a per-bank conflict heatmap:
/// bank `b` gains (distinct words hit in `b` − 1) serialisation cycles, so a
/// conflict-free op contributes nothing and a fully serialised stride-16 op
/// puts its whole penalty on one bank — the shape the paper's padding fixes.
/// Returns the op's [`bank_conflict_degree`], so a caller needing both
/// counts the banks once.
///
/// # Panics
/// Panics unless `1 <= banks <= MAX_BANKS` and at most [`MAX_LANES`] words
/// are given.
pub fn accumulate_bank_conflicts(word_indices: &[usize], banks: usize, heat: &mut Vec<u64>) -> u32 {
    let per_bank = distinct_words_per_bank(word_indices, banks);
    if heat.len() < banks {
        heat.resize(banks, 0);
    }
    for (h, &c) in heat.iter_mut().zip(&per_bank[..banks]) {
        *h += u64::from(c.saturating_sub(1));
    }
    per_bank.into_iter().max().unwrap_or(0).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SharedMem {
        SharedMem::new(16 * 1024, 16 * 1024, 16)
    }

    #[test]
    fn oversized_allocation_panics() {
        // §3: double-buffering 256 blocks of 64 B needs 16 KB x 2 — refused.
        let r = std::panic::catch_unwind(|| SharedMem::new(32 * 1024, 16 * 1024, 16));
        assert!(r.is_err());
    }

    #[test]
    fn write_then_read_same_thread_is_safe() {
        let mut m = mem();
        m.write(3, 100, 1.5);
        assert_eq!(m.read(3, 100), 1.5);
        assert_eq!(m.race_count(), 0);
    }

    #[test]
    fn cross_thread_read_without_barrier_is_race() {
        let mut m = mem();
        m.write(0, 7, 2.0);
        let _ = m.read(1, 7);
        assert_eq!(m.race_count(), 1);
    }

    #[test]
    fn barrier_clears_hazard() {
        let mut m = mem();
        m.write(0, 7, 2.0);
        m.barrier();
        assert_eq!(m.read(1, 7), 2.0);
        assert_eq!(m.race_count(), 0);
    }

    #[test]
    fn conflicting_writes_are_races() {
        let mut m = mem();
        m.write(0, 9, 1.0);
        m.write(1, 9, 2.0);
        assert_eq!(m.race_count(), 1);
    }

    #[test]
    fn stride_one_is_conflict_free() {
        let idx: Vec<usize> = (0..16).collect();
        assert_eq!(bank_conflict_degree(&idx, 16), 1);
    }

    #[test]
    fn stride_sixteen_is_fully_serialised() {
        // All 16 lanes hit bank 0 with distinct words: degree 16. This is
        // exactly the conflict the paper's padding avoids.
        let idx: Vec<usize> = (0..16).map(|k| k * 16).collect();
        assert_eq!(bank_conflict_degree(&idx, 16), 16);
        assert_eq!(conflict_penalty_cycles(&idx, 16), 15);
    }

    #[test]
    fn padding_restores_conflict_freedom() {
        // Stride 17 (16 + 1 pad word) spreads lanes over all banks.
        let idx: Vec<usize> = (0..16).map(|k| k * 17).collect();
        assert_eq!(bank_conflict_degree(&idx, 16), 1);
    }

    #[test]
    fn broadcast_counts_once() {
        let idx = vec![42usize; 16];
        assert_eq!(bank_conflict_degree(&idx, 16), 1);
    }

    #[test]
    fn stride_two_degree_two() {
        let idx: Vec<usize> = (0..16).map(|k| k * 2).collect();
        assert_eq!(bank_conflict_degree(&idx, 16), 2);
    }

    #[test]
    fn heatmap_localises_the_conflicting_bank() {
        let mut heat = Vec::new();
        // Stride 16: all lanes in bank 0, 15 extra cycles there.
        let idx: Vec<usize> = (0..16).map(|k| k * 16).collect();
        accumulate_bank_conflicts(&idx, 16, &mut heat);
        assert_eq!(heat.len(), 16);
        assert_eq!(heat[0], 15);
        assert!(heat[1..].iter().all(|&c| c == 0));
        // Padded stride 17: conflict-free, heatmap unchanged.
        let idx: Vec<usize> = (0..16).map(|k| k * 17).collect();
        accumulate_bank_conflicts(&idx, 16, &mut heat);
        assert_eq!(heat[0], 15);
        assert_eq!(heat.iter().sum::<u64>(), 15);
        // Stride 2: one extra cycle in each even bank.
        let idx: Vec<usize> = (0..16).map(|k| k * 2).collect();
        accumulate_bank_conflicts(&idx, 16, &mut heat);
        assert_eq!(heat[2], 1);
        assert_eq!(heat[3], 0);
    }

    #[test]
    fn reset_restores_a_fresh_memory() {
        let mut m = mem();
        m.write(0, 1, 5.0);
        let _ = m.read(1, 1);
        m.barrier();
        m.reset(64, 16 * 1024, 32);
        assert_eq!(m.len_words(), 16);
        assert_eq!(m.banks(), 32);
        assert_eq!((m.read_count(), m.write_count(), m.race_count()), (0, 0, 0));
        // Contents zeroed and provenance cleared: a cross-thread read in
        // phase 0 of word 1 is no race.
        assert_eq!(m.read(3, 1), 0.0);
        assert_eq!(m.race_count(), 0);
        m.write(0, 2, 1.0);
        let _ = m.read(1, 2);
        assert_eq!(m.race_count(), 1, "phase restarts at 0");
    }
}
