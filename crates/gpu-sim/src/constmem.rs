//! Constant memory: the §3.2 twiddle option 2.
//!
//! "The constant memory provides only a 32-bit data in each cycle" — reads
//! are broadcast: a half-warp fetching the *same* word costs one cycle, but
//! every additional distinct word serialises. That makes constant memory
//! great for uniform parameters and poor for per-lane twiddle factors, which
//! is exactly why the paper picks registers/texture for the FFT kernels.
//!
//! The model mirrors [`crate::shared`]: a functional store plus a
//! serialisation counter evaluated per half-warp at trace time.

use fft_math::Complex32;

/// Total constant memory on CUDA 1.x parts (64 KB).
pub const CONST_MEM_BYTES: usize = 64 * 1024;

/// A bound constant-memory table.
#[derive(Debug)]
pub struct ConstantBank {
    data: Vec<Complex32>,
    reads: u64,
}

impl ConstantBank {
    /// Binds a table; complex elements occupy two 32-bit constant words.
    ///
    /// # Panics
    /// Panics if the table exceeds the 64 KB constant segment.
    pub fn new(data: Vec<Complex32>) -> Self {
        assert!(
            data.len() * 8 <= CONST_MEM_BYTES,
            "constant segment holds at most {} complex values",
            CONST_MEM_BYTES / 8
        );
        ConstantBank { data, reads: 0 }
    }

    /// Functional read.
    #[inline]
    pub fn read(&mut self, idx: usize) -> Complex32 {
        self.reads += 1;
        self.data[idx]
    }

    /// Total reads issued.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Elements bound.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Serialisation cycles of one half-warp constant fetch: one cycle per
/// *distinct* index (a complex value is two words, fetched back to back —
/// the factor 2 is charged here).
pub fn broadcast_cycles(indices: &[usize]) -> u32 {
    let distinct = (0..indices.len())
        .filter(|&i| !indices[..i].contains(&indices[i]))
        .count();
    2 * distinct.max(1) as u32
}

/// Extra cycles versus the ideal single broadcast.
pub fn serialization_penalty(indices: &[usize]) -> u32 {
    broadcast_cycles(indices) - 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft_math::c32;

    #[test]
    fn functional_reads() {
        let mut c = ConstantBank::new(vec![c32(1.0, 2.0), c32(3.0, 4.0)]);
        assert_eq!(c.read(1), c32(3.0, 4.0));
        assert_eq!(c.read_count(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn uniform_fetch_broadcasts() {
        let idx = vec![7usize; 16];
        assert_eq!(broadcast_cycles(&idx), 2);
        assert_eq!(serialization_penalty(&idx), 0);
    }

    #[test]
    fn divergent_fetch_serialises() {
        let idx: Vec<usize> = (0..16).collect();
        assert_eq!(broadcast_cycles(&idx), 32);
        assert_eq!(serialization_penalty(&idx), 30);
    }

    #[test]
    fn partially_shared_fetch() {
        let idx = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3];
        assert_eq!(broadcast_cycles(&idx), 8);
    }

    #[test]
    #[should_panic(expected = "constant segment")]
    fn oversized_bind_panics() {
        ConstantBank::new(vec![Complex32::ZERO; 10_000]);
    }
}
