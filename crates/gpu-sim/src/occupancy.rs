//! Occupancy calculation: how many thread blocks fit on an SM.
//!
//! §2 of the paper: "The number of active thread blocks on each SM is
//! automatically determined from the resources requested by a thread block
//! such as registers, shared memory, and number of threads." Occupancy is
//! the pivot of the whole algorithm design: the 16-point kernels are sized
//! at 51–52 registers precisely so that 128 threads stay resident per SM
//! (§3.1), and the rejected 256-point-per-thread variant dies because 1024
//! registers/thread leaves only 8.

use crate::spec::ArchConstants;

/// Per-block resource demands of a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelResources {
    /// Threads per block.
    pub threads_per_block: usize,
    /// Registers per thread.
    pub regs_per_thread: usize,
    /// Shared memory per block, bytes.
    pub shared_bytes_per_block: usize,
}

impl KernelResources {
    /// The paper's coarse-grained 16-point kernel: 64-thread blocks, 52
    /// registers, no shared memory (§3.2).
    pub fn coarse_16pt() -> Self {
        KernelResources {
            threads_per_block: 64,
            regs_per_thread: 52,
            shared_bytes_per_block: 0,
        }
    }

    /// The paper's fine-grained 256-point kernel: 64 threads cooperate, 8
    /// registers each ("each thread uses only eight registers to store four
    /// complex numbers"), shared staging for one 256-point row of reals with
    /// bank padding (§3.2).
    pub fn fine_256pt() -> Self {
        KernelResources {
            threads_per_block: 64,
            regs_per_thread: 8 + 8, // 4 complex values + addressing/twiddle temps
            shared_bytes_per_block: (256 + 16) * 4,
        }
    }

    /// The rejected multirow 256-point-per-thread kernel: >512 data registers
    /// round up to a 1024-register allocation (§3.1).
    pub fn coarse_256pt() -> Self {
        KernelResources {
            threads_per_block: 8,
            regs_per_thread: 1024,
            shared_bytes_per_block: 0,
        }
    }
}

/// Which resource capped the block count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OccupancyLimit {
    /// Register file exhausted first.
    Registers,
    /// Shared memory exhausted first.
    SharedMemory,
    /// Max resident threads reached first.
    Threads,
    /// Max resident blocks reached first.
    Blocks,
}

/// Result of the occupancy calculation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: usize,
    /// Resident threads per SM.
    pub threads_per_sm: usize,
    /// The binding constraint.
    pub limit: OccupancyLimit,
}

/// Computes occupancy for a kernel on the given architecture.
///
/// # Panics
/// Panics if a single block already exceeds SM resources (unlaunchable
/// kernel) — the same hard error `cudaLaunch` would return.
pub fn occupancy(arch: &ArchConstants, res: &KernelResources) -> Occupancy {
    assert!(res.threads_per_block >= 1, "empty block");
    assert!(
        res.threads_per_block <= arch.max_threads_per_block,
        "block of {} exceeds the {}-thread block limit",
        res.threads_per_block,
        arch.max_threads_per_block
    );
    let regs_per_block = res.regs_per_thread * res.threads_per_block;
    assert!(
        regs_per_block <= arch.registers_per_sm,
        "one block needs {regs_per_block} registers, SM has {}",
        arch.registers_per_sm
    );
    assert!(
        res.shared_bytes_per_block <= arch.shared_mem_per_sm,
        "one block needs {} B shared, SM has {}",
        res.shared_bytes_per_block,
        arch.shared_mem_per_sm
    );

    let mut candidates = [
        (
            arch.registers_per_sm
                .checked_div(regs_per_block)
                .unwrap_or(usize::MAX),
            OccupancyLimit::Registers,
        ),
        (
            arch.shared_mem_per_sm
                .checked_div(res.shared_bytes_per_block)
                .unwrap_or(usize::MAX),
            OccupancyLimit::SharedMemory,
        ),
        (
            arch.max_threads_per_sm / res.threads_per_block,
            OccupancyLimit::Threads,
        ),
        (arch.max_blocks_per_sm, OccupancyLimit::Blocks),
    ];
    // Stable sort keeps the declaration order on ties, so the reported limit
    // is the most informative one (registers before the generic block cap).
    candidates.sort_by_key(|&(b, _)| b);
    let (blocks, limit) = candidates[0];
    Occupancy {
        blocks_per_sm: blocks,
        threads_per_sm: blocks * res.threads_per_block,
        limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CUDA1_ARCH;

    #[test]
    fn paper_16pt_kernel_gets_128_threads() {
        // §3.1: "allowing 128 threads to run on an SM".
        let occ = occupancy(&CUDA1_ARCH, &KernelResources::coarse_16pt());
        assert_eq!(occ.threads_per_sm, 128);
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limit, OccupancyLimit::Registers);
    }

    #[test]
    fn paper_256pt_per_thread_gets_8_threads() {
        // §3.1: "only eight threads can be executed on each SM".
        let occ = occupancy(&CUDA1_ARCH, &KernelResources::coarse_256pt());
        assert_eq!(occ.threads_per_sm, 8);
        assert_eq!(occ.limit, OccupancyLimit::Registers);
    }

    #[test]
    fn fine_grained_step5_is_well_occupied() {
        let occ = occupancy(&CUDA1_ARCH, &KernelResources::fine_256pt());
        assert!(
            occ.threads_per_sm >= 128,
            "step 5 must stay latency-hidden: {occ:?}"
        );
        assert_eq!(occ.blocks_per_sm, CUDA1_ARCH.max_blocks_per_sm);
    }

    #[test]
    fn register_budget_of_64_supports_128_threads() {
        // §3.2: 128 threads needed → at most 64 registers each.
        let res = KernelResources {
            threads_per_block: 128,
            regs_per_thread: 64,
            shared_bytes_per_block: 0,
        };
        let occ = occupancy(&CUDA1_ARCH, &res);
        assert_eq!(occ.threads_per_sm, 128);
        // One more register per thread (on a 96-thread block so a single
        // block still launches) and occupancy collapses below 128.
        let res65 = KernelResources {
            threads_per_block: 96,
            regs_per_thread: 65,
            shared_bytes_per_block: 0,
        };
        assert!(occupancy(&CUDA1_ARCH, &res65).threads_per_sm < 128);
    }

    #[test]
    fn shared_memory_can_be_the_limit() {
        let res = KernelResources {
            threads_per_block: 32,
            regs_per_thread: 8,
            shared_bytes_per_block: 8 * 1024,
        };
        let occ = occupancy(&CUDA1_ARCH, &res);
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limit, OccupancyLimit::SharedMemory);
    }

    #[test]
    fn thread_cap_applies() {
        let res = KernelResources {
            threads_per_block: 512,
            regs_per_thread: 4,
            shared_bytes_per_block: 0,
        };
        let occ = occupancy(&CUDA1_ARCH, &res);
        assert_eq!(occ.threads_per_sm, 512);
        assert_eq!(occ.limit, OccupancyLimit::Threads);
    }

    #[test]
    #[should_panic(expected = "registers")]
    fn unlaunchable_kernel_panics() {
        occupancy(
            &CUDA1_ARCH,
            &KernelResources {
                threads_per_block: 256,
                regs_per_thread: 64,
                shared_bytes_per_block: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "block limit")]
    fn oversized_block_panics() {
        occupancy(
            &CUDA1_ARCH,
            &KernelResources {
                threads_per_block: 1024,
                regs_per_thread: 1,
                shared_bytes_per_block: 0,
            },
        );
    }
}
