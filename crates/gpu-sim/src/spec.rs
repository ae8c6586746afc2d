//! Device specifications for the simulated GPUs (paper Table 1).
//!
//! All three evaluation cards are first-generation CUDA parts sharing the
//! G80/G92 microarchitecture; they differ only in the parameters below, which
//! is exactly why the paper can analyse its algorithm per-card. The constants
//! here are copied from Table 1 and §2 of the paper and from the public CUDA
//! 1.x programming guide (warp size, register file, shared memory, max
//! threads).

use crate::occupancy::{occupancy, KernelResources};

/// PCI-Express interface generation of the card (Table 10: the 8800 GTX is an
/// older design supporting only PCIe 1.1, which dominates its transfer times).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// PCI-Express 1.1 x16 — ~4 GB/s raw per direction.
    Gen1x16,
    /// PCI-Express 2.0 x16 — ~8 GB/s raw per direction.
    Gen2x16,
}

/// Architectural constants shared by every CUDA 1.x GPU (G80/G92).
#[derive(Clone, Copy, Debug)]
pub struct ArchConstants {
    /// Threads per warp.
    pub warp_size: usize,
    /// Threads per half-warp — the coalescing granularity (§2.1).
    pub half_warp: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Shared memory banks (32-bit wide, §3.2).
    pub shared_banks: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
}

/// The CUDA 1.x constants used by all simulated devices.
pub const CUDA1_ARCH: ArchConstants = ArchConstants {
    warp_size: 32,
    half_warp: 16,
    registers_per_sm: 8192,
    shared_mem_per_sm: 16 * 1024,
    shared_banks: 16,
    max_threads_per_sm: 768,
    max_blocks_per_sm: 8,
    max_threads_per_block: 512,
};

/// Full specification of one GPU model (Table 1 row).
#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Core codename (G80 / G92).
    pub core: &'static str,
    /// Process node, nm.
    pub process_nm: u32,
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// Streaming processors per SM (8 on all CUDA 1.x parts).
    pub sps_per_sm: usize,
    /// SP (shader) clock in GHz.
    pub sp_clock_ghz: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Memory interface width in bits.
    pub memory_bus_bits: u32,
    /// Effective memory data rate in MHz (DDR, as Table 1 reports it).
    pub memory_clock_mhz: f64,
    /// PCIe interface generation.
    pub pcie: PcieGen,
    /// Architecture constants.
    pub arch: ArchConstants,
}

impl DeviceSpec {
    /// A natural grid size: enough blocks to fill every SM at the kernel's
    /// occupancy (the paper's Tables 3–4 use 42 = 14 SMs x 3 and 48 = 16 x 3).
    pub fn fill_grid(&self, res: &KernelResources) -> usize {
        (self.sms * occupancy(&self.arch, res).blocks_per_sm).max(1)
    }

    /// Total streaming processors.
    pub fn total_sps(&self) -> usize {
        self.sms * self.sps_per_sm
    }

    /// Peak single-precision GFLOPS as Table 1 reports it: one MAD (2 flops)
    /// per SP per clock (`SPs x clock x 2`). This is also the basis of the
    /// paper's §4.2 "about 30% of its peak" statement and of our calibrated
    /// compute efficiencies.
    pub fn peak_gflops(&self) -> f64 {
        self.total_sps() as f64 * self.sp_clock_ghz * 2.0
    }

    /// Theoretical dual-issue peak (MAD + co-issued MUL, `SPs x clock x 3`) —
    /// the marketing number G80-class parts rarely sustain.
    pub fn dual_issue_gflops(&self) -> f64 {
        self.total_sps() as f64 * self.sp_clock_ghz * 3.0
    }

    /// Theoretical peak memory bandwidth in GB/s (`bus/8 * data rate`).
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.memory_bus_bits as f64 / 8.0 * self.memory_clock_mhz * 1e6 / 1e9
    }

    /// The GeForce 8800 GT (G92, 112 SPs, PCIe 2.0).
    pub const fn gt8800() -> Self {
        DeviceSpec {
            name: "8800 GT",
            core: "G92",
            process_nm: 65,
            sms: 14,
            sps_per_sm: 8,
            sp_clock_ghz: 1.500,
            memory_bytes: 512 * 1024 * 1024,
            memory_bus_bits: 256,
            memory_clock_mhz: 1800.0,
            pcie: PcieGen::Gen2x16,
            arch: CUDA1_ARCH,
        }
    }

    /// The GeForce 8800 GTS 512 (G92, 128 SPs, PCIe 2.0).
    pub const fn gts8800() -> Self {
        DeviceSpec {
            name: "8800 GTS",
            core: "G92",
            process_nm: 65,
            sms: 16,
            sps_per_sm: 8,
            sp_clock_ghz: 1.625,
            memory_bytes: 512 * 1024 * 1024,
            memory_bus_bits: 256,
            memory_clock_mhz: 1940.0,
            pcie: PcieGen::Gen2x16,
            arch: CUDA1_ARCH,
        }
    }

    /// The GeForce 8800 GTX (G80, 128 SPs, widest memory bus, PCIe 1.1).
    pub const fn gtx8800() -> Self {
        DeviceSpec {
            name: "8800 GTX",
            core: "G80",
            process_nm: 90,
            sms: 16,
            sps_per_sm: 8,
            sp_clock_ghz: 1.350,
            memory_bytes: 768 * 1024 * 1024,
            memory_bus_bits: 384,
            memory_clock_mhz: 1800.0,
            pcie: PcieGen::Gen1x16,
            arch: CUDA1_ARCH,
        }
    }

    /// The Tesla C1060 (GT200) — the "GPUs with double precision support"
    /// the paper's §4.5 anticipates. 30 SMs x 8 SPs at 1.296 GHz, 102 GB/s,
    /// one DP unit per SM (1/8 of SP throughput). Used by the
    /// double-precision projection in the report harness.
    pub const fn tesla_c1060() -> Self {
        DeviceSpec {
            name: "Tesla C1060",
            core: "GT200",
            process_nm: 65,
            sms: 30,
            sps_per_sm: 8,
            sp_clock_ghz: 1.296,
            memory_bytes: 4 * 1024 * 1024 * 1024,
            memory_bus_bits: 512,
            memory_clock_mhz: 1600.0,
            pcie: PcieGen::Gen2x16,
            arch: CUDA1_ARCH,
        }
    }

    /// Double-precision peak GFLOPS: GT200-class parts have one DP unit per
    /// SM (1/8 of the SP lanes); earlier cores have none.
    pub fn dp_gflops(&self) -> f64 {
        match self.core {
            "GT200" => self.sms as f64 * self.sp_clock_ghz * 2.0,
            _ => 0.0,
        }
    }

    /// The three evaluation cards, in Table 1 order.
    pub fn all_cards() -> [DeviceSpec; 3] {
        [Self::gt8800(), Self::gts8800(), Self::gtx8800()]
    }
}

impl std::str::FromStr for DeviceSpec {
    type Err = String;

    /// Parses a CLI card name, case-insensitively: `gt`, `gts`, `gtx` (or
    /// `8800gt`, `8800gts`, `8800gtx`) and `c1060` (or `tesla`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gt" | "8800gt" => Ok(Self::gt8800()),
            "gts" | "8800gts" => Ok(Self::gts8800()),
            "gtx" | "8800gtx" => Ok(Self::gtx8800()),
            "c1060" | "tesla" => Ok(Self::tesla_c1060()),
            other => Err(format!(
                "unknown card '{other}' (expected gt, gts, gtx or c1060)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_short_card_name_parses() {
        for (name, want) in [
            ("gt", DeviceSpec::gt8800()),
            ("gts", DeviceSpec::gts8800()),
            ("gtx", DeviceSpec::gtx8800()),
            ("c1060", DeviceSpec::tesla_c1060()),
        ] {
            let got: DeviceSpec = name.parse().unwrap();
            assert_eq!(got.name, want.name, "{name}");
            let upper: DeviceSpec = name.to_uppercase().parse().unwrap();
            assert_eq!(upper.name, want.name, "{name} upper-case");
        }
        assert!("titan".parse::<DeviceSpec>().is_err());
    }

    #[test]
    fn table1_gflops_match_paper() {
        // Table 1: GT 336, GTS 416, GTX 345 GFLOPS.
        assert!((DeviceSpec::gt8800().peak_gflops() - 336.0).abs() < 1.0);
        assert!((DeviceSpec::gts8800().peak_gflops() - 416.0).abs() < 1.0);
        assert!((DeviceSpec::gtx8800().peak_gflops() - 345.6).abs() < 1.0);
    }

    #[test]
    fn table1_bandwidth_match_paper() {
        // Table 1: GT 57.6, GTS 62.0, GTX 86.4 GB/s.
        assert!((DeviceSpec::gt8800().peak_bandwidth_gbs() - 57.6).abs() < 0.1);
        assert!((DeviceSpec::gts8800().peak_bandwidth_gbs() - 62.08).abs() < 0.1);
        assert!((DeviceSpec::gtx8800().peak_bandwidth_gbs() - 86.4).abs() < 0.1);
    }

    #[test]
    fn table1_sp_counts() {
        assert_eq!(DeviceSpec::gt8800().total_sps(), 112);
        assert_eq!(DeviceSpec::gts8800().total_sps(), 128);
        assert_eq!(DeviceSpec::gtx8800().total_sps(), 128);
    }

    #[test]
    fn tesla_c1060_dp_capability() {
        let t = DeviceSpec::tesla_c1060();
        // GT200: 240 SPs, ~622 GFLOPS SP (Table-1 convention), ~78 DP,
        // 102 GB/s.
        assert_eq!(t.total_sps(), 240);
        assert!((t.peak_gflops() - 622.0).abs() < 1.0);
        assert!((t.dp_gflops() - 77.8).abs() < 0.5);
        assert!((t.peak_bandwidth_gbs() - 102.4).abs() < 0.1);
        // The 2008 evaluation cards have no DP units.
        for card in DeviceSpec::all_cards() {
            assert_eq!(card.dp_gflops(), 0.0, "{}", card.name);
        }
    }

    #[test]
    fn gtx_is_pcie_1_1() {
        assert_eq!(DeviceSpec::gtx8800().pcie, PcieGen::Gen1x16);
        assert_eq!(DeviceSpec::gt8800().pcie, PcieGen::Gen2x16);
    }

    #[test]
    fn capacity_fits_256_cubed_but_not_512_cubed() {
        // §1: 512 MB supports out-of-place 256³ single-precision c2c
        // (2 buffers x 128 MiB), but 512³ needs 1 GiB+ (§3.3).
        let need_256 = 2u64 * 8 * (1 << 24);
        let need_512 = 2u64 * 8 * (1 << 27);
        for card in DeviceSpec::all_cards() {
            assert!(card.memory_bytes >= need_256, "{}", card.name);
            assert!(card.memory_bytes < need_512, "{}", card.name);
        }
    }

    #[test]
    fn dual_issue_is_three_halves_of_table1_peak() {
        let s = DeviceSpec::gts8800();
        assert!((s.dual_issue_gflops() / s.peak_gflops() - 1.5).abs() < 1e-12);
    }
}
