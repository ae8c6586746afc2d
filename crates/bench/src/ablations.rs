//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! * **a1** — registers/thread vs achieved bandwidth (in
//!   [`crate::tables::section31_occupancy`]).
//! * **a2** — shared-memory padding: run the fine-grained kernel with the
//!   planner's conflict-free skews and with padding forced off, measure the
//!   bank-conflict serialisation with the simulator's own counter.
//! * **a3** — the four twiddle-factor sources of §3.2 (registers / constant
//!   / texture / recompute), modelled for step 5.
//! * **a4** — the five-step pass ordering vs a naive ordering that reads and
//!   writes pattern D (what you get without the digit-rotation relayout).

use bifft::kernel16::coarse_resources;
use bifft::kernel256::{batched_config, bind_twiddle_texture, run_batched_fft, FineFftPlan};
use fft_math::layout::AccessPattern;
use fft_math::twiddle::Direction;
use fft_math::Complex32;
use gpu_sim::dram::{effective_bandwidth_gbs, BandwidthQuery};
use gpu_sim::timing::estimate_pass;
use gpu_sim::{occupancy, DeviceSpec, Gpu, KernelReport};
use std::fmt::Write as _;

/// a2 — runs the 256-point fine kernel with and without padding and reports
/// the measured conflict rate and the time impact.
pub fn padding_ablation(rows: usize) -> String {
    let run = |plan: &FineFftPlan| -> KernelReport {
        let mut gpu = Gpu::new(DeviceSpec::gts8800());
        let buf = gpu.mem_mut().alloc(256 * rows).unwrap();
        let host: Vec<Complex32> = (0..256 * rows)
            .map(|i| Complex32::new(i as f32 * 1e-3, 0.0))
            .collect();
        gpu.mem_mut().upload(buf, 0, &host);
        let tw = bind_twiddle_texture(&mut gpu, 256, Direction::Forward);
        let cfg = batched_config(gpu.spec(), plan, rows, true, "a2");
        run_batched_fft(&mut gpu, &cfg, plan, buf, buf, rows, Direction::Forward, tw)
    };
    let padded = run(&FineFftPlan::new(256));
    let unpadded = run(&FineFftPlan::with_uniform_pad(256, (0, 0)));

    let mut s = format!("a2 padding ablation: 256-point fine kernel, {rows} rows (8800 GTS)\n");
    let _ = writeln!(
        s,
        "  padded:   conflict rate {:.2} extra cycles/half-warp, modelled {:.3} ms",
        padded.stats.shared_conflict_rate(),
        padded.timing.time_s * 1e3,
    );
    let _ = writeln!(
        s,
        "  unpadded: conflict rate {:.2} extra cycles/half-warp, modelled {:.3} ms ({:.2}x slower)",
        unpadded.stats.shared_conflict_rate(),
        unpadded.timing.time_s * 1e3,
        unpadded.timing.time_s / padded.timing.time_s,
    );
    s
}

/// The four twiddle options of §3.2, modelled for step 5 at 256³.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwiddleSource {
    /// Keep the factors in registers (fastest, costs occupancy).
    Registers,
    /// Constant memory ("provides only a 32-bit data in each cycle").
    ConstantMemory,
    /// Texture cache (the paper's choice for step 5).
    Texture,
    /// Recompute with sin/cos every time.
    Recompute,
}

/// a3 — models step-5 time at 256³ on the GTS under each twiddle source.
pub fn twiddle_source_ablation() -> String {
    let spec = DeviceSpec::gts8800();
    let elems = 1u64 << 24;
    let fine = FineFftPlan::new(256);
    let mut s = String::from("a3 twiddle-source ablation: step 5 at 256³ (8800 GTS, modelled)\n");
    for src in [
        TwiddleSource::Texture,
        TwiddleSource::Registers,
        TwiddleSource::ConstantMemory,
        TwiddleSource::Recompute,
    ] {
        let mut res = fine.resources();
        let mut flops_scale = 1.0f64;
        let mut extra_s = 0.0f64;
        match src {
            TwiddleSource::Texture => {}
            TwiddleSource::Registers => {
                // Three twiddles per thread per stage live in registers:
                // +6 registers, possibly costing resident blocks.
                res.regs_per_thread += 6;
            }
            TwiddleSource::ConstantMemory => {
                // One 32-bit broadcast per cycle: a half-warp fetching 16
                // distinct factors serialises ~8-way. Twiddle fetches:
                // 3 per butterfly x 64 threads x 3 twiddled stages per row.
                let rows = 65536u64;
                let fetches = rows * 64 * 3 * 3;
                let extra_cycles = fetches as f64 / 16.0 * 7.0;
                extra_s = extra_cycles / (spec.sms as f64 * spec.sp_clock_ghz * 1e9);
            }
            TwiddleSource::Recompute => {
                // sin+cos per factor ≈ 16 extra flops per twiddled value.
                flops_scale = 1.55;
            }
        }
        let mut cfg = batched_config(&spec, &fine, 65536, true, "a3");
        cfg.resources = res;
        cfg.nominal_flops = (cfg.nominal_flops as f64 * flops_scale) as u64;
        let t = estimate_pass(&spec, &cfg, elems);
        let occ = occupancy(&spec.arch, &res);
        let _ = writeln!(
            s,
            "  {:<16} {:>6.2} ms  (occupancy {:>3} threads/SM)",
            format!("{src:?}"),
            (t.time_s + extra_s) * 1e3,
            occ.threads_per_sm,
        );
    }
    s.push_str("  (the paper selects texture for step 5 and registers for steps 1-4)\n");
    s
}

/// a4 — the pass-ordering ablation: our D-read/A-B-write schedule vs a naive
/// schedule whose strided passes read *and* write pattern D.
pub fn pattern_order_ablation() -> String {
    let mut s = String::from(
        "a4 pass-ordering ablation: four strided passes at 256³, modelled per card\n\
         (the five-step relayout exists precisely to avoid D x D)\n",
    );
    for spec in DeviceSpec::all_cards() {
        let occ = occupancy(&spec.arch, &coarse_resources(16));
        let bw = |r, w| {
            effective_bandwidth_gbs(
                &spec,
                &BandwidthQuery {
                    read_pattern: r,
                    write_pattern: w,
                    threads_per_sm: occ.threads_per_sm,
                    coalesce_efficiency: 1.0,
                    in_place: false,
                    carries_compute: true,
                },
            )
        };
        let bytes = 2.0 * 8.0 * (1u64 << 24) as f64;
        let ours = 2.0 * bytes / (bw(AccessPattern::D, AccessPattern::A) * 1e9)
            + 2.0 * bytes / (bw(AccessPattern::D, AccessPattern::B) * 1e9);
        let naive = 4.0 * bytes / (bw(AccessPattern::D, AccessPattern::D) * 1e9);
        let _ = writeln!(
            s,
            "  {:<9} ours {:>6.2} ms | naive DxD {:>6.2} ms ({:.2}x slower)",
            spec.name,
            ours * 1e3,
            naive * 1e3,
            naive / ours,
        );
    }
    s
}

/// All ablations concatenated.
pub fn full_ablations(rows: usize) -> String {
    let mut s = String::new();
    s.push_str(&crate::tables::section31_occupancy());
    s.push('\n');
    s.push_str(&padding_ablation(rows));
    s.push('\n');
    s.push_str(&twiddle_source_ablation());
    s.push('\n');
    s.push_str(&pattern_order_ablation());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_matters() {
        let s = padding_ablation(64);
        assert!(s.contains("padded:   conflict rate 0.00"), "{s}");
        // Unpadded must show real conflicts and a slowdown.
        assert!(s.contains("x slower"));
        let unpadded = FineFftPlan::with_uniform_pad(256, (0, 0));
        assert!(unpadded.planned_conflicts > 0);
    }

    #[test]
    fn naive_ordering_loses() {
        let s = pattern_order_ablation();
        for line in s.lines().filter(|l| l.contains("naive")) {
            let factor: f64 = line
                .split('(')
                .nth(1)
                .and_then(|t| t.split('x').next())
                .and_then(|t| t.trim().parse().ok())
                .expect("factor parses");
            assert!(factor > 1.3, "naive must be clearly slower: {line}");
        }
    }

    #[test]
    fn twiddle_sources_render() {
        let s = twiddle_source_ablation();
        for n in ["Texture", "Registers", "ConstantMemory", "Recompute"] {
            assert!(s.contains(n), "{s}");
        }
    }
}
