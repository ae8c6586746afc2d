//! Generators for every table and figure of the paper's evaluation (§4).
//!
//! Paper-scale numbers (256³, 512³) come from the analytic estimators, which
//! use the *same* launch configurations as the functional kernels — the
//! functional path is exercised by the test suite and by
//! [`crate::validate::functional_crosscheck`] at tractable sizes. Every cell
//! prints the paper's value next to ours with the relative deviation.

use crate::paper;
use bifft::cufft_like::cufft1d_config;
use bifft::five_step::FiveStepFft;
use bifft::kernel256::batched_config;
use bifft::noshared::noshared_config;
use bifft::out_of_core::OutOfCoreFft;
use bifft::Algorithm;
use cpu_fft::model::{fftw_model_gflops, fftw_model_seconds, CpuSpec};
use fft_math::flops::nominal_flops_3d;
use fft_math::layout::{AccessPattern, View5};
use gpu_sim::dram::{self, BandwidthQuery};
use gpu_sim::pcie::{transfer_time, Dir};
use gpu_sim::power::{cpu_system, gpu_system};
use gpu_sim::spec::DeviceSpec;
use gpu_sim::timing::{estimate_pass, time_kernel, KernelTiming};
use gpu_sim::{occupancy, KernelResources, KernelStats};
use std::fmt::Write as _;

fn cmp(ours: f64, paper_val: f64) -> String {
    format!(
        "{ours:>8.2} (paper {paper_val:>7.2}, {:+5.1}%)",
        paper::dev(ours, paper_val)
    )
}

/// Sum of estimated step times, seconds.
fn total(est: &[(&'static str, KernelTiming)]) -> f64 {
    est.iter().map(|(_, t)| t.time_s).sum()
}

/// GFLOPS of an estimated run at the nominal convention.
fn est_gflops(est: &[(&'static str, KernelTiming)], n: usize) -> f64 {
    nominal_flops_3d(n, n, n) as f64 / total(est) / 1e9
}

/// `algo`'s per-step estimate of an `n`³ transform on `spec`.
fn steps(algo: Algorithm, spec: &DeviceSpec, n: usize) -> Vec<(&'static str, KernelTiming)> {
    algo.estimate_steps(spec, n, n, n)
        .expect("cube inside the envelope")
}

/// Table 1 — device specifications.
pub fn table1() -> String {
    let mut s = String::from(
        "Table 1: Specifications of NVIDIA GeForce 8 series GPUs (simulated)\n\
         Model      Core  Proc  SM  SP   SP-Clock  GFLOPS  Capacity  Bus     Mem-Clock  Bandwidth\n",
    );
    for card in DeviceSpec::all_cards() {
        let _ = writeln!(
            s,
            "{:<10} {:<5} {:>3}nm {:>3} {:>3}  {:.3} GHz {:>6.0}  {:>4} MB  {:>3}-bit {:>6.0} MHz  {:>5.1} GB/s",
            card.name,
            card.core,
            card.process_nm,
            card.sms,
            card.total_sps(),
            card.sp_clock_ghz,
            card.peak_gflops(),
            card.memory_bytes / (1024 * 1024),
            card.memory_bus_bits,
            card.memory_clock_mhz,
            card.peak_bandwidth_gbs(),
        );
    }
    s
}

/// §2.1 — bandwidth vs concurrent stream count on the GTX.
pub fn section21_streams() -> String {
    let gtx = DeviceSpec::gtx8800();
    let base = dram::copy_base_gbs(&gtx);
    let mut s = String::from("§2.1: GTX copy bandwidth vs concurrent streams\nstreams  GB/s\n");
    for p in 0..=8 {
        let n = 1usize << p;
        let _ = writeln!(s, "{:>7}  {:>5.1}", n, base * dram::stream_decay(n));
    }
    let _ = writeln!(
        s,
        "paper anchors: 1 stream {} GB/s (ours {:.1}), 256 streams {} GB/s (ours {:.1})",
        paper::S21_ONE_STREAM_GBS,
        base * dram::stream_decay(1),
        paper::S21_256_STREAM_GBS,
        base * dram::stream_decay(256),
    );
    s
}

/// Table 2 — the four access patterns and their strides at 256³.
pub fn table2() -> String {
    let v = View5::new(256, [16, 16, 16, 16]);
    let mut s = String::from("Table 2: access patterns over V(256,16,16,16,16)\n");
    for p in AccessPattern::STRIDED {
        let _ = writeln!(
            s,
            "{}  running slot {}  stride {:>9} elements ({} KB)",
            p.label(),
            p.slot().unwrap(),
            v.pattern_stride(p),
            v.pattern_stride(p) * 8 / 1024,
        );
    }
    s
}

/// Tables 3 and 4 — pattern-pair copy bandwidth on the GT and GTX.
pub fn table3_4(card_idx: usize) -> String {
    let (spec, paper_m, label) = match card_idx {
        0 => (DeviceSpec::gt8800(), &paper::TABLE3_GT, "Table 3 (8800 GT)"),
        _ => (
            DeviceSpec::gtx8800(),
            &paper::TABLE4_GTX,
            "Table 4 (8800 GTX)",
        ),
    };
    let mut s = format!("{label}: GB/s per (input pattern x output pattern)\n in\\out      A            B            C            D\n");
    for (i, rp) in AccessPattern::STRIDED.iter().enumerate() {
        let _ = write!(s, "  {}   ", rp.label());
        for (j, wp) in AccessPattern::STRIDED.iter().enumerate() {
            let q = BandwidthQuery::pattern_copy(*rp, *wp);
            let ours = dram::effective_bandwidth_gbs(&spec, &q);
            let _ = write!(s, "{:>5.1}/{:<5.1} ", ours, paper_m[i][j]);
        }
        s.push('\n');
    }
    s.push_str("(each cell: ours/paper)\n");
    s
}

/// Table 5 — the evaluation system (documented configuration).
pub fn table5() -> String {
    "Table 5: evaluation system (as simulated)\n\
     CPU:      AMD Phenom 9500, 2.2 GHz, quad-core (roofline model)\n\
     Chipset:  AMD 790FX — PCIe 2.0 x16 (GT/GTS), PCIe 1.1 x16 (GTX)\n\
     RAM:      DDR2-800, STREAM ~9.5 GB/s\n\
     Software: simulated CUDA 1.x architecture (this crate)\n"
        .to_string()
}

/// Table 6 — six-step conventional algorithm per-step breakdown at `n`³.
pub fn table6(n: usize) -> String {
    let mut s = format!("Table 6: conventional six-step at {n}³ — per-step time (ms) and GB/s\n");
    let pass_gb = |t: &gpu_sim::KernelTiming| t.achieved_gbs;
    for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
        let est = steps(Algorithm::SixStep, spec, n);
        let fft = &est[0].1;
        let tr = &est[1].1;
        let (p_fft_ms, p_fft_gb, p_tr_ms, p_tr_gb) = paper::TABLE6[i];
        let _ = writeln!(
            s,
            "{:<9} fft-steps {} ms at {} GB/s | transposes {} ms at {} GB/s",
            spec.name,
            cmp(
                fft.time_s * 1e3,
                if n == 256 { p_fft_ms } else { fft.time_s * 1e3 }
            ),
            cmp(pass_gb(fft), if n == 256 { p_fft_gb } else { pass_gb(fft) }),
            cmp(
                tr.time_s * 1e3,
                if n == 256 { p_tr_ms } else { tr.time_s * 1e3 }
            ),
            cmp(pass_gb(tr), if n == 256 { p_tr_gb } else { pass_gb(tr) }),
        );
    }
    s
}

/// Table 7 — bandwidth-intensive kernel per-step breakdown at `n`³.
pub fn table7(n: usize) -> String {
    let mut s =
        format!("Table 7: bandwidth-intensive five-step at {n}³ — per-step time (ms) and GB/s\n");
    for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
        let est = FiveStepFft::estimate(spec, n, n, n);
        let (p1, p1g, p2, p2g, p5, p5g) = paper::TABLE7[i];
        let paper_vals = if n == 256 {
            [p1, p1g, p2, p2g, p5, p5g]
        } else {
            [
                est[0].1.time_s * 1e3,
                est[0].1.achieved_gbs,
                est[1].1.time_s * 1e3,
                est[1].1.achieved_gbs,
                est[4].1.time_s * 1e3,
                est[4].1.achieved_gbs,
            ]
        };
        let _ = writeln!(
            s,
            "{:<9} steps1/3 {} ms {} GB/s | steps2/4 {} ms {} GB/s | step5 {} ms {} GB/s",
            spec.name,
            cmp(est[0].1.time_s * 1e3, paper_vals[0]),
            cmp(est[0].1.achieved_gbs, paper_vals[1]),
            cmp(est[1].1.time_s * 1e3, paper_vals[2]),
            cmp(est[1].1.achieved_gbs, paper_vals[3]),
            cmp(est[4].1.time_s * 1e3, paper_vals[4]),
            cmp(est[4].1.achieved_gbs, paper_vals[5]),
        );
    }
    s
}

/// Table 8 — 65536 x 256-point 1-D FFTs, ours vs CUFFT1D.
pub fn table8() -> String {
    let rows = 65536usize;
    let elems = (rows * 256) as u64;
    let nominal = fft_math::flops::nominal_flops_batch(256, rows);
    let plan = bifft::wisdom::plan_arc(256);
    let mut s = String::from("Table 8: 65536 sets of 256-point 1-D FFTs\n");
    for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
        // Ours: one out-of-place fine-grained batched pass.
        let cfg = batched_config(spec, &plan, rows, false, "t8");
        let ours = estimate_pass(spec, &cfg, elems);
        // CUFFT1D: two legacy passes.
        let cu: f64 = ["cufft1d_pass1", "cufft1d_pass2"]
            .map(|name| estimate_pass(spec, &cufft1d_config(spec, 256, rows, name), elems).time_s)
            .iter()
            .sum();
        let (p_ms, p_gf, pc_ms, pc_gf) = paper::TABLE8[i];
        let _ = writeln!(
            s,
            "{:<9} ours {} ms = {} GFLOPS | cufft1d {} ms = {} GFLOPS",
            spec.name,
            cmp(ours.time_s * 1e3, p_ms),
            cmp(nominal as f64 / ours.time_s / 1e9, p_gf),
            cmp(cu * 1e3, pc_ms),
            cmp(nominal as f64 / cu / 1e9, pc_gf),
        );
    }
    s
}

/// Table 9 — shared vs texture vs non-coalesced X-axis exchange (GTS, 256³).
pub fn table9() -> String {
    let spec = DeviceSpec::gts8800();
    let n = 256usize;
    let vol = (n * n * n) as u64;
    let yz: f64 = FiveStepFft::estimate(&spec, n, n, n)
        .iter()
        .take(4)
        .map(|(_, t)| t.time_s)
        .sum();

    // Shared-memory kernel: the in-place fine-grained step 5.
    let shared_x = FiveStepFft::estimate(&spec, n, n, n)[4].1.time_s;

    // Both no-shared variants share the same coalesced first pass.
    let mk_cfg = |name: &'static str| noshared_config(&spec, n, vol as usize / n, 16, name);
    let pass1 = estimate_pass(&spec, &mk_cfg("x1"), vol).time_s;
    let occ = occupancy(&spec.arch, &mk_cfg("x2").resources);
    // Texture second pass: strided texture reads + coalesced writes.
    let tex_stats = KernelStats {
        stores: vol,
        tex_reads_strided: vol,
        ..Default::default()
    };
    let pass2_tex = time_kernel(&spec, &mk_cfg("x2t"), &occ, &tex_stats).time_s;
    // Non-coalesced second pass: 25%-efficient reads, coalesced writes.
    let nc_stats = KernelStats {
        loads: vol,
        stores: vol,
        sampled_load_useful: 128,
        sampled_load_bus: 512,
        sampled_store_useful: 128,
        sampled_store_bus: 128,
        ..Default::default()
    };
    let pass2_nc = time_kernel(&spec, &mk_cfg("x2n"), &occ, &nc_stats).time_s;

    let mut s = String::from("Table 9: X-axis exchange variants at 256³ on the 8800 GTS (ms)\n");
    let rows = [
        ("Shared memory", shared_x, 0.0, shared_x + yz),
        ("Texture memory", pass1, pass2_tex, pass1 + pass2_tex + yz),
        ("Not coalesced", pass1, pass2_nc, pass1 + pass2_nc + yz),
    ];
    for ((name, a, b, tot), (pname, pa, pb, ptot)) in rows.iter().zip(paper::TABLE9.iter()) {
        debug_assert_eq!(name, pname);
        if *b == 0.0 {
            let _ = writeln!(
                s,
                "{:<15} X {} | total {}",
                name,
                cmp(a * 1e3, *pa),
                cmp(tot * 1e3, *ptot)
            );
        } else {
            let _ = writeln!(
                s,
                "{:<15} X {} + {} | total {}",
                name,
                cmp(a * 1e3, *pa),
                cmp(b * 1e3, *pb),
                cmp(tot * 1e3, *ptot),
            );
        }
    }
    s
}

/// Table 10 — 256³ including the PCIe transfers.
pub fn table10() -> String {
    let n = 256usize;
    let bytes = (n * n * n * 8) as u64;
    let mut s = String::from("Table 10: 256³ including host<->device transfer\n");
    for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
        let h2d = transfer_time(spec.pcie, Dir::H2D, bytes, 1);
        let d2h = transfer_time(spec.pcie, Dir::D2H, bytes, 1);
        let fft = total(&FiveStepFft::estimate(spec, n, n, n));
        let tot = h2d.time_s + fft + d2h.time_s;
        let gf = nominal_flops_3d(n, n, n) as f64 / 1e9;
        let p = paper::TABLE10[i];
        let _ = writeln!(
            s,
            "{:<9} h2d {} ms ({} GB/s) | fft {} ms ({} GFLOPS) | d2h {} ms ({} GB/s) | total {} ms ({} GFLOPS)",
            spec.name,
            cmp(h2d.time_s * 1e3, p.0),
            cmp(h2d.achieved_gbs, p.1),
            cmp(fft * 1e3, p.2),
            cmp(gf / fft, p.3),
            cmp(d2h.time_s * 1e3, p.4),
            cmp(d2h.achieved_gbs, p.5),
            cmp(tot * 1e3, p.6),
            cmp(gf / tot, p.7),
        );
    }
    s
}

/// Table 11 — FFTW at 256³ on the 2008 CPUs (roofline model).
pub fn table11() -> String {
    let mut s = String::from("Table 11: FFTW 3.2alpha2 at 256³ (single precision, 4 cores)\n");
    for (spec, (pname, p_ms, p_gf)) in [CpuSpec::phenom_9500(), CpuSpec::core2_q6700()]
        .iter()
        .zip(paper::TABLE11.iter())
    {
        debug_assert_eq!(spec.name, *pname);
        let t = fftw_model_seconds(spec, 256, 256, 256);
        let g = fftw_model_gflops(spec, 256, 256, 256);
        let _ = writeln!(
            s,
            "{:<24} {} ms = {} GFLOPS",
            spec.name,
            cmp(t * 1e3, *p_ms),
            cmp(g, *p_gf),
        );
    }
    s
}

/// Table 12 — 512³ out-of-core, per card plus the FFTW row.
pub fn table12() -> String {
    let mut s = String::from("Table 12: 512³ out-of-core over PCIe (8 slabs of 512x512x64)\n");
    for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
        let plan = OutOfCoreFft::new(spec, 512, 512, 512, 8).unwrap();
        let est = plan.estimate(spec);
        let (p_s, p_gf) = paper::TABLE12[i];
        let _ = writeln!(
            s,
            "{:<9} total {} s = {} GFLOPS  [s1: h2d {:.3} fft {:.3} tw {:.3} d2h {:.3} | s2: h2d {:.3} fft {:.3} d2h {:.3}]",
            spec.name,
            cmp(est.total_s(), p_s),
            cmp(est.gflops(), p_gf),
            est.s1_h2d_s,
            est.s1_fft_s,
            est.s1_twiddle_s,
            est.s1_d2h_s,
            est.s2_h2d_s,
            est.s2_fft_s,
            est.s2_d2h_s,
        );
    }
    let f = fftw_model_seconds(&CpuSpec::phenom_9500(), 512, 512, 512);
    let _ = writeln!(
        s,
        "{:<9} total {} s = {} GFLOPS",
        "FFTW",
        cmp(f, paper::TABLE12_FFTW.0),
        cmp(
            fftw_model_gflops(&CpuSpec::phenom_9500(), 512, 512, 512),
            paper::TABLE12_FFTW.1
        ),
    );
    s
}

/// Table 13 — whole-system power and GFLOPS/W.
pub fn table13() -> String {
    let mut s = String::from("Table 13: whole-system power while looping 256³ FFTs\n");
    // CPU row.
    let cpu = cpu_system();
    let cpu_gf = fftw_model_gflops(&CpuSpec::phenom_9500(), 256, 256, 256);
    let p = paper::TABLE13[0];
    let _ = writeln!(
        s,
        "{:<18} idle {} W | load {} W | {} GFLOPS | {:.3} GFLOPS/W (paper {:.3})",
        cpu.name,
        cmp(cpu.idle_w, p.1),
        cmp(cpu.fft_load_w, p.2),
        cmp(cpu_gf, p.3),
        cpu.gflops_per_watt(cpu_gf),
        p.4,
    );
    for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
        let sys = gpu_system(spec);
        let gf = est_gflops(&FiveStepFft::estimate(spec, 256, 256, 256), 256);
        let p = paper::TABLE13[i + 1];
        let _ = writeln!(
            s,
            "{:<18} idle {} W | load {} W | {} GFLOPS | {:.3} GFLOPS/W (paper {:.3})",
            sys.name,
            cmp(sys.idle_w, p.1),
            cmp(sys.fft_load_w, p.2),
            cmp(gf, p.3),
            sys.gflops_per_watt(gf),
            p.4,
        );
    }
    s.push_str("ratio check (§4.7): GPUs have about 4x the CPU's GFLOPS/W\n");
    s
}

/// Figures 1–3 — on-board GFLOPS at 256³ / 64³ / 128³ for the three
/// algorithms on the three cards.
pub fn figure(which: usize) -> String {
    let (n, paper_bars) = match which {
        1 => (256usize, &paper::FIGURE1),
        2 => (64, &paper::FIGURE2),
        _ => (128, &paper::FIGURE3),
    };
    let mut s = format!(
        "Figure {which}: {n}³ on-board GFLOPS (bandwidth-intensive / conventional / CUFFT-like)\n"
    );
    for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
        let five = est_gflops(&steps(Algorithm::FiveStep, spec, n), n);
        let six = est_gflops(&steps(Algorithm::SixStep, spec, n), n);
        let cufft = est_gflops(&steps(Algorithm::CufftLike, spec, n), n);
        let p = paper_bars[i];
        let _ = writeln!(
            s,
            "{:<9} ours {} | conventional {} | cufft {}",
            spec.name,
            cmp(five, p.0),
            cmp(six, p.1),
            cmp(cufft, p.2),
        );
    }
    s.push_str(
        "shape checks: ours > conventional > cufft on every card; ours ≥ ~2x conventional and ≥ ~3x cufft at 256³\n",
    );
    s
}

/// §3.1 — the occupancy ablation: why 16 points per thread, not 256.
pub fn section31_occupancy() -> String {
    let gts = DeviceSpec::gts8800();
    let mut s = String::from(
        "§3.1 ablation: registers/thread -> occupancy -> effective bandwidth (8800 GTS, D-in/A-out pass)\n\
         points/thread  regs  threads/SM  GB/s\n",
    );
    for (pts, regs, tpb) in [
        (16usize, 52usize, 64usize),
        (32, 100, 32),
        (64, 260, 16),
        (256, 1024, 8),
    ] {
        let res = KernelResources {
            threads_per_block: tpb,
            regs_per_thread: regs,
            shared_bytes_per_block: 0,
        };
        let occ = occupancy(&gts.arch, &res);
        let q = BandwidthQuery {
            read_pattern: AccessPattern::D,
            write_pattern: AccessPattern::A,
            threads_per_sm: occ.threads_per_sm,
            coalesce_efficiency: 1.0,
            in_place: false,
            carries_compute: true,
        };
        let bw = dram::effective_bandwidth_gbs(&gts, &q);
        let _ = writeln!(
            s,
            "{:>13} {:>5} {:>11} {:>5.1}",
            pts, regs, occ.threads_per_sm, bw
        );
    }
    let _ = writeln!(
        s,
        "paper anchors: 16-pt kernel >{} GB/s; 256-pt kernel <{} GB/s",
        paper::S31_16PT_GBS,
        paper::S31_256PT_GBS
    );
    s
}

/// §4.2 — step-5 instruction-mix analysis: fraction of peak FLOPS.
pub fn section42_instruction_mix() -> String {
    let mut s = String::from("§4.2: step-5 achieved fraction of peak FLOPS\n");
    for spec in DeviceSpec::all_cards() {
        let est = FiveStepFft::estimate(&spec, 256, 256, 256);
        let step5 = &est[4].1;
        let frac = step5.achieved_gflops / spec.peak_gflops();
        let _ = writeln!(
            s,
            "{:<9} {:>5.1} GFLOPS of {:>5.0} peak = {:.0}% (paper: \"about {:.0}%\")",
            spec.name,
            step5.achieved_gflops,
            spec.peak_gflops(),
            frac * 100.0,
            paper::S42_STEP5_PEAK_FRACTION * 100.0,
        );
    }
    s
}

/// All tables and figures concatenated, in paper order.
pub fn full_report() -> String {
    let mut s = String::new();
    for part in [
        table1(),
        section21_streams(),
        table2(),
        table3_4(0),
        table3_4(1),
        table5(),
        table6(256),
        table7(256),
        table8(),
        table9(),
        table10(),
        table11(),
        table12(),
        table13(),
        figure(1),
        figure(2),
        figure(3),
        section31_occupancy(),
        section42_instruction_mix(),
    ] {
        s.push_str(&part);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_renders() {
        let r = full_report();
        for needle in ["Table 1", "Table 12", "Figure 3", "§4.2"] {
            assert!(r.contains(needle), "missing {needle}");
        }
        assert!(r.len() > 2000);
    }

    #[test]
    fn figure1_shape_holds() {
        // Who wins and by what factor (the reproduction contract).
        for spec in DeviceSpec::all_cards() {
            let five = est_gflops(&steps(Algorithm::FiveStep, &spec, 256), 256);
            let six = est_gflops(&steps(Algorithm::SixStep, &spec, 256), 256);
            let cufft = est_gflops(&steps(Algorithm::CufftLike, &spec, 256), 256);
            assert!(
                five > 1.7 * six,
                "{}: five {five:.1} vs six {six:.1}",
                spec.name
            );
            // Paper: "more than three times faster than any existing FFT
            // implementations on GPUs including CUFFT".
            assert!(
                five > 2.8 * cufft,
                "{}: five {five:.1} vs cufft {cufft:.1}",
                spec.name
            );
        }
    }

    #[test]
    fn table10_totals_close_to_paper() {
        // End-to-end totals within 10% on every card.
        let n = 256;
        let bytes = (n * n * n * 8) as u64;
        for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
            let tot = transfer_time(spec.pcie, Dir::H2D, bytes, 1).time_s
                + total(&FiveStepFft::estimate(spec, n, n, n))
                + transfer_time(spec.pcie, Dir::D2H, bytes, 1).time_s;
            let p = paper::TABLE10[i].6 / 1e3;
            assert!((tot - p).abs() / p < 0.10, "{}: {tot} vs {p}", spec.name);
        }
    }

    #[test]
    fn gtx_wins_on_board_but_loses_end_to_end() {
        // §4.4's punchline: PCIe 1.1 demotes the GTX from best to worst.
        let n = 256;
        let bytes = (n * n * n * 8) as u64;
        let mut on_board = Vec::new();
        let mut end_to_end = Vec::new();
        for spec in DeviceSpec::all_cards() {
            let fft = total(&FiveStepFft::estimate(&spec, n, n, n));
            on_board.push(fft);
            end_to_end.push(
                fft + transfer_time(spec.pcie, Dir::H2D, bytes, 1).time_s
                    + transfer_time(spec.pcie, Dir::D2H, bytes, 1).time_s,
            );
        }
        assert!(
            on_board[2] < on_board[0] && on_board[2] < on_board[1],
            "GTX fastest on-board"
        );
        assert!(
            end_to_end[2] > end_to_end[0] && end_to_end[2] > end_to_end[1],
            "GTX slowest with transfers"
        );
    }

    #[test]
    fn paper_per_step_cells_within_tolerance() {
        // Tables 6/7 cells at 256³ within 7% (transposes 15%).
        for (i, spec) in DeviceSpec::all_cards().iter().enumerate() {
            let est = FiveStepFft::estimate(spec, 256, 256, 256);
            let p = paper::TABLE7[i];
            for (ours, paper_ms, tol) in [
                (est[0].1.time_s * 1e3, p.0, 0.07),
                (est[1].1.time_s * 1e3, p.2, 0.07),
                (est[4].1.time_s * 1e3, p.4, 0.07),
            ] {
                assert!(
                    (ours - paper_ms).abs() / paper_ms < tol,
                    "{} step: {ours:.2} vs paper {paper_ms}",
                    spec.name
                );
            }
            let est6 = steps(Algorithm::SixStep, spec, 256);
            let p6 = paper::TABLE6[i];
            assert!(
                (est6[0].1.time_s * 1e3 - p6.0).abs() / p6.0 < 0.07,
                "{} fft",
                spec.name
            );
            assert!(
                (est6[1].1.time_s * 1e3 - p6.2).abs() / p6.2 < 0.15,
                "{} transpose",
                spec.name
            );
        }
    }
}
