//! `sweep` — CSV parameter sweeps over size x card x algorithm, the data
//! series behind Figures 1–3 (and their extension to the C1060).
//!
//! ```text
//! cargo run --release -p fft-bench --bin sweep              # GFLOPS series
//! cargo run --release -p fft-bench --bin sweep -- steps     # per-step ms
//! cargo run --release -p fft-bench --bin sweep -- transfer  # with PCIe
//! ```
//!
//! Output is CSV on stdout, one row per (size, card, algorithm).

use bifft::plan::{Algorithm, FftError};
use fft_math::flops::nominal_flops_3d;
use gpu_sim::pcie::{transfer_time, Dir};
use gpu_sim::spec::DeviceSpec;

fn cards() -> Vec<DeviceSpec> {
    let mut v = DeviceSpec::all_cards().to_vec();
    v.push(DeviceSpec::tesla_c1060());
    v
}

const SIZES: [usize; 3] = [64, 128, 256];

fn total(est: &[(&'static str, gpu_sim::KernelTiming)]) -> f64 {
    est.iter().map(|(_, t)| t.time_s).sum()
}

fn gflops_series() -> Result<(), FftError> {
    println!("size,card,algorithm,time_ms,gflops");
    for n in SIZES {
        for spec in cards() {
            for algo in Algorithm::IN_CORE {
                let t = total(&algo.estimate_steps(&spec, n, n, n)?);
                println!(
                    "{n},{},{},{:.4},{:.2}",
                    spec.name,
                    algo.name(),
                    t * 1e3,
                    nominal_flops_3d(n, n, n) as f64 / t / 1e9
                );
            }
        }
    }
    Ok(())
}

fn step_series() -> Result<(), FftError> {
    println!("size,card,step,time_ms,achieved_gbs");
    for n in SIZES {
        for spec in cards() {
            let steps = Algorithm::FiveStep.estimate_steps(&spec, n, n, n)?;
            for (name, t) in steps {
                println!(
                    "{n},{},{name},{:.4},{:.2}",
                    spec.name,
                    t.time_s * 1e3,
                    t.achieved_gbs
                );
            }
        }
    }
    Ok(())
}

fn transfer_series() -> Result<(), FftError> {
    println!("size,card,on_board_ms,h2d_ms,d2h_ms,total_ms,gflops_total");
    for n in SIZES {
        let bytes = (n * n * n * 8) as u64;
        for spec in cards() {
            let fft = total(&Algorithm::FiveStep.estimate_steps(&spec, n, n, n)?);
            let h2d = transfer_time(spec.pcie, Dir::H2D, bytes, 1).time_s;
            let d2h = transfer_time(spec.pcie, Dir::D2H, bytes, 1).time_s;
            let tot = fft + h2d + d2h;
            println!(
                "{n},{},{:.4},{:.4},{:.4},{:.4},{:.2}",
                spec.name,
                fft * 1e3,
                h2d * 1e3,
                d2h * 1e3,
                tot * 1e3,
                nominal_flops_3d(n, n, n) as f64 / tot / 1e9
            );
        }
    }
    Ok(())
}

fn main() -> Result<(), FftError> {
    match std::env::args().nth(1).as_deref() {
        None | Some("gflops") => gflops_series(),
        Some("steps") => step_series(),
        Some("transfer") => transfer_series(),
        Some(other) => {
            eprintln!("sweep: unknown series '{other}' (gflops|steps|transfer)");
            std::process::exit(1);
        }
    }
}
