//! Regenerates every table and figure of the paper, printing paper values
//! beside the reproduction's.
//!
//! ```text
//! cargo run --release -p fft-bench --bin report              # everything
//! cargo run --release -p fft-bench --bin report -- --table 7
//! cargo run --release -p fft-bench --bin report -- --figure 1
//! cargo run --release -p fft-bench --bin report -- --ablations
//! cargo run --release -p fft-bench --bin report -- --crosscheck 64
//! cargo run --release -p fft-bench --bin report -- --scaling
//! cargo run --release -p fft-bench --bin report -- --trace out.json
//! cargo run --release -p fft-bench --bin report -- --json
//! ```
//!
//! `--json` prints the same schema-versioned records `bifft-bench` writes
//! (the quick grid, schema `fft_bench::bench::BENCH_SCHEMA`), so the
//! human tables and the machine output share one generator and cannot
//! drift.

use fft_bench::{ablations, extensions, tables, validate};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{}", tables::full_report());
        println!();
        print!("{}", ablations::full_ablations(256));
        println!();
        print!("{}", extensions::full_extensions());
        println!();
        print!("{}", validate::crosscheck_report(64));
        return;
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => {
                let n: usize = it.next().expect("--table N").parse().expect("table number");
                let out = match n {
                    1 => tables::table1(),
                    2 => tables::table2(),
                    3 => tables::table3_4(0),
                    4 => tables::table3_4(1),
                    5 => tables::table5(),
                    6 => tables::table6(256),
                    7 => tables::table7(256),
                    8 => tables::table8(),
                    9 => tables::table9(),
                    10 => tables::table10(),
                    11 => tables::table11(),
                    12 => tables::table12(),
                    13 => tables::table13(),
                    _ => panic!("the paper has tables 1..=13"),
                };
                print!("{out}");
            }
            "--figure" => {
                let n: usize = it
                    .next()
                    .expect("--figure N")
                    .parse()
                    .expect("figure number");
                assert!((1..=3).contains(&n), "the paper has figures 1..=3");
                print!("{}", tables::figure(n));
            }
            "--section" => {
                let which = it.next().expect("--section ID").as_str();
                match which {
                    "2.1" => print!("{}", tables::section21_streams()),
                    "3.1" => print!("{}", tables::section31_occupancy()),
                    "4.2" => print!("{}", tables::section42_instruction_mix()),
                    other => panic!("no generator for section {other}"),
                }
            }
            "--ablations" => print!("{}", ablations::full_ablations(256)),
            "--extensions" => print!("{}", extensions::full_extensions()),
            // Multi-GPU and stream scaling (the --gpus/--streams knobs).
            "--scaling" => print!("{}", extensions::scaling_tables(64)),
            "--crosscheck" => {
                let n: usize = it.next().expect("--crosscheck N").parse().expect("size");
                print!("{}", validate::crosscheck_report(n));
            }
            "--trace" => {
                // A traced 64³ five-step run, exported for chrome://tracing.
                let path = it.next().expect("--trace PATH");
                let (rep, trace) = fft_bench::profile::run_profile(
                    gpu_sim::DeviceSpec::gts8800(),
                    bifft::plan::Algorithm::FiveStep,
                    64,
                )
                .unwrap_or_else(|e| {
                    eprintln!("report: {e}");
                    std::process::exit(1);
                });
                std::fs::write(path, trace.chrome_json())
                    .unwrap_or_else(|e| panic!("write {path}: {e}"));
                print!("{}", rep.step_table());
                eprintln!("trace written to {path}");
            }
            "--json" => {
                // The bifft-bench quick-grid records, on stdout.
                let (file, _, _) = fft_bench::bench::run_grid_checked(true, false);
                print!("{}", fft_bench::bench::to_json(&file));
            }
            other => panic!("unknown argument {other}; see the doc comment"),
        }
    }
}
