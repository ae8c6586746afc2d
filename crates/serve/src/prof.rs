//! The `fft-prof` binary: offline forensics over [`crate::ATTR_SCHEMA`]
//! attribution documents ([`crate::telemetry::attribution`]).
//!
//! ```text
//! fft-prof show FILE          # one run's latency budget and tail driver
//! fft-prof diff BEFORE AFTER  # which category moved between two runs
//! ```
//!
//! `show` prints the run's e2e percentiles, per-category budget and tail
//! driver; it exits 1 when the document does not parse or its recorded
//! conservation audit failed. `diff` compares two documents — typically a
//! trusted baseline against a fresh run — and names the category
//! responsible for any mean-latency movement; it exits 1 when either
//! document is unreadable, 2 on usage errors.

use crate::telemetry::attribution::{parse_attr_json, render_diff_text, render_summary_text};

fn usage() {
    eprintln!(
        "usage: fft-prof show FILE\n\
         \u{20}      fft-prof diff BEFORE AFTER"
    );
}

fn read_summary(path: &str) -> Result<crate::telemetry::AttrSummary, i32> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("fft-prof: cannot read {path}: {e}");
        1
    })?;
    parse_attr_json(&text).map_err(|e| {
        eprintln!("fft-prof: {path}: invalid attribution document: {e}");
        1
    })
}

/// Entry point for the `fft-prof` binary; returns the process exit code.
pub fn prof_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("show") if args.len() == 2 => {
            let s = match read_summary(&args[1]) {
                Ok(s) => s,
                Err(code) => return code,
            };
            print!("{}", render_summary_text(&s));
            if s.conservation_ok {
                0
            } else {
                eprintln!("fft-prof: {}: conservation audit FAILED", args[1]);
                1
            }
        }
        Some("diff") if args.len() == 3 => {
            let before = match read_summary(&args[1]) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let after = match read_summary(&args[2]) {
                Ok(s) => s,
                Err(code) => return code,
            };
            print!("{}", render_diff_text(&before, &after));
            0
        }
        _ => {
            usage();
            2
        }
    }
}
