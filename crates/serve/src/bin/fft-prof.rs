//! `fft-prof` — offline analysis of [`fft_serve::ATTR_SCHEMA`] attribution
//! documents.
//!
//! ```text
//! cargo run --release -p fft-serve --bin fft-serve -- --smoke --attr-out attr.json
//! cargo run --release -p fft-serve --bin fft-prof -- show attr.json
//! cargo run --release -p fft-serve --bin fft-prof -- diff baseline.json attr.json
//! ```
//!
//! See `crates/serve/src/prof.rs` for subcommands and exit-code semantics.

fn main() {
    std::process::exit(fft_serve::prof::prof_main());
}
