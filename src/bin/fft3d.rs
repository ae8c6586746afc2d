//! `fft3d` — command-line 3-D FFT on the simulated GPU.
//!
//! ```text
//! fft3d --dims 64x64x64
//!       [--algo five-step|six-step|cufft-like|out-of-core|multi-gpu]
//!       [--device gt|gts|gtx|c1060] [--inverse]
//!       [--gpus N] [--streams K] [--slabs S]
//!       [--input volume.bin] [--output spectrum.bin] [--verify]
//!       [--check-hazards]
//! ```
//!
//! Volumes are raw little-endian interleaved `f32` complex values, x fastest
//! (`2*nx*ny*nz` floats). Without `--input`, a random volume is generated.
//! `--verify` cross-checks the result against the CPU transform.
//! `--check-hazards` runs under the cuda-memcheck/racecheck-style validation
//! layer and fails (exit 1) on any out-of-bounds, use-after-free,
//! uninitialized-read or cross-stream hazard diagnostic.

use bifft::out_of_core::summarize as summarize_ooc;
use bifft::plan::{Algorithm, Fft3d};
use nukada_fft_repro::gpu_sim;
use nukada_fft_repro::prelude::*;
use std::io::{Read, Write};
use std::process::ExitCode;

struct Args {
    dims: (usize, usize, usize),
    algo: Algorithm,
    device: DeviceSpec,
    dir: Direction,
    gpus: usize,
    streams: usize,
    slabs: usize,
    input: Option<String>,
    output: Option<String>,
    verify: bool,
    check: bool,
}

fn parse_dims(s: &str) -> Result<(usize, usize, usize), String> {
    let parts: Vec<&str> = s.split(['x', 'X', ',']).collect();
    let nums: Result<Vec<usize>, _> = parts.iter().map(|p| p.trim().parse()).collect();
    match nums.map_err(|e| format!("bad dims '{s}': {e}"))?.as_slice() {
        [n] => Ok((*n, *n, *n)),
        [a, b, c] => Ok((*a, *b, *c)),
        _ => Err(format!("dims must be N or NXxNYxNZ, got '{s}'")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        dims: (64, 64, 64),
        algo: Algorithm::FiveStep,
        device: DeviceSpec::gts8800(),
        dir: Direction::Forward,
        gpus: 2,
        streams: 2,
        slabs: 2,
        input: None,
        output: None,
        verify: false,
        check: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--dims" => args.dims = parse_dims(&next("--dims")?)?,
            "--algo" => args.algo = next("--algo")?.parse()?,
            "--device" => args.device = next("--device")?.parse()?,
            "--inverse" => args.dir = Direction::Inverse,
            "--gpus" => {
                args.gpus = next("--gpus")?
                    .parse()
                    .map_err(|e| format!("bad --gpus: {e}"))?
            }
            "--streams" => {
                args.streams = next("--streams")?
                    .parse()
                    .map_err(|e| format!("bad --streams: {e}"))?
            }
            "--slabs" => {
                args.slabs = next("--slabs")?
                    .parse()
                    .map_err(|e| format!("bad --slabs: {e}"))?
            }
            "--input" => args.input = Some(next("--input")?),
            "--output" => args.output = Some(next("--output")?),
            "--verify" => args.verify = true,
            "--check-hazards" => args.check = true,
            "--help" | "-h" => return Err("usage: see module docs (fft3d --dims NxNxN ...)".into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn read_volume(path: &str, len: usize) -> Result<Vec<Complex32>, String> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("reading {path}: {e}"))?;
    if bytes.len() != len * 8 {
        return Err(format!(
            "{path}: expected {} bytes ({} complex f32), found {}",
            len * 8,
            len,
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            c32(
                f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            )
        })
        .collect())
}

fn write_volume(path: &str, data: &[Complex32]) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for z in data {
        bytes.extend_from_slice(&z.re.to_le_bytes());
        bytes.extend_from_slice(&z.im.to_le_bytes());
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(&bytes))
        .map_err(|e| format!("writing {path}: {e}"))
}

/// Prints the checker's verdict to stderr; any diagnostic fails the run.
/// A `None` report (checking off) passes silently.
fn report_check(report: Option<gpu_sim::CheckReport>) -> Result<(), String> {
    match report {
        Some(rep) if rep.clean() => {
            eprintln!(
                "fft3d: check-hazards: clean ({} kernels, {} ops tracked)",
                rep.kernels_checked, rep.ops_tracked
            );
            Ok(())
        }
        Some(rep) => {
            eprintln!("{rep}");
            Err(format!(
                "check-hazards: {} diagnostic(s)",
                rep.access.len() + rep.hazards.len()
            ))
        }
        None => Ok(()),
    }
}

/// The requested transform, planned before any host volume exists:
/// planning runs the planner's shape envelope (`Algorithm::check_shape`,
/// inside `Fft3d`'s builder, `OutOfCoreFft::new` and `MultiGpuFft3d::new`),
/// so a rejected shape fails before its volume is built or read.
enum Planned {
    /// An in-core algorithm through the [`Fft3d`] facade, on its card.
    InCore(Box<(Gpu, Fft3d)>),
    /// The slab-streamed [`OutOfCoreFft`].
    OutOfCore(OutOfCoreFft),
    /// The [`MultiGpuFft3d`] fleet.
    MultiGpu(MultiGpuFft3d),
}

/// Plans the transform `args` ask for.
fn plan_transform(args: &Args) -> Result<Planned, String> {
    let (nx, ny, nz) = args.dims;
    Ok(match args.algo {
        Algorithm::OutOfCore => Planned::OutOfCore(
            OutOfCoreFft::new(&args.device, nx, ny, nz, args.slabs)
                .and_then(|p| p.with_streams(args.streams))
                .map_err(|e| e.to_string())?,
        ),
        Algorithm::MultiGpu => {
            let mut plan = MultiGpuFft3d::new(&args.device, args.gpus, nx, ny, nz)
                .map_err(|e| e.to_string())?;
            if args.check {
                plan.check_enable();
            }
            Planned::MultiGpu(plan)
        }
        _ => {
            let mut gpu = Gpu::new(args.device);
            let plan = Fft3d::builder(nx, ny, nz)
                .algorithm(args.algo)
                .checked(args.check)
                .build(&mut gpu)
                .map_err(|e| e.to_string())?;
            Planned::InCore(Box::new((gpu, plan)))
        }
    })
}

/// Runs the planned transform on `host`. Every path prints its timing
/// summary to stderr and returns the transformed volume.
fn run_transform(
    args: &Args,
    planned: Planned,
    host: &[Complex32],
) -> Result<Vec<Complex32>, String> {
    match planned {
        Planned::OutOfCore(plan) => {
            let mut gpu = Gpu::new(args.device);
            if args.check {
                gpu.check_enable();
            }
            let mut out = host.to_vec();
            let rep = plan
                .execute(&mut gpu, &mut out, args.dir)
                .map_err(|e| e.to_string())?;
            report_check(gpu.check_report())?;
            eprintln!("{}", summarize_ooc(&rep, args.dims));
            eprintln!(
                "fft3d: {} stream(s), wall {:.3} s vs {:.3} s serial legs",
                rep.streams,
                rep.wall_s,
                rep.total_s()
            );
            Ok(out)
        }
        Planned::MultiGpu(mut plan) => {
            let (out, rep) = plan.transform(host, args.dir).map_err(|e| e.to_string())?;
            report_check(plan.check_report())?;
            eprintln!("{}", bifft::multi_gpu::summarize(&rep, args.dims));
            Ok(out)
        }
        Planned::InCore(card) => {
            let (mut gpu, plan) = *card;
            let (out, report) = plan
                .transform(&mut gpu, host, args.dir)
                .map_err(|e| e.to_string())?;
            report_check(gpu.check_report())?;
            eprintln!("{}", report.step_table());
            Ok(out)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fft3d: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (nx, ny, nz) = args.dims;
    let vol = nx * ny * nz;
    let planned = match plan_transform(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fft3d: {e}");
            return ExitCode::FAILURE;
        }
    };

    let host = match &args.input {
        Some(path) => match read_volume(path, vol) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("fft3d: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            use fft_math::rng::SplitMix64;
            let mut rng = SplitMix64::new(0xF47);
            (0..vol)
                .map(|_| c32(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
                .collect()
        }
    };

    eprintln!(
        "fft3d: {}x{}x{} {} on simulated {} ({:?})",
        nx,
        ny,
        nz,
        args.algo.name(),
        args.device.name,
        args.dir
    );
    let out = match run_transform(&args, planned, &host) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fft3d: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.verify {
        let mut want = host.clone();
        CpuFft3d::new(nx, ny, nz).execute(&mut want, args.dir);
        let err = fft_math::error::rel_l2_error_f32(&out, &want);
        eprintln!("fft3d: verify vs CPU: rel L2 error {err:.2e}");
        if err > 1e-4 {
            eprintln!("fft3d: VERIFICATION FAILED");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.output {
        if let Err(e) = write_volume(path, &out) {
            eprintln!("fft3d: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fft3d: wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_parse() {
        assert_eq!(parse_dims("64").unwrap(), (64, 64, 64));
        assert_eq!(parse_dims("16x32x64").unwrap(), (16, 32, 64));
        assert_eq!(parse_dims("16,32,64").unwrap(), (16, 32, 64));
        assert!(parse_dims("16x32").is_err());
        assert!(parse_dims("abc").is_err());
    }

    #[test]
    fn device_parse() {
        let parse = |s: &str| parse_args(&["--device".to_string(), s.to_string()]);
        assert_eq!(parse("gtx").unwrap().device.name, "8800 GTX");
        assert_eq!(parse("C1060").unwrap().device.name, "Tesla C1060");
        assert!(parse("rtx4090").is_err());
    }

    #[test]
    fn algo_parse() {
        assert_eq!(
            "five-step".parse::<Algorithm>().unwrap(),
            Algorithm::FiveStep
        );
        assert_eq!(
            "conventional".parse::<Algorithm>().unwrap(),
            Algorithm::SixStep
        );
        assert_eq!("ooc".parse::<Algorithm>().unwrap(), Algorithm::OutOfCore);
        assert_eq!("mgpu".parse::<Algorithm>().unwrap(), Algorithm::MultiGpu);
        assert!("vkfft".parse::<Algorithm>().is_err());
    }

    #[test]
    fn args_parse_roundtrip() {
        let argv: Vec<String> = [
            "--dims",
            "32",
            "--algo",
            "six",
            "--device",
            "gt",
            "--inverse",
            "--verify",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.dims, (32, 32, 32));
        assert_eq!(a.algo, Algorithm::SixStep);
        assert_eq!(a.device.name, "8800 GT");
        assert_eq!(a.dir, Direction::Inverse);
        assert!(a.verify);
        assert!(!a.check);
        let b = parse_args(&["--check-hazards".to_string()]).unwrap();
        assert!(b.check);
    }

    #[test]
    fn volume_io_roundtrip() {
        let dir = std::env::temp_dir().join("fft3d_io_test.bin");
        let path = dir.to_str().unwrap();
        let data = vec![c32(1.5, -2.5), c32(0.0, 3.25)];
        write_volume(path, &data).unwrap();
        let back = read_volume(path, 2).unwrap();
        assert_eq!(back, data);
        assert!(read_volume(path, 3).is_err());
        let _ = std::fs::remove_file(path);
    }
}
