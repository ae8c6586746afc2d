//! The `fft-gate` binary: the gateway server and its network tooling.
//!
//! ```text
//! fft-gate serve [--addr HOST:PORT] [--gpus N] [--streams N] [--queue N]
//!                [--window N] [--check-hazards] [--metrics-out PATH]
//!                [--port-file PATH]
//! fft-gate bench [--addr HOST:PORT] [--clients N] [--requests N]
//!                [--rate RPS] [--closed N] [--seed S]
//!                [--workload rows|mixed|pipeline] [--tenants N] [--gpus N] [--streams N]
//!                [--window N] [--check-hazards] [--validate-metrics]
//!                [--compare-local] [--metrics-out PATH]
//!                [--report-out PATH] [--shutdown]
//! fft-gate ping [--addr HOST:PORT] [--count N]
//! ```
//!
//! `serve` runs the poll loop until a client sends `Shutdown`;
//! `--port-file` writes the bound port once listening (the ephemeral-port
//! handshake CI uses), `--metrics-out` writes the final merged
//! serve+gateway metrics document at exit.
//!
//! `bench` is the network load generator. Without `--addr` it boots an
//! in-process gateway on an ephemeral port, so `fft-gate bench` alone is a
//! self-contained smoke test. `--compare-local` replays the identical
//! schedule in-process and fails unless the two `ServeReport` JSON
//! renders are byte-identical — the reproducibility acceptance check.
//! `--check-hazards` requires a validator-enabled server to answer clean,
//! and `--validate-metrics` fails the run on a malformed metrics document
//! or a violated SLO.

use crate::loadnet::{control, run_closed_loop_net, run_open_loop_net, NetLoad};
use crate::server::{GateConfig, GateServer};
use fft_math::json::{self, Value};
use fft_serve::{validate_metrics_json, FftService, ServeConfig, Workload};

struct Cli {
    addr: Option<String>,
    gpus: usize,
    streams: usize,
    queue: usize,
    window: usize,
    clients: usize,
    requests: u64,
    rate_rps: f64,
    closed: Option<u64>,
    seed: u64,
    workload: String,
    tenants: u32,
    count: u64,
    check_hazards: bool,
    validate_metrics: bool,
    compare_local: bool,
    shutdown: bool,
    metrics_out: Option<String>,
    report_out: Option<String>,
    port_file: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            addr: None,
            gpus: 2,
            streams: 2,
            queue: 64,
            window: 32,
            clients: 8,
            requests: 96,
            rate_rps: 4000.0,
            closed: None,
            seed: 42,
            workload: "mixed".to_string(),
            tenants: 1,
            count: 3,
            check_hazards: false,
            validate_metrics: false,
            compare_local: false,
            shutdown: false,
            metrics_out: None,
            report_out: None,
            port_file: None,
        }
    }
}

fn usage() {
    eprintln!(
        "usage: fft-gate serve [--addr HOST:PORT] [--gpus N] [--streams N] [--queue N] \
         [--window N] [--check-hazards] [--metrics-out PATH] [--port-file PATH]\n\
         \u{20}      fft-gate bench [--addr HOST:PORT] [--clients N] [--requests N] [--rate RPS] \
         [--closed N] [--seed S] [--workload rows|mixed|pipeline] [--tenants N] [--gpus N] \
         [--streams N] \
         [--window N] \
         [--check-hazards] [--validate-metrics] [--compare-local] [--metrics-out PATH] \
         [--report-out PATH] [--shutdown]\n\
         \u{20}      fft-gate ping [--addr HOST:PORT] [--count N]"
    );
}

/// Entry point for the `fft-gate` binary; returns the process exit code.
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage();
        return 2;
    };
    let mut cli = Cli::default();
    let mut it = args[1..].iter();
    macro_rules! take {
        ($flag:literal, $parse:expr) => {
            match it.next().and_then(|v| $parse(v.as_str())) {
                Some(v) => v,
                None => {
                    eprintln!(concat!("fft-gate: ", $flag, " needs a value"));
                    return 2;
                }
            }
        };
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cli.addr = Some(take!("--addr", |v: &str| Some(v.to_string()))),
            "--gpus" => cli.gpus = take!("--gpus", |v: &str| v.parse().ok()),
            "--streams" => cli.streams = take!("--streams", |v: &str| v.parse().ok()),
            "--queue" => cli.queue = take!("--queue", |v: &str| v.parse().ok()),
            "--window" => cli.window = take!("--window", |v: &str| v.parse().ok()),
            "--clients" => cli.clients = take!("--clients", |v: &str| v.parse().ok()),
            "--requests" => cli.requests = take!("--requests", |v: &str| v.parse().ok()),
            "--rate" => cli.rate_rps = take!("--rate", |v: &str| v.parse().ok()),
            "--closed" => cli.closed = Some(take!("--closed", |v: &str| v.parse().ok())),
            "--seed" => cli.seed = take!("--seed", |v: &str| v.parse().ok()),
            "--workload" => cli.workload = take!("--workload", |v: &str| Some(v.to_string())),
            "--tenants" => {
                cli.tenants = take!("--tenants", |v: &str| v.parse().ok().filter(|&n| n > 0));
            }
            "--count" => cli.count = take!("--count", |v: &str| v.parse().ok()),
            "--check-hazards" => cli.check_hazards = true,
            "--validate-metrics" => cli.validate_metrics = true,
            "--compare-local" => cli.compare_local = true,
            "--shutdown" => cli.shutdown = true,
            "--metrics-out" => {
                cli.metrics_out = Some(take!("--metrics-out", |v: &str| Some(v.to_string())));
            }
            "--report-out" => {
                cli.report_out = Some(take!("--report-out", |v: &str| Some(v.to_string())));
            }
            "--port-file" => {
                cli.port_file = Some(take!("--port-file", |v: &str| Some(v.to_string())));
            }
            other => {
                eprintln!("fft-gate: unknown argument {other}");
                usage();
                return 2;
            }
        }
    }
    match cmd {
        "serve" => cmd_serve(&cli),
        "bench" => cmd_bench(&cli),
        "ping" => cmd_ping(&cli),
        other => {
            eprintln!("fft-gate: unknown command '{other}'");
            usage();
            2
        }
    }
}

fn gate_config(cli: &Cli) -> Result<GateConfig, String> {
    let serve = ServeConfig::builder()
        .gpus(cli.gpus)
        .streams(cli.streams)
        .queue_capacity(cli.queue)
        .check_hazards(cli.check_hazards)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(GateConfig {
        serve,
        window: cli.window,
    })
}

fn cmd_serve(cli: &Cli) -> i32 {
    let cfg = match gate_config(cli) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fft-gate: bad config: {e}");
            return 2;
        }
    };
    let addr = cli.addr.as_deref().unwrap_or("127.0.0.1:4477");
    let server = match GateServer::bind(addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fft-gate: cannot bind {addr}: {e}");
            return 1;
        }
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fft-gate: no local address: {e}");
            return 1;
        }
    };
    if let Some(path) = &cli.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", bound.port())) {
            eprintln!("fft-gate: cannot write {path}: {e}");
            return 1;
        }
    }
    eprintln!(
        "fft-gate: listening on {bound} ({} gpu(s) x {} stream(s), queue {}, window {})",
        cli.gpus, cli.streams, cli.queue, cli.window
    );
    let svc = server.run();
    eprintln!(
        "fft-gate: shut down at t = {:.6}s virtual ({} completions)",
        svc.now_s(),
        svc.completions().len()
    );
    if let Some(path) = &cli.metrics_out {
        if let Err(e) = std::fs::write(path, svc.metrics_json()) {
            eprintln!("fft-gate: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("fft-gate: wrote metrics to {path}");
    }
    0
}

fn cmd_ping(cli: &Cli) -> i32 {
    let addr = cli.addr.as_deref().unwrap_or("127.0.0.1:4477");
    let mut client = match control(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fft-gate: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    for nonce in 0..cli.count {
        let start = std::time::Instant::now();
        match client.ping(nonce) {
            Ok(now_s) => {
                eprintln!(
                    "pong from {addr}: nonce {nonce}, rtt {:.3} ms, server virtual t = {now_s:.6}s",
                    start.elapsed().as_secs_f64() * 1e3
                );
            }
            Err(e) => {
                eprintln!("fft-gate: ping failed: {e}");
                return 1;
            }
        }
    }
    client.bye().ok();
    0
}

/// Replays the bench schedule in-process with the same config, producing
/// the report the gateway run must match byte-for-byte.
fn local_report(cli: &Cli, workload: &Workload) -> Result<String, String> {
    let cfg = gate_config(cli)?;
    let mut svc = FftService::new(cfg.serve).map_err(|e| e.to_string())?;
    match cli.closed {
        Some(c) => {
            fft_serve::run_closed_loop(&mut svc, workload, cli.requests, c, cli.seed);
        }
        None => {
            fft_serve::run_open_loop(&mut svc, workload, cli.requests, cli.rate_rps, cli.seed);
        }
    }
    svc.drain();
    Ok(svc.report().to_json())
}

fn cmd_bench(cli: &Cli) -> i32 {
    let mut workload: Workload = match cli.workload.parse() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("fft-gate: {e}");
            return 2;
        }
    };
    // Tenant tags ride the v1.2 Submit spec; the server accounts each
    // tenant under the default (equal-share) policy.
    workload.tenants = cli.tenants;
    // Without --addr, boot a private gateway on an ephemeral port so the
    // bench is self-contained.
    let (addr, local_server) = match &cli.addr {
        Some(a) => (a.clone(), None),
        None => {
            let cfg = match gate_config(cli) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("fft-gate: bad config: {e}");
                    return 2;
                }
            };
            let (bound, handle) = match GateServer::spawn("127.0.0.1:0", cfg) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("fft-gate: cannot boot an in-process gateway: {e}");
                    return 1;
                }
            };
            (bound.to_string(), Some(handle))
        }
    };
    let must_shutdown = cli.shutdown || local_server.is_some();

    let load = match cli.closed {
        Some(c) => run_closed_loop_net(&addr, &workload, cli.requests, c, cli.seed),
        None => run_open_loop_net(
            &addr,
            &workload,
            cli.requests,
            cli.rate_rps,
            cli.seed,
            cli.clients.max(1),
        ),
    };
    let load = match load {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fft-gate: load generation failed: {e}");
            return 1;
        }
    };

    let mut ctl = match control(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fft-gate: cannot open the control connection: {e}");
            return 1;
        }
    };
    let mut failures = 0u32;
    let report = (|| -> std::io::Result<String> {
        ctl.drain()?;
        ctl.report()
    })();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fft-gate: drain/report failed: {e}");
            return 1;
        }
    };
    print_summary(cli, &addr, &load, &report);

    if cli.check_hazards {
        match ctl.check() {
            Ok((enabled, clean, kernels, findings)) => {
                if !enabled {
                    eprintln!("fft-gate: FAIL: --check-hazards, but the server runs unchecked");
                    failures += 1;
                } else if !clean {
                    eprintln!("fft-gate: FAIL: validator found {findings} finding(s)");
                    failures += 1;
                } else {
                    eprintln!("fft-gate: hazard check clean over {kernels} kernel(s)");
                }
            }
            Err(e) => {
                eprintln!("fft-gate: check failed: {e}");
                failures += 1;
            }
        }
    }
    if cli.validate_metrics || cli.metrics_out.is_some() {
        match ctl.metrics() {
            Ok(doc) => {
                if let Some(path) = &cli.metrics_out {
                    if let Err(e) = std::fs::write(path, &doc) {
                        eprintln!("fft-gate: cannot write {path}: {e}");
                        failures += 1;
                    }
                }
                if cli.validate_metrics {
                    match validate_metrics_json(&doc) {
                        Ok(true) => eprintln!("fft-gate: metrics schema ok, slo ok"),
                        Ok(false) => {
                            eprintln!("fft-gate: FAIL: metrics valid but the SLO is violated");
                            failures += 1;
                        }
                        Err(e) => {
                            eprintln!("fft-gate: FAIL: invalid metrics document: {e}");
                            failures += 1;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("fft-gate: metrics fetch failed: {e}");
                failures += 1;
            }
        }
    }
    if let Some(path) = &cli.report_out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("fft-gate: cannot write {path}: {e}");
            failures += 1;
        }
    }
    if cli.compare_local {
        match local_report(cli, &workload) {
            Ok(local) if local == report => {
                eprintln!("fft-gate: gateway report is byte-identical to the in-process run");
            }
            Ok(_) => {
                eprintln!(
                    "fft-gate: FAIL: gateway report differs from the in-process run \
                     (same seed {})",
                    cli.seed
                );
                failures += 1;
            }
            Err(e) => {
                eprintln!("fft-gate: local replay failed: {e}");
                failures += 1;
            }
        }
    }

    if must_shutdown {
        if let Err(e) = ctl.shutdown() {
            eprintln!("fft-gate: shutdown failed: {e}");
            failures += 1;
        }
    } else {
        ctl.bye().ok();
    }
    if let Some(h) = local_server {
        h.join().ok();
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

fn print_summary(cli: &Cli, addr: &str, load: &NetLoad, report: &str) {
    let mode = match cli.closed {
        Some(c) => format!("closed loop x{c}"),
        None => format!(
            "open loop at {:.0} req/s, {} client(s)",
            cli.rate_rps, cli.clients
        ),
    };
    eprintln!(
        "fft-gate: bench against {addr}: {} requests, {mode}, seed {}",
        cli.requests, cli.seed
    );
    eprintln!(
        "offered:  {} over the wire ({} accepted, {} rejected)",
        load.offered, load.accepted, load.rejected
    );
    for (code, n) in &load.rejected_by_code {
        eprintln!("          {n} rejection(s) with wire code {code}");
    }
    if load.traced_acks > 0 {
        // Wire-level reconciliation (v1.1 ack stamps): the mean wall-clock
        // seconds the gateway held a submit between frame receipt and ack.
        // This is the slice of client-observed latency the server-side
        // attribution ledger cannot see.
        eprintln!(
            "wire:     {} traced ack(s), mean gateway hold {:.3} ms",
            load.traced_acks,
            load.gate_hold_s / load.traced_acks as f64 * 1e3
        );
    }
    // The headline serving numbers, printed as the report renders them.
    let report = json::parse(report).unwrap_or(Value::Null);
    for key in ["achieved_rps", "goodput_gbs", "p95_ms"] {
        if let Some(x) = report.get(key).and_then(Value::as_f64) {
            eprintln!("report:   \"{key}\": {x}");
        }
    }
}
