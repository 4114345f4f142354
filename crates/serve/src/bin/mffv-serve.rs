//! The solve daemon binary.
//!
//! ```text
//! mffv-serve [--addr 127.0.0.1:7419] [--workers N] [--session-window N]
//!            [--max-session-seconds S] [--port-file PATH] [--metrics]
//! ```
//!
//! Binds, prints the bound address (and writes it to `--port-file` if given,
//! for scripts binding port 0), then serves until a client sends a
//! `Shutdown` frame — `Drain` finishes every accepted job first, `Abort`
//! cancels at the next iteration boundary.

use mffv_serve::{RunningServer, ServeConfig, Server};
use mffv_telemetry::MetricsRegistry;
use std::process::ExitCode;

struct Args {
    config: ServeConfig,
    port_file: Option<String>,
    metrics: bool,
}

fn usage() -> &'static str {
    "usage: mffv-serve [--addr HOST:PORT] [--workers N] [--session-window N]\n\
     \x20                 [--max-session-seconds S] [--port-file PATH] [--metrics]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut config = ServeConfig::default();
    let mut port_file = None;
    let mut metrics = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?
            }
            "--session-window" => {
                config.session_window = value("--session-window")?
                    .parse()
                    .map_err(|_| "--session-window needs an integer".to_string())?
            }
            "--max-session-seconds" => {
                config.max_session_seconds = Some(
                    value("--max-session-seconds")?
                        .parse()
                        .map_err(|_| "--max-session-seconds needs a number".to_string())?,
                )
            }
            "--port-file" => port_file = Some(value("--port-file")?),
            "--metrics" => metrics = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(Args {
        config,
        port_file,
        metrics,
    })
}

fn run(args: Args) -> Result<(), String> {
    let registry = args.metrics.then(MetricsRegistry::new);
    let mut server = Server::new(args.config);
    if let Some(registry) = &registry {
        server = server.with_metrics(registry.clone());
    }
    let running: RunningServer = server.bind().map_err(|e| format!("bind failed: {e}"))?;
    let addr = running.local_addr();
    println!("mffv-serve listening on {addr}");
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let mode = running.wait_for_shutdown_request();
    println!("mffv-serve shutting down ({mode:?})");
    running.shutdown(mode);
    if let Some(registry) = &registry {
        let snapshot = registry.snapshot();
        for (name, value) in &snapshot.counters {
            println!("  {name} = {value}");
        }
        for (name, value) in &snapshot.gauges {
            println!("  {name} = {value}");
        }
        for (name, hist) in &snapshot.histograms {
            println!(
                "  {name}: count {}, p50 {:.3e} s, p99 {:.3e} s",
                hist.count(),
                hist.p50(),
                hist.p99()
            );
        }
    }
    println!("mffv-serve stopped");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mffv-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
