//! `anvild`: the persistent Anvil compile server.
//!
//! ```sh
//! # Editor/pipe mode: JSON-RPC frames on stdin, responses on stdout.
//! cargo run --release --example anvild -- --stdio
//!
//! # Daemon mode: serve any number of clients over a Unix socket.
//! cargo run --release --example anvild -- --socket /tmp/anvild.sock
//!
//! # Overload-hardened: 2 workers, 4 queued, everything else shed.
//! cargo run --release --example anvild -- --socket /tmp/anvild.sock \
//!     --max-concurrency 2 --max-queue 4
//! ```
//!
//! Every connection shares ONE compile session, so the query cache stays
//! warm across clients and across edits: the second client to compile an
//! unchanged file gets a pure cache hit. See the README's "Compile
//! server" and "Operational robustness" sections for the wire protocol,
//! and `examples/anvil-client.rs` for a scripted client.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixListener;
use std::process::exit;
use std::sync::Arc;

use anvil::anvil_core::fault::FaultPlan;
use anvil::anvild::{CompileService, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: anvild [--stdio]
       anvild --socket <path>

Persistent Anvil compile server (JSON-RPC 2.0, one JSON frame per line).
  --stdio                  serve a single client on stdin/stdout (default)
  --socket <path>          listen on a Unix socket; serves concurrent
                           clients against one shared compile session
  --max-concurrency <n>    heavy requests running at once (default: cores)
  --max-queue <n>          heavy requests waiting beyond that before the
                           server sheds with OVERLOADED (default: 32)
  --default-deadline-ms <n> deadline for requests without `deadlineMs`
  --watchdog-grace-ms <n>  overrun before the watchdog cancels a worker
                           (default: 250)
  --chaos                  honor chaos-test hooks (chaosStallMs param)
  --fault-seed <n>         install a seeded fault-injection plan
                           (chaos testing only; implies --chaos)
  --metrics-socket <path>  also listen on a second Unix socket that
                           serves one Prometheus-style metrics scrape
                           per connection (same registry the `metrics`
                           JSON-RPC method reads)"
    );
    exit(2);
}

enum Transport {
    Stdio,
    Socket(String),
}

struct Args {
    transport: Transport,
    config: ServiceConfig,
    fault_seed: Option<u64>,
    metrics_socket: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        transport: Transport::Stdio,
        config: ServiceConfig::default(),
        fault_seed: None,
        metrics_socket: None,
    };
    let mut argv = std::env::args().skip(1);
    let num = |argv: &mut dyn Iterator<Item = String>| -> u64 {
        argv.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--stdio" => args.transport = Transport::Stdio,
            "--socket" => match argv.next() {
                Some(path) => args.transport = Transport::Socket(path),
                None => usage(),
            },
            "--max-concurrency" => args.config.max_concurrency = num(&mut argv).max(1) as usize,
            "--max-queue" => args.config.max_queue = num(&mut argv) as usize,
            "--default-deadline-ms" => args.config.default_deadline_ms = Some(num(&mut argv)),
            "--watchdog-grace-ms" => args.config.watchdog_grace_ms = num(&mut argv),
            "--chaos" => args.config.chaos = true,
            "--metrics-socket" => match argv.next() {
                Some(path) => args.metrics_socket = Some(path),
                None => usage(),
            },
            "--fault-seed" => {
                args.fault_seed = Some(num(&mut argv));
                args.config.chaos = true;
            }
            "-h" | "--help" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let service = Arc::new(CompileService::with_config(
        anvil::Session::new(),
        args.config,
    ));
    if let Some(seed) = args.fault_seed {
        // The same op vocabulary the chaos suite uses; see
        // anvil_core::fault for the schedule derivation.
        let ops = [
            "session.compile",
            "session.unit",
            "cache.get",
            "cache.insert",
            "server.dispatch",
        ];
        service.set_fault_plan(Some(Arc::new(FaultPlan::seeded(seed, &ops, 8))));
        eprintln!("anvild: fault plan installed (seed {seed})");
    }
    if let Some(path) = &args.metrics_socket {
        serve_metrics_socket(&service, path);
    }
    match args.transport {
        Transport::Stdio => {
            // `Stdin` and `Stdout`, not their locks: the connection's
            // threads take turns reading and all of them write, so both
            // ends must be `Send`.
            let stdin = BufReader::new(std::io::stdin());
            if let Err(e) = service.serve(stdin, std::io::stdout()) {
                eprintln!("anvild: transport error: {e}");
                exit(1);
            }
        }
        Transport::Socket(path) => serve_socket(&service, &path),
    }
}

/// Listens on a side socket serving one Prometheus-style text scrape
/// per connection (write exposition, close). Runs on its own thread so
/// a scrape never competes with JSON-RPC traffic for the serve loop,
/// and exits with the daemon.
fn serve_metrics_socket(service: &Arc<CompileService>, path: &str) {
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("anvild: cannot bind metrics socket `{path}`: {e}");
            exit(1);
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("anvild: cannot configure metrics socket `{path}`: {e}");
        exit(1);
    }
    eprintln!("anvild: metrics on {path}");
    let service = Arc::clone(service);
    let path = path.to_string();
    std::thread::spawn(move || {
        while !service.is_shut_down() {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.write_all(service.metrics_text().as_bytes());
                    let _ = stream.flush();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                Err(e) => {
                    eprintln!("anvild: metrics accept failed: {e}");
                    break;
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    });
}

fn serve_socket(service: &Arc<CompileService>, path: &str) {
    // A stale socket file from a dead daemon would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("anvild: cannot bind `{path}`: {e}");
            exit(1);
        }
    };
    // Nonblocking accept so the loop can notice `shutdown` (sent by any
    // client) between connections and exit instead of hanging forever.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("anvild: cannot configure `{path}`: {e}");
        exit(1);
    }
    eprintln!("anvild: listening on {path}");
    let mut connections = Vec::new();
    // Transient accept errors (EINTR, a peer that connected and hung up
    // before we accepted) must not kill the listener; only a persistent
    // failure streak does.
    let mut consecutive_errors = 0u32;
    while !service.is_shut_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                let service = Arc::clone(service);
                connections.push(std::thread::spawn(move || {
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("anvild: cannot clone connection: {e}");
                            return;
                        }
                    });
                    let mut writer = stream;
                    if let Err(e) = service.serve(reader, &mut writer) {
                        eprintln!("anvild: connection error: {e}");
                    }
                    let _ = writer.flush();
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                ) && consecutive_errors < 16 =>
            {
                consecutive_errors += 1;
                eprintln!("anvild: transient accept error (retrying): {e}");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("anvild: accept failed: {e}");
                break;
            }
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(path);
    eprintln!("anvild: shut down");
}
