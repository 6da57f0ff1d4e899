//! `anvilc`: compile an Anvil `.anv` source file to SystemVerilog on
//! disk, or formally verify a safety property of it.
//!
//! ```sh
//! cargo run --release --example anvilc -- design.anv
//! cargo run --release --example anvilc -- design.anv -o out.sv --repeat 5
//! cargo run --release --example anvilc -- design.anv --prove ok --top main --max-k 10
//! cargo run --release --example anvilc -- @suite --self-profile trace.json
//! ```
//!
//! Every mode captures the tracer's span records and prints a per-stage
//! timing table aggregated from them, then the session's cumulative
//! query-cache counters (`CacheStats`). `--repeat N` runs the same input
//! N times through one session and turns the table into cold vs warm,
//! so the incremental win of each pipeline stage is visible directly
//! (run 1 is the cold column, runs 2..N average into the warm column).
//!
//! The pseudo-input `@suite` compiles all ten evaluation designs from
//! [`anvil::anvil_designs`] through one session instead of reading a
//! file — combined with `--self-profile <path>` this produces the
//! Perfetto-loadable Chrome `trace_event` JSON of the whole pipeline
//! that CI archives.
//!
//! Prove mode (`--prove <signal>`) bit-blasts the flattened top process
//! through the session's AIG cache and runs symbolic bounded model
//! checking plus k-induction on the named 1-bit signal ("the signal stays
//! truthy in every reachable state"): the result is `proved` (for all
//! time), `falsified` (with a replayed, rendered counterexample trace),
//! or `unknown` at the depth budget. `--repeat` demonstrates the warm AIG
//! path the same way it does for compilation.

use std::collections::BTreeMap;
use std::process::exit;
use std::time::Duration;

use anvil::anvil_trace::{chrome_trace, Capture, SpanRecord};
use anvil::verify::{prove, render_trace, ProveResult};
use anvil::{Control, Expr, Session};

struct Args {
    input: String,
    output: Option<String>,
    repeat: usize,
    prove: Option<String>,
    top: Option<String>,
    max_k: usize,
    self_profile: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: anvilc <input.anv> [-o <output.sv>] [--repeat N] [--self-profile <path>]
       anvilc <input.anv> --prove <signal> [--top <proc>] [--max-k N] [--repeat N]
       anvilc @suite [--repeat N] [--self-profile <path>]

Compiles an Anvil source file to SystemVerilog, or proves a property.
  -o <output.sv>   output path (default: input with a .sv extension)
  --repeat N       compile (or prove) N times through one session; the
                   per-stage table from span data becomes cold vs warm
  --prove <signal> verify that the 1-bit signal stays truthy in every
                   reachable state (symbolic BMC + k-induction)
  --top <proc>     the process to flatten for proving (default: the only
                   process in the file)
  --max-k N        k-induction depth budget (default 16)
  --self-profile <path>
                   trace the whole invocation and write Chrome
                   trace_event JSON (open in Perfetto / chrome://tracing)
  @suite           compile the ten-design evaluation suite through one
                   session instead of reading an input file"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        input: String::new(),
        output: None,
        repeat: 1,
        prove: None,
        top: None,
        max_k: 16,
        self_profile: None,
    };
    let mut input = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "-o" | "--output" => match argv.next() {
                Some(path) => args.output = Some(path),
                None => usage(),
            },
            "--repeat" => match argv.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => args.repeat = n,
                _ => usage(),
            },
            "--prove" => match argv.next() {
                Some(sig) => args.prove = Some(sig),
                None => usage(),
            },
            "--top" => match argv.next() {
                Some(t) => args.top = Some(t),
                None => usage(),
            },
            "--max-k" => match argv.next().and_then(|n| n.parse().ok()) {
                Some(n) => args.max_k = n,
                _ => usage(),
            },
            "--self-profile" => match argv.next() {
                Some(path) => args.self_profile = Some(path),
                None => usage(),
            },
            "-h" | "--help" => usage(),
            _ if input.is_none() && (arg == "@suite" || !arg.starts_with('-')) => {
                input = Some(arg);
            }
            _ => usage(),
        }
    }
    match input {
        Some(i) => {
            args.input = i;
            args
        }
        None => usage(),
    }
}

fn main() {
    let args = parse_args();
    // The profile capture wraps the whole invocation; the per-run
    // captures for the stage table nest inside it (captures are
    // refcounted).
    let capture = args.self_profile.as_ref().map(|_| Capture::start());

    let code = if args.input == "@suite" {
        if args.prove.is_some() || args.output.is_some() {
            eprintln!("anvilc: @suite supports neither --prove nor -o");
            exit(2);
        }
        suite_mode(&args)
    } else {
        let source = match std::fs::read_to_string(&args.input) {
            Ok(s) => s,
            Err(e) => {
                // Usage-class failure (bad invocation, not a bad
                // program): exit 2, same as unknown flags.
                eprintln!("anvilc: cannot read `{}`: {e}", args.input);
                exit(2);
            }
        };
        if args.prove.is_some() {
            prove_mode(&args, &source)
        } else {
            compile_mode(&args, &source)
        }
    };

    if let (Some(capture), Some(path)) = (capture, &args.self_profile) {
        let records = capture.finish();
        if let Err(e) = std::fs::write(path, chrome_trace(&records)) {
            eprintln!("anvilc: cannot write self-profile `{path}`: {e}");
            exit(1);
        }
        println!("wrote self-profile: {path} ({} spans)", records.len());
    }
    exit(code);
}

/// Sums span durations per `cat.name` stage for one run (instants are
/// skipped: they mark events, not time).
fn stage_totals(records: &[SpanRecord]) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for r in records {
        if r.dur_ns == 0 {
            continue;
        }
        *totals.entry(format!("{}.{}", r.cat, r.name)).or_insert(0) += r.dur_ns;
    }
    totals
}

/// Prints the per-stage table. One run prints one time column; more
/// print cold vs warm: run 1 is the cold column, runs 2..N average into
/// the warm column, delta is warm relative to cold. Stages absent from a
/// run (a cache hit skipping a pass body entirely) count as zero there.
fn print_stage_table(runs: &[BTreeMap<String, u64>]) {
    let fmt = |ns: u64| format!("{:.2?}", Duration::from_nanos(ns));
    let cold = &runs[0];
    let warm_runs = &runs[1..];
    if warm_runs.is_empty() {
        println!("\n{:<24} {:>10}", "stage", "time");
        for (key, &ns) in cold {
            println!("{key:<24} {:>10}", fmt(ns));
        }
        return;
    }
    let keys: std::collections::BTreeSet<&String> = runs.iter().flat_map(|r| r.keys()).collect();
    println!(
        "\n{:<24} {:>10} {:>10} {:>8}   (cold = run 1, warm = mean of runs 2..{})",
        "stage",
        "cold",
        "warm",
        "delta",
        runs.len()
    );
    for key in keys {
        let c = cold.get(key).copied().unwrap_or(0);
        let w_sum: u64 = warm_runs
            .iter()
            .map(|r| r.get(key).copied().unwrap_or(0))
            .sum();
        let w = w_sum / warm_runs.len() as u64;
        let delta = if c > 0 {
            format!("{:+.0}%", (w as f64 - c as f64) / c as f64 * 100.0)
        } else {
            "new".to_string()
        };
        println!("{key:<24} {:>10} {:>10} {delta:>8}", fmt(c), fmt(w));
    }
}

fn compile_mode(args: &Args, source: &str) -> i32 {
    let out_path = args.output.clone().unwrap_or_else(|| {
        let mut p = std::path::PathBuf::from(&args.input);
        p.set_extension("sv");
        p.display().to_string()
    });

    let session = Session::new();
    let mut last = None;
    let mut runs = Vec::new();
    for run in 1..=args.repeat {
        let cap = Capture::start();
        let t = std::time::Instant::now();
        match session.compile(source) {
            Ok(out) => {
                println!("run {run}/{}: {:.2?}", args.repeat, t.elapsed());
                last = Some(out);
            }
            Err(e) => {
                eprintln!("{}", e.render(source));
                return 1;
            }
        }
        runs.push(stage_totals(&cap.finish()));
    }
    let out = last.expect("at least one run");
    print_stage_table(&runs);

    if let Err(e) = std::fs::write(&out_path, &out.systemverilog) {
        eprintln!("anvilc: cannot write `{out_path}`: {e}");
        return 1;
    }
    println!(
        "wrote {} ({} bytes, {} modules)",
        out_path,
        out.systemverilog.len(),
        out.modules.iter().count()
    );
    println!("cache: {}", session.cache_stats());
    0
}

/// Compiles every design in the evaluation suite through one session.
/// Run 1 is all cold; later runs (with `--repeat`) are all warm, and
/// the same per-stage table as single-file mode shows the deltas.
fn suite_mode(args: &Args) -> i32 {
    let mut session = Session::new();
    // The aes design calls an `extern fn` backed by this LUT module.
    session.add_extern(anvil::anvil_designs::aes::sbox_module());
    let mut runs = Vec::new();
    for run in 1..=args.repeat {
        let cap = Capture::start();
        let t = std::time::Instant::now();
        let mut total_sv = 0usize;
        for (name, text) in anvil::anvil_designs::suite_sources() {
            match session.compile(&text) {
                Ok(out) => total_sv += out.systemverilog.len(),
                Err(e) => {
                    eprintln!("anvilc: suite design `{name}` failed to compile:");
                    eprintln!("{}", e.render(&text));
                    return 1;
                }
            }
        }
        println!(
            "suite run {run}/{}: {:.2?} ({total_sv} bytes of SystemVerilog)",
            args.repeat,
            t.elapsed()
        );
        runs.push(stage_totals(&cap.finish()));
    }
    print_stage_table(&runs);
    println!("cache: {}", session.cache_stats());
    0
}

fn prove_mode(args: &Args, source: &str) -> i32 {
    let signal = args.prove.as_deref().expect("prove mode has a signal");
    let session = Session::new();

    // Resolve the top process: the single proc of the file unless --top
    // names one.
    let top = match &args.top {
        Some(t) => t.clone(),
        None => {
            let program = match session.parse(source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}", e.render(source));
                    return 1;
                }
            };
            match program.procs.as_slice() {
                [only] => only.name.clone(),
                procs => {
                    eprintln!(
                        "anvilc: {} processes in `{}`; pick one with --top (candidates: {})",
                        procs.len(),
                        args.input,
                        procs
                            .iter()
                            .map(|p| p.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    exit(2);
                }
            }
        }
    };

    let mut exit_code = 0;
    let mut runs = Vec::new();
    for run in 1..=args.repeat {
        let cap = Capture::start();
        let t = std::time::Instant::now();
        // Through the session cache: run 2+ reuses the blasted AIG.
        let circuit = match session.compile_flat_aig(source, &top, &Control::none()) {
            Ok(flat) => flat.circuit,
            Err(e) => {
                eprintln!("{}", e.render(source));
                return 1;
            }
        };
        let module = circuit.module();
        let Some(sig) = module.find(signal) else {
            eprintln!(
                "anvilc: no signal `{signal}` in flattened `{top}` (signals: {})",
                module
                    .iter_signals()
                    .map(|(_, s)| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            exit(2);
        };
        let assertion = Expr::Signal(sig);
        match prove(&circuit, &assertion, args.max_k) {
            Ok((result, stats)) => {
                let dt = t.elapsed();
                match &result {
                    ProveResult::Proved { k } => {
                        println!(
                            "run {run}/{}: proved `{signal}` for all time by {k}-induction \
                             ({dt:.2?}; {} AIG nodes, {} latches, {} conflicts)",
                            args.repeat, stats.aig_nodes, stats.latches, stats.conflicts
                        );
                    }
                    ProveResult::Falsified { depth, trace } => {
                        println!(
                            "run {run}/{}: FALSIFIED `{signal}` at depth {depth} ({dt:.2?})",
                            args.repeat
                        );
                        match render_trace(module, &assertion, trace) {
                            Ok(text) => print!("{text}"),
                            Err(e) => eprintln!("anvilc: trace replay failed: {e}"),
                        }
                        exit_code = 1;
                    }
                    ProveResult::Unknown { depth } => {
                        println!(
                            "run {run}/{}: unknown — no violation within {depth} cycles, \
                             not {}-inductive ({dt:.2?}; {} conflicts)",
                            args.repeat,
                            args.max_k + 1,
                            stats.conflicts
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("anvilc: prove failed: {e}");
                return 1;
            }
        }
        runs.push(stage_totals(&cap.finish()));
    }
    print_stage_table(&runs);
    println!("cache: {}", session.cache_stats());
    exit_code
}
