//! The Anvil benchmark: `edit_compile` and `prove_mix` drive the anvild
//! compile service over two closed-loop connections, `sim_sweep` drives
//! the simulator in-process. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload edit_compile --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`). Lines before it
//! give sample counts, the exact work counters and host noise.

mod edit;
mod prove;
mod service;
mod sim;
mod util;
mod wire;

use std::collections::BTreeMap;

use service::{Expect, Pass, Plan};
use util::{median, nproc, round_medians, Rng, Round, ROUNDS};

/// Connections of the service workloads: one per core of the reference
/// 2-core machine, each a closed loop.
const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, most of it process start, so one alone is noisy.
const SETUPS: usize = 21;
/// Timed blocks per second of `--seconds`. The count is fixed, so the
/// timed part's length follows the host: on the 2-core reference machine
/// edit_compile and sim_sweep took between 0.7x and 1.4x `--seconds`,
/// depending on the host's load, and prove_mix about twice as long.
const EDIT_BLOCKS_PER_S: f64 = 6.75;
/// prove_mix's p99 needs at least 1000 requests to have ten beyond it, so
/// its timed part runs about twice `--seconds`.
const PROVE_BLOCKS_PER_S: f64 = 3.75;
const SIM_BLOCKS_PER_S: f64 = 17.5;

const END_TO_END: [(&str, &str); 6] = [
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 64] = [
    ("anvild.wire_overhead_ms", "ms"),
    ("anvild.frame_parse_ms", "ms"),
    ("anvild.gate_wait_ms", "ms"),
    ("anvild.dispatch_ms", "ms"),
    ("anvild.req_bytes", "B"),
    ("anvild.resp_bytes", "B"),
    ("anvild.shed", "count"),
    ("anvild.deadline_expired", "count"),
    ("core.cache.check.hits", "count"),
    ("core.cache.check.misses", "count"),
    ("core.cache.opt_ir.hits", "count"),
    ("core.cache.opt_ir.misses", "count"),
    ("core.cache.lower.hits", "count"),
    ("core.cache.lower.misses", "count"),
    ("core.cache.emit.hits", "count"),
    ("core.cache.emit.misses", "count"),
    ("core.cache.aig.hits", "count"),
    ("core.cache.aig.misses", "count"),
    ("core.cache.proof.hits", "count"),
    ("core.cache.proof.misses", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.hit_ratio", "fraction"),
    ("core.compile_self_ms", "ms"),
    ("core.compiles_per_prove", "count"),
    ("syntax.parse_ms", "ms"),
    ("typeck.check_ms", "ms"),
    ("ir.optimize_ms", "ms"),
    ("codegen.lower_ms", "ms"),
    ("rtl.emit_ms", "ms"),
    ("rtl.sv_bytes", "B"),
    ("smt.blast_ms", "ms"),
    ("smt.aig_nodes", "count"),
    ("smt.aig_nodes_after_rewrite", "count"),
    ("smt.sat_conflicts", "count"),
    ("smt.optimize_ms", "ms"),
    ("smt.sat_ms", "ms"),
    ("smt.pdr_frames", "count"),
    ("verify.prepare_ms", "ms"),
    ("verify.portfolio_ms", "ms"),
    ("verify.revalidate_ms", "ms"),
    ("verify.symbolic_ms", "ms"),
    ("verify.pdr_ms", "ms"),
    ("verify.explicit_ms", "ms"),
    ("verify.wins.symbolic", "count"),
    ("verify.wins.pdr", "count"),
    ("verify.wins.explicit", "count"),
    ("verify.wins.cache", "count"),
    ("sim.tape_lower_ms", "ms"),
    ("sim.tape_ops", "count"),
    ("sim.regions", "count"),
    ("sim.region_exec_ratio", "fraction"),
    ("sim.batch_ns_per_cycle_lane", "ns"),
    ("sim.sweep_speedup", "ratio"),
    ("sim.scalar_ns_per_cycle", "ns"),
    ("sim.poke_ns_per_cycle", "ns"),
    ("sim.batch_cycle_lanes_per_s", "1/s"),
    ("sim.scalar_cycles_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.truncated_trees", "count"),
    ("host.steal_frac", "fraction"),
    ("gen.cpu_frac", "fraction"),
    ("sim.jobs", "count"),
    ("anvild.requests", "count"),
    ("anvild.prove_requests", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What a run reports.
#[derive(Default)]
struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <edit_compile|prove_mix|sim_sweep> --seed <n> \
         --seconds <n> --trace <0|1>\n       perfbench --self-test"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            _ => usage(),
        }
    }
    args
}

/// Blocks per run: proportional to `--seconds`, a multiple of the rounds.
fn blocks(seconds: f64, per_s: f64) -> usize {
    ((seconds * per_s / ROUNDS as f64).round() as usize).max(1) * ROUNDS
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--serve") {
        let name = argv.get(2).cloned().unwrap_or_else(|| usage());
        if let Err(e) = wire::serve(&name, CONNS) {
            eprintln!("perfbench service: {e}");
            std::process::exit(1);
        }
        return;
    }
    if argv.get(1).map(String::as_str) == Some("--sim-setup") {
        match sim::timed_prepare() {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("perfbench sim set-up: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if argv.get(1).map(String::as_str) == Some("--self-test") {
        std::process::exit(self_test());
    }
    let args = parse_args();
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for f in report.failures.iter().take(10) {
        eprintln!("mismatch: {f}");
    }
    let failed = report.failures.len().min(report.attempted);
    println!(
        "fail_frac={}",
        failed as f64 / report.attempted.max(1) as f64
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let zeros: Vec<&str> = names
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| report.metrics.get(name).copied().unwrap_or(0.0) == 0.0)
        .collect();
    if !zeros.is_empty() {
        println!("zero in this run: {}", zeros.join(" "));
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.attempted,
        metrics.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    match args.workload.as_str() {
        "edit_compile" => {
            let plan = edit::plan(args.seed, CONNS, blocks(args.seconds, EDIT_BLOCKS_PER_S))?;
            run_service(&plan, args.trace)
        }
        "prove_mix" => {
            let plan = prove::plan(args.seed, CONNS, blocks(args.seconds, PROVE_BLOCKS_PER_S))?;
            run_service(&plan, args.trace)
        }
        "sim_sweep" => run_sim(
            args.seed,
            blocks(args.seconds, SIM_BLOCKS_PER_S),
            args.trace,
            false,
        ),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The end-to-end throughput, latency and CPU metrics, printed with
/// their sample counts.
fn round_metrics(report: &mut Report, rounds: &[Round]) {
    let (req_per_s, p50, p99, cpu, rss) = round_medians(rounds);
    let m = &mut report.metrics;
    m.insert("req_per_s", req_per_s);
    m.insert("p50_ms", p50);
    m.insert("p99_ms", p99);
    m.insert("cpu_ms_per_req", cpu);
    m.insert("peak_rss_mb", rss);
    let n: usize = rounds.iter().map(|r| r.lat_ms.len()).sum();
    println!(
        "samples: req_per_s, cpu_ms_per_req and peak_rss_mb are medians over {} rounds of {} requests; \
         p50_ms and p99_ms pool all {n} latencies ({} beyond p99)",
        rounds.len(),
        n / rounds.len(),
        n - (0.99 * n as f64).ceil() as usize
    );
}

/// The exact per-run work counters of a service pass.
fn service_counts(plan: &Plan, pass: &Pass) -> BTreeMap<String, f64> {
    let mut counts = service::cache_counts(pass);
    let req_bytes: usize = pass.observed.iter().flatten().map(|o| o.req_bytes).sum();
    let sv_bytes: usize = plan
        .timed
        .iter()
        .flatten()
        .flat_map(|a| &a.reqs)
        .map(|(_, e)| match e {
            Expect::Sv { bytes, .. } => *bytes,
            _ => 0,
        })
        .sum();
    counts.insert("anvild.req_bytes_total".to_string(), req_bytes as f64);
    counts.insert("rtl.sv_bytes".to_string(), sv_bytes as f64);
    counts
}

fn print_setups(setups: &[f64]) {
    let (lo, hi) = setups
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    println!(
        "setup_s: median of {} set-ups (min {lo}, max {hi})",
        setups.len()
    );
}

fn print_counts(counts: &BTreeMap<String, f64>) {
    let line: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("exact counts: {}", line.join(" "));
}

fn run_service(plan: &Plan, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let untimed: usize = plan.setup.iter().chain(&plan.warmup).map(Vec::len).sum();
    if !traced {
        // Most set-ups run between rounds, so that their median samples the
        // host over the whole run rather than over its first second.
        let mut setups = Vec::new();
        for i in ROUNDS + 1..SETUPS {
            setups.push(service::setup_only(plan, &format!("setup{i}"))?);
        }
        let mut round = 0;
        let pass = service::run_pass(plan, false, "run", &mut || {
            round += 1;
            setups.push(service::setup_only(plan, &format!("setup{round}"))?);
            Ok(())
        })?;
        setups.push(pass.setup_s);
        report.attempted = plan.timed_count() + untimed;
        report.failures = service::failures(plan, &pass);
        round_metrics(&mut report, &pass.rounds);
        report.metrics.insert("setup_s", median(&setups));
        print_setups(&setups);
        print_counts(&service_counts(plan, &pass));
        println!(
            "host.steal_frac={} gen.cpu_frac={}",
            pass.steal_frac, pass.gen_cpu_frac
        );
        return Ok(report);
    }

    let mut base = service::run_pass(plan, false, "base", &mut || Ok(()))?;
    report.failures = service::failures(plan, &base);
    // Only the untraced pass's latencies and byte counts are used below;
    // keeping its responses would double what the traced pass holds.
    for o in base.observed.iter_mut().flatten() {
        o.lines = Vec::new();
    }
    let pass = service::run_pass(plan, true, "traced", &mut || Ok(()))?;
    let n = plan.timed_count() as f64;
    report.attempted = 2 * (plan.timed_count() + untimed);
    report.failures.extend(service::failures(plan, &pass));
    let sums = service::trace_sums(plan, &base, &pass);
    let traced_n = sums.actions as f64;
    let m = &mut report.metrics;
    m.insert(
        "anvild.wire_overhead_ms",
        (sums.latency_ms - sums.request_ms) / traced_n,
    );
    m.insert("anvild.frame_parse_ms", service::frame_parse_ms(plan));
    for (layer, ms) in &sums.layer_ms {
        m.insert(layer, ms / traced_n);
    }
    let bytes = |f: fn(&service::Observed) -> usize| {
        base.observed.iter().flatten().map(f).sum::<usize>() as f64 / n
    };
    m.insert("anvild.req_bytes", bytes(|o| o.req_bytes));
    m.insert("anvild.resp_bytes", bytes(|o| o.resp_bytes));
    let health = |k: &str| {
        [&base, &pass]
            .iter()
            .map(|p| {
                p.health_after
                    .get(k)
                    .and_then(anvild::Json::as_i64)
                    .unwrap_or(0)
            })
            .sum::<i64>() as f64
    };
    m.insert("anvild.shed", health("shed"));
    m.insert("anvild.deadline_expired", health("deadlineExpired"));
    let mut counts = service_counts(plan, &pass);
    let mut base_counts = service_counts(plan, &base);
    print_counts(&counts);
    // Traced frames carry `"trace":true`, so only their byte counts differ.
    counts.remove("anvild.req_bytes_total");
    base_counts.remove("anvild.req_bytes_total");
    if counts != base_counts {
        println!("note: the cache counts differ between the untraced and traced passes");
    }
    for (k, v) in counts {
        if let Some(&(name, _)) = PER_LAYER.iter().find(|(name, _)| *name == k) {
            m.insert(name, v);
        }
    }
    if sums.prove_requests > 0 {
        m.insert(
            "core.compiles_per_prove",
            sums.prove_compiles as f64 / sums.prove_requests as f64,
        );
    }
    m.insert("smt.pdr_frames", sums.pdr_frames as f64);
    m.insert("trace.truncated_trees", sums.truncated as f64);
    // Prover counters and winners from the prove responses.
    let mut prove_requests = 0.0;
    for line in pass.observed.iter().flatten().flat_map(|o| &o.lines) {
        let Some(engine) = wire::raw_string(line, "engine") else {
            continue;
        };
        prove_requests += 1.0;
        let win = match engine {
            "symbolic" => "verify.wins.symbolic",
            "pdr" => "verify.wins.pdr",
            "explicit" => "verify.wins.explicit",
            _ => "verify.wins.cache",
        };
        *m.entry(win).or_insert(0.0) += 1.0;
        for (key, metric) in [
            ("aigNodes", "smt.aig_nodes"),
            ("aigNodesAfterRewrite", "smt.aig_nodes_after_rewrite"),
            ("conflicts", "smt.sat_conflicts"),
        ] {
            *m.entry(metric).or_insert(0.0) += wire::raw_int(line, key).unwrap_or(0) as f64;
        }
    }
    m.insert("anvild.prove_requests", prove_requests);
    m.insert("anvild.requests", n);
    println!(
        "traced sample: {} of {n} actions (per-layer times, pdr frames and truncated trees \
         cover the sample; the other counts cover the run)",
        sums.actions
    );
    m.insert(
        "trace.overhead_frac",
        sums.latency_ms / sums.base_latency_ms.max(1e-9),
    );
    m.insert("host.steal_frac", (base.steal_frac + pass.steal_frac) / 2.0);
    m.insert("gen.cpu_frac", base.gen_cpu_frac);
    let mut unavailable = vec!["sim.* (the simulator is not exercised)"];
    if prove_requests == 0.0 {
        unavailable.push(
            "smt.*, verify.*, core.cache.{aig,proof}.*, core.compiles_per_prove, \
             trace.truncated_trees (no prove requests)",
        );
    } else {
        unavailable.push("rtl.sv_bytes (prove responses carry no SystemVerilog)");
    }
    println!("unavailable on this workload: {}", unavailable.join("; "));
    Ok(report)
}

fn run_sim(seed: u64, blocks: usize, traced: bool, corrupt: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let workers = nproc();
    // As for the service workloads, most set-ups run between rounds.
    let mut setups = Vec::new();
    if !traced {
        for _ in ROUNDS + 1..SETUPS {
            setups.push(sim::setup_in_child()?);
        }
    }
    let t = std::time::Instant::now();
    let (mut designs, lower_ms) = sim::prepare()?;
    setups.push(t.elapsed().as_secs_f64());
    let tape_ops: usize = designs
        .iter()
        .flat_map(|d| d.program.op_mix())
        .map(|(_, n)| n)
        .sum();
    let regions: usize = designs.iter().map(|d| d.program.region_count()).sum();
    let per_block = designs.len();
    // Untimed warm-up on jobs of their own.
    let warmup = sim::jobs(!seed, per_block, 1);
    sim::run_pass(&mut designs, &warmup, workers, None, false, &mut || Ok(()))?;
    let jobs = sim::jobs(seed, per_block, blocks);
    let mut between_rounds = || -> Result<(), String> {
        if !traced {
            setups.push(sim::setup_in_child()?);
        }
        Ok(())
    };
    let base = sim::run_pass(
        &mut designs,
        &jobs,
        workers,
        None,
        corrupt,
        &mut between_rounds,
    )?;
    report.attempted = jobs.len();
    report.failures = base.failures.clone();
    let cycle_lanes = (jobs.len() * sim::LANES) as f64 * sim::CYCLES as f64;
    let scalar_cycles = (jobs.len() * sim::SCALAR_LANES) as f64 * sim::CYCLES as f64;
    if !traced {
        round_metrics(&mut report, &base.rounds);
        let m = &mut report.metrics;
        m.insert("setup_s", median(&setups));
        print_setups(&setups);
        println!(
            "exact counts: sim.tape_ops={tape_ops} sim.regions={regions} sim.region_exec_ratio={}",
            sim::region_exec_ratio(&mut designs, &jobs[..per_block], workers)
        );
        println!(
            "batch {:.0} cycle-lanes/s, scalar {:.0} cycles/s, {workers} sweep workers",
            cycle_lanes / (base.batch_ms / 1e3),
            scalar_cycles / (base.scalar_ms / 1e3)
        );
        println!(
            "host.steal_frac={} gen.cpu_frac: none (the simulator runs in-process)",
            base.steal_frac
        );
        return Ok(report);
    }
    let one_worker_ms = sim::batch_ms_one_worker(&designs, &jobs);
    let mut probes = sim::Probes::default();
    let pass = sim::run_pass(
        &mut designs,
        &jobs,
        workers,
        Some(&mut probes),
        false,
        &mut || Ok(()),
    )?;
    report.attempted += jobs.len();
    report.failures.extend(pass.failures);
    let ratio = sim::region_exec_ratio(&mut designs, &jobs[..per_block], workers);
    let m = &mut report.metrics;
    m.insert("sim.tape_lower_ms", lower_ms);
    m.insert("sim.tape_ops", tape_ops as f64);
    m.insert("sim.regions", regions as f64);
    m.insert("sim.region_exec_ratio", ratio);
    m.insert(
        "sim.batch_ns_per_cycle_lane",
        probes.batch_step_ns / cycle_lanes,
    );
    m.insert("sim.sweep_speedup", one_worker_ms / base.batch_ms);
    m.insert(
        "sim.scalar_ns_per_cycle",
        probes.scalar_step_ns / scalar_cycles,
    );
    m.insert("sim.poke_ns_per_cycle", probes.poke_ns / scalar_cycles);
    m.insert(
        "sim.batch_cycle_lanes_per_s",
        cycle_lanes / (base.batch_ms / 1e3),
    );
    m.insert(
        "sim.scalar_cycles_per_s",
        scalar_cycles / (base.scalar_ms / 1e3),
    );
    m.insert("sim.jobs", jobs.len() as f64);
    m.insert("trace.overhead_frac", pass.wall_s / base.wall_s);
    m.insert("host.steal_frac", (base.steal_frac + pass.steal_frac) / 2.0);
    println!(
        "exact counts: sim.tape_ops={tape_ops} sim.regions={regions} sim.region_exec_ratio={ratio}"
    );
    println!(
        "unavailable on this workload: anvild.*, core.*, syntax/typeck/ir/codegen/rtl/smt/verify.*, \
         trace.truncated_trees (no service requests); gen.cpu_frac (the simulator runs in-process)"
    );
    Ok(report)
}

/// Runs every workload for a few requests, then again with one expected
/// output corrupted, which must raise `fail_frac`.
fn self_test() -> i32 {
    let mut ok = true;
    let mut check = |name: &str,
                     clean: Result<Report, String>,
                     corrupted: Result<Report, String>| {
        let clean_failed = clean.as_ref().map(|r| r.failures.len());
        let corrupt_failed = corrupted.as_ref().map(|r| r.failures.len());
        let pass = matches!(clean_failed, Ok(0)) && matches!(corrupt_failed, Ok(n) if n > 0);
        println!(
            "{name}: clean run failures {clean_failed:?}, corrupted run failures {corrupt_failed:?} -> {}",
            if pass { "ok" } else { "FAIL" }
        );
        if let Ok(r) = &clean {
            for f in r.failures.iter().take(5) {
                println!("  {f}");
            }
        }
        ok &= pass;
    };
    let seed = Rng::new(7).next_u64() % 1000;
    let service_case = |make: &dyn Fn() -> Result<Plan, String>, corrupt: bool| {
        let mut plan = make()?;
        if corrupt {
            if let Some((_, e)) = plan.timed[0][0].reqs.last_mut() {
                e.corrupt();
            }
        }
        run_service(&plan, false)
    };
    let edit = || edit::plan(seed, CONNS, 1);
    check(
        "edit_compile",
        service_case(&edit, false),
        service_case(&edit, true),
    );
    let prove = || prove::plan(seed, CONNS, 1);
    check(
        "prove_mix",
        service_case(&prove, false),
        service_case(&prove, true),
    );
    check(
        "sim_sweep",
        run_sim(seed, 2, false, false),
        run_sim(seed, 2, false, true),
    );
    if ok {
        println!("self-test passed");
        0
    } else {
        println!("self-test FAILED");
        1
    }
}
