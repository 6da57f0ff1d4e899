//! `sim_sweep`: the simulator in-process. Set-up compiles the ten suite
//! designs, flattens them and lowers them to tapes. One request is one
//! seeded simulation job on one design:
//!
//! * a multi-lane sweep of [`LANES`] stimulus schedules through
//!   `sweep_chunks` with `nproc` workers and [`CHUNK`]-lane chunks, so
//!   the worker threads really start;
//! * the first [`SCALAR_LANES`] of those schedules on scalar `Sim`
//!   testbenches that poke every input and step every cycle.
//!
//! Every scalar fingerprint must equal its lane's batch fingerprint, and
//! on a seeded sample of jobs a `Backend::Tree` run must agree too. Each
//! block of ten jobs covers every design once, in seeded order.

use std::time::Instant;

use anvil_rtl::{Bits, Module, SignalId};
use anvil_sim::{sweep_chunks, Backend, Sim, SimBatch, TapeOptions, TapeProgram};

use crate::util::{
    cpu_ms, ms_since, peak_rss_mb, reset_peak_rss, round_slice, HostTicks, Rng, Round, ROUNDS,
};

/// Eight chunks per sweep: the workers pull chunks from a shared queue,
/// so one descheduled core slows a job less than a fixed split would.
pub const LANES: usize = 256;
pub const CHUNK: usize = 32;
pub const SCALAR_LANES: usize = 4;
pub const CYCLES: u64 = 32;
/// One job in this many gets a tree-backend cross-check.
const TREE_SAMPLE: usize = 10;

pub struct Design {
    pub module: Module,
    pub inputs: Vec<(String, usize)>,
    pub program: TapeProgram,
    pub scalar: Sim,
}

/// Set-up: compile, flatten and lower every suite design. Returns the
/// designs and the time spent in `TapeProgram::compile_with` (ms).
pub fn prepare() -> Result<(Vec<Design>, f64), String> {
    let mut session = anvil_core::Session::new();
    session.add_extern(anvil_designs::aes::sbox_module());
    let mut out = Vec::new();
    let mut lower_ms = 0.0;
    for (_, src) in anvil_designs::suite_sources() {
        let program = session.parse(&src).map_err(|e| e.render(&src))?;
        let top = program.procs[0].name.clone();
        let module = session
            .compile_flat(&src, &top)
            .map_err(|e| e.render(&src))?;
        let inputs = module
            .iter_signals()
            .filter(|(_, s)| s.kind == anvil_rtl::SignalKind::Input)
            .map(|(_, s)| (s.name.clone(), s.width))
            .collect();
        let t = Instant::now();
        let program = TapeProgram::compile_with(&module, TapeOptions::default())
            .map_err(|e| e.to_string())?;
        lower_ms += ms_since(t);
        let scalar = Sim::with_backend(&module, Backend::Compiled).map_err(|e| e.to_string())?;
        out.push(Design {
            module,
            inputs,
            program,
            scalar,
        });
    }
    Ok((out, lower_ms))
}

/// One set-up's time in seconds, for `--sim-setup`.
pub fn timed_prepare() -> Result<f64, String> {
    let t = Instant::now();
    prepare()?;
    Ok(t.elapsed().as_secs_f64())
}

/// One set-up in a fresh process (this binary with `--sim-setup`), in
/// seconds. Set-ups in one process all ran at one of two speeds a third
/// apart, which one depending on the process, so the set-ups of a run are
/// spread over processes as the service workloads' are.
pub fn setup_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg("--sim-setup")
        .output()
        .map_err(|e| format!("spawning a sim set-up: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "sim set-up failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("sim set-up output: {e}"))
}

/// Decorrelated nonzero xorshift state for one lane of one job.
fn lane_seed(job_seed: u64, lane: usize) -> u64 {
    let s = job_seed ^ (lane as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if s == 0 {
        0xDEAD_BEEF
    } else {
        s
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One job: a design and a stimulus seed.
pub struct Job {
    pub design: usize,
    pub seed: u64,
}

pub fn jobs(seed: u64, designs: usize, blocks: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x051A_5EE9);
    let mut out = Vec::with_capacity(designs * blocks);
    for _ in 0..blocks {
        let mut order: Vec<usize> = (0..designs).collect();
        rng.shuffle(&mut order);
        out.extend(order.into_iter().map(|design| Job {
            design,
            seed: rng.next_u64(),
        }));
    }
    out
}

/// Timers the traced pass adds around single public calls.
#[derive(Default)]
pub struct Probes {
    pub batch_step_ns: f64,
    pub scalar_step_ns: f64,
    pub poke_ns: f64,
    pub regions_run: f64,
    pub region_slots: f64,
}

/// What one job measured.
pub struct JobResult {
    pub batch_ms: f64,
    pub scalar_ms: f64,
    pub batch_fps: Vec<u64>,
    pub scalar_fps: Vec<u64>,
}

fn drive_batch(
    inputs: &[(String, usize)],
    job_seed: u64,
    first: usize,
    batch: &mut SimBatch,
    timed: bool,
) -> (Vec<u64>, f64) {
    let ids: Vec<SignalId> = inputs
        .iter()
        .map(|(n, _)| batch.input_id(n).expect("suite input"))
        .collect();
    let lanes = batch.lanes();
    let mut rngs: Vec<u64> = (0..lanes).map(|l| lane_seed(job_seed, first + l)).collect();
    let mut vals = vec![0u64; lanes];
    let mut step_ns = 0.0;
    for _ in 0..CYCLES {
        for id in &ids {
            for (v, r) in vals.iter_mut().zip(rngs.iter_mut()) {
                *v = xorshift(r);
            }
            batch.poke_u64s(*id, &vals);
        }
        if timed {
            let t = Instant::now();
            batch.step();
            step_ns += t.elapsed().as_nanos() as f64;
        } else {
            batch.step();
        }
    }
    (
        (0..lanes).map(|l| batch.state_fingerprint(l)).collect(),
        step_ns,
    )
}

fn drive_scalar(
    sim: &mut Sim,
    inputs: &[(String, usize)],
    seed: u64,
    probes: Option<&mut Probes>,
) -> u64 {
    sim.reset();
    let mut rng = seed;
    match probes {
        None => {
            for _ in 0..CYCLES {
                for (name, width) in inputs {
                    sim.poke(name, Bits::from_u64(xorshift(&mut rng), *width))
                        .expect("suite input");
                }
                sim.step().expect("step");
            }
        }
        Some(p) => {
            for _ in 0..CYCLES {
                let t = Instant::now();
                for (name, width) in inputs {
                    sim.poke(name, Bits::from_u64(xorshift(&mut rng), *width))
                        .expect("suite input");
                }
                p.poke_ns += t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                sim.step().expect("step");
                p.scalar_step_ns += t.elapsed().as_nanos() as f64;
            }
        }
    }
    sim.state_fingerprint()
}

/// Runs one job. With `probes`, the traced variant: spans are captured
/// around the sweep and the benchmark's own timers wrap `step` and
/// `poke`.
pub fn run_job(
    d: &mut Design,
    job: &Job,
    workers: usize,
    probes: Option<&mut Probes>,
) -> JobResult {
    let traced = probes.is_some();
    let capture = traced.then(anvil_trace::Capture::start);
    let t = Instant::now();
    let inputs = &d.inputs;
    let swept = sweep_chunks(&d.program, LANES, CHUNK, workers, |first, batch| {
        Ok(drive_batch(inputs, job.seed, first, batch, traced))
    })
    .expect("sweep runs");
    let batch_ms = ms_since(t);
    let mut batch_fps = Vec::with_capacity(LANES);
    let mut step_ns = 0.0;
    for (fps, ns) in swept {
        batch_fps.extend(fps);
        step_ns += ns;
    }
    let t = Instant::now();
    let mut scalar_fps = Vec::with_capacity(SCALAR_LANES);
    match probes {
        None => {
            for lane in 0..SCALAR_LANES {
                let fp = drive_scalar(&mut d.scalar, &d.inputs, lane_seed(job.seed, lane), None);
                scalar_fps.push(fp);
            }
        }
        Some(p) => {
            let records = capture.expect("traced").finish();
            let settles = records
                .iter()
                .filter(|r| r.cat == "sim" && r.name == "settle")
                .count() as f64;
            p.regions_run += records
                .iter()
                .filter(|r| r.cat == "sim" && r.name == "region")
                .count() as f64;
            p.region_slots += settles * d.program.region_count() as f64;
            p.batch_step_ns += step_ns;
            for lane in 0..SCALAR_LANES {
                let fp = drive_scalar(&mut d.scalar, &d.inputs, lane_seed(job.seed, lane), Some(p));
                scalar_fps.push(fp);
            }
        }
    }
    JobResult {
        batch_ms,
        scalar_ms: ms_since(t),
        batch_fps,
        scalar_fps,
    }
}

/// `sim.region` spans per `sim.settle` span, as a share of the design's
/// regions, over `jobs` replayed untimed under a span capture. The count
/// depends only on the stimulus, so it repeats exactly for one seed.
pub fn region_exec_ratio(designs: &mut [Design], jobs: &[Job], workers: usize) -> f64 {
    let mut probes = Probes::default();
    for job in jobs {
        run_job(&mut designs[job.design], job, workers, Some(&mut probes));
    }
    probes.regions_run / probes.region_slots.max(1.0)
}

/// The tree-backend fingerprint of one lane of a job.
fn tree_fingerprint(d: &Design, job: &Job, lane: usize) -> u64 {
    let mut sim = Sim::with_backend(&d.module, Backend::Tree).expect("suite design simulates");
    drive_scalar(&mut sim, &d.inputs, lane_seed(job.seed, lane), None)
}

/// Results of one pass over the jobs.
pub struct SimPass {
    pub wall_s: f64,
    pub rounds: Vec<Round>,
    pub batch_ms: f64,
    pub scalar_ms: f64,
    pub failures: Vec<String>,
    pub steal_frac: f64,
}

/// Checks one job's fingerprints: scalar against batch, and on the tree
/// sample one lane against `Backend::Tree`.
fn check_job(d: &Design, i: usize, job: &Job, r: &JobResult, corrupt: bool) -> Option<String> {
    let mut scalar = r.scalar_fps.clone();
    if corrupt && i == 0 {
        scalar[0] ^= 1;
    }
    if scalar[..] != r.batch_fps[..SCALAR_LANES] {
        return Some(format!("job {i}: scalar and batch fingerprints differ"));
    }
    if i.is_multiple_of(TREE_SAMPLE) {
        let lane = (job.seed as usize) % SCALAR_LANES;
        if tree_fingerprint(d, job, lane) != r.batch_fps[lane] {
            return Some(format!("job {i}: tree backend disagrees"));
        }
    }
    None
}

/// Runs `jobs` in rounds. Each round's outputs are checked right after its
/// timing ends and then dropped, so the memory a round measures does not
/// grow with the run. `after_round` runs between rounds, outside their
/// timing.
pub fn run_pass(
    designs: &mut [Design],
    jobs: &[Job],
    workers: usize,
    mut probes: Option<&mut Probes>,
    corrupt: bool,
    after_round: &mut dyn FnMut() -> Result<(), String>,
) -> Result<SimPass, String> {
    let host = HostTicks::now();
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut failures = Vec::new();
    let (mut batch_ms, mut scalar_ms) = (0.0, 0.0);
    for r in 0..ROUNDS {
        let round = round_slice(jobs, r);
        let mut results = Vec::with_capacity(round.len());
        reset_peak_rss("self");
        let cpu0 = cpu_ms("self");
        let t0 = Instant::now();
        let mut lat_ms = Vec::new();
        for job in round {
            let t = Instant::now();
            let result = run_job(
                &mut designs[job.design],
                job,
                workers,
                probes.as_deref_mut(),
            );
            lat_ms.push(ms_since(t));
            results.push(result);
        }
        rounds.push(Round {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_ms: cpu_ms("self") - cpu0,
            peak_rss_mb: peak_rss_mb("self"),
            lat_ms,
        });
        let first = jobs.len() * r / ROUNDS;
        for (i, (job, res)) in round.iter().zip(&results).enumerate() {
            batch_ms += res.batch_ms;
            scalar_ms += res.scalar_ms;
            failures.extend(check_job(
                &designs[job.design],
                first + i,
                job,
                res,
                corrupt,
            ));
        }
        after_round()?;
    }
    Ok(SimPass {
        wall_s: rounds.iter().map(|r| r.wall_s).sum(),
        rounds,
        batch_ms,
        scalar_ms,
        failures,
        steal_frac: host.steal_frac_since(),
    })
}

/// Batch time of the same jobs with one sweep worker (for the sweep
/// speed-up), in ms.
pub fn batch_ms_one_worker(designs: &[Design], jobs: &[Job]) -> f64 {
    jobs.iter()
        .map(|job| {
            let inputs = &designs[job.design].inputs;
            let t = Instant::now();
            sweep_chunks(
                &designs[job.design].program,
                LANES,
                CHUNK,
                1,
                |first, batch| Ok(drive_batch(inputs, job.seed, first, batch, false)),
            )
            .expect("sweep runs");
            ms_since(t)
        })
        .sum()
}
