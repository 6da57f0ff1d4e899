//! Criterion benchmarks over the compiler pipeline and the simulator:
//! the "fast, integrated feedback loop" the paper's §2.3 argues a
//! language-based approach buys over after-the-fact verification.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_pipeline(c: &mut Criterion) {
    let src = anvil_designs::ptw::anvil_source();
    c.bench_function("parse_ptw", |b| {
        b.iter(|| anvil_syntax::parse(std::hint::black_box(&src)).unwrap())
    });
    c.bench_function("typecheck_ptw", |b| {
        let session = anvil_core::Session::new();
        let control = anvil_core::Control::none();
        b.iter(|| session.check(std::hint::black_box(&src), &control).unwrap())
    });
    c.bench_function("compile_ptw_to_sv", |b| {
        let session = anvil_core::Session::new();
        b.iter(|| session.compile(std::hint::black_box(&src)).unwrap())
    });
}

/// Sequential vs parallel batch compilation over the full ten-design
/// evaluation suite: the scaling headroom the Session + interned-IR
/// refactor buys (one shared read-only session, one worker per core).
fn bench_batch(c: &mut Criterion) {
    let sources: Vec<String> = anvil_designs::suite_sources()
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let mut session = anvil_core::Session::new();
    session.add_extern(anvil_designs::aes::sbox_module());

    c.bench_function("compile_suite_sequential", |b| {
        b.iter(|| {
            let out: Vec<_> = refs
                .iter()
                .map(|s| session.compile(std::hint::black_box(s)).unwrap())
                .collect();
            std::hint::black_box(out)
        })
    });
    c.bench_function("compile_suite_batch", |b| {
        b.iter(|| {
            let out = session.compile_batch(std::hint::black_box(&refs));
            assert!(out.iter().all(|r| r.is_ok()));
            std::hint::black_box(out)
        })
    });
}

fn bench_opt(c: &mut Criterion) {
    use anvil_ir::{build_proc, optimize, BuildCtx, OptConfig};
    let src = anvil_designs::ptw::anvil_source();
    let prog = anvil_syntax::parse(&src).unwrap();
    let proc = prog.proc("ptw_anvil").unwrap();
    let ctx = BuildCtx {
        program: &prog,
        proc,
    };
    let irs = build_proc(&ctx, 1).unwrap();
    c.bench_function("optimize_ptw_event_graph", |b| {
        b.iter(|| {
            for ir in &irs {
                std::hint::black_box(optimize(ir.clone(), OptConfig::default()));
            }
        })
    });
}

fn bench_sim(c: &mut Criterion) {
    let flat = anvil_designs::fifo::anvil_flat();
    for backend in [anvil_sim::Backend::Tree, anvil_sim::Backend::Compiled] {
        c.bench_function(&format!("simulate_fifo_1k_cycles_{backend}"), |b| {
            b.iter(|| {
                let mut sim = anvil_sim::Sim::with_backend(&flat, backend).unwrap();
                sim.poke("out_ep_deq_ack", anvil_rtl::Bits::bit(true))
                    .unwrap();
                sim.poke("in_ep_enq_valid", anvil_rtl::Bits::bit(true))
                    .unwrap();
                sim.poke("in_ep_enq_data", anvil_rtl::Bits::from_u64(7, 16))
                    .unwrap();
                sim.run(1000).unwrap();
                std::hint::black_box(sim.cycle())
            })
        });
    }
}

/// Tree-walking vs compiled-tape per-cycle throughput over the full
/// ten-design evaluation suite (the acceptance bench for the compiled
/// backend: its median must undercut the tree engine's by ≥ 2×).
///
/// Each sim is prepared once outside the timed region — the tape lowering
/// is a one-time cost — and every iteration drives 256 cycles of
/// deterministic pseudo-random stimulus on every input of every design.
fn bench_sim_backends(c: &mut Criterion) {
    use anvil_designs::tb::{input_ports, poke_random_inputs};
    use anvil_sim::{Backend, Sim};

    let designs: Vec<_> = anvil_designs::registry()
        .into_iter()
        .map(|d| (d.anvil)())
        .collect();
    for backend in [Backend::Tree, Backend::Compiled] {
        let mut rigs: Vec<(Sim, Vec<(String, usize)>)> = designs
            .iter()
            .map(|m| {
                let sim = Sim::with_backend(m, backend).unwrap();
                (sim, input_ports(m))
            })
            .collect();
        c.bench_function(&format!("sim_suite_256_cycles_{backend}"), |b| {
            b.iter(|| {
                // Identical stimulus and starting state every iteration on
                // both backends, so the medians compare the same workload.
                let mut seed = 0x9E37_79B9_7F4A_7C15u64;
                for (sim, inputs) in &mut rigs {
                    sim.reset();
                    for _ in 0..256 {
                        poke_random_inputs(sim, inputs, &mut seed).unwrap();
                        sim.step().unwrap();
                    }
                    std::hint::black_box(sim.state_fingerprint());
                }
            })
        });
    }
}

fn bench_synth(c: &mut Criterion) {
    let flat = anvil_designs::aes::anvil_flat();
    c.bench_function("synthesize_aes_cost_model", |b| {
        b.iter(|| std::hint::black_box(anvil_synth::synthesize(&flat)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline, bench_batch, bench_opt, bench_sim, bench_sim_backends, bench_synth
}
criterion_main!(benches);
