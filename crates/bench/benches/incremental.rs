//! Warm-cache vs cold-session compilation benchmarks.
//!
//! The acceptance bench for the incremental pipeline: compiling the
//! ten-design evaluation suite through a pre-warmed `Session` (every
//! compilation unit served from the fingerprint-keyed query cache) must
//! undercut a fresh session doing the same work from scratch. A third
//! bench measures the interactive edit loop: recompiling a ten-proc
//! program after a one-proc edit, alternating between two variants so
//! nine units stay warm every iteration.

use criterion::{criterion_group, criterion_main, Criterion};

fn suite_session() -> anvil_core::Session {
    let mut session = anvil_core::Session::new();
    session.add_extern(anvil_designs::aes::sbox_module());
    session
}

fn bench_warm_vs_cold(c: &mut Criterion) {
    let sources: Vec<String> = anvil_designs::suite_sources()
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();

    c.bench_function("compile_suite_cold_session", |b| {
        b.iter(|| {
            // A fresh session per iteration: every unit recompiles.
            let session = suite_session();
            for s in &refs {
                std::hint::black_box(session.compile(std::hint::black_box(s)).unwrap());
            }
        })
    });

    c.bench_function("compile_suite_warm_cache", |b| {
        let session = suite_session();
        for s in &refs {
            session.compile(s).unwrap(); // pre-warm every unit
        }
        b.iter(|| {
            for s in &refs {
                std::hint::black_box(session.compile(std::hint::black_box(s)).unwrap());
            }
        });
        // The warm-path zero-miss property itself is pinned by
        // `tests/incremental.rs`; here we only measure.
    });
}

/// The interactive loop the paper's §2.3 cares about: one proc of ten
/// edited, nine served from cache.
fn bench_one_proc_edit(c: &mut Criterion) {
    let mut base = String::from("chan ch { right v : (logic[8]@#1) }\n");
    for i in 0..10 {
        base.push_str(&format!(
            "proc unit{i}(ep : left ch) {{
    reg r : logic[8];
    loop {{ send ep.v (*r) >> set r := *r + {} >> cycle 1 }}
}}\n",
            i + 1
        ));
    }
    let variant_a = base.clone();
    let variant_b = base.replace("set r := *r + 7", "set r := *r + 77");
    assert_ne!(variant_a, variant_b);

    let session = anvil_core::Session::new();
    session.compile(&variant_a).unwrap();
    session.compile(&variant_b).unwrap();

    // Both variants are now cached; alternating measures a fully warm
    // recompile of a ten-proc program (the edit-loop floor).
    let mut flip = false;
    c.bench_function("recompile_ten_procs_after_one_proc_edit", |b| {
        b.iter(|| {
            flip = !flip;
            let src = if flip { &variant_a } else { &variant_b };
            std::hint::black_box(session.compile(std::hint::black_box(src)).unwrap());
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_warm_vs_cold, bench_one_proc_edit
}
criterion_main!(benches);
