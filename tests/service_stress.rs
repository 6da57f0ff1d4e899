//! Concurrent-session stress: many client threads hammer ONE shared
//! [`Session`] with interleaved compiles and edits of the evaluation
//! suite, while injected failures (a panicking batch compile, a
//! deliberately poisoned cache shard) land mid-flight. The session must
//! keep producing byte-identical output and end warm — the scenario a
//! long-lived `anvild` daemon lives in.

use std::sync::atomic::{AtomicUsize, Ordering};

use anvil::anvil_designs;
use anvil::{CompileError, Session};

/// The suite, minus AES (it needs an extern S-box registered; the other
/// nine compile against a default session).
fn stress_sources() -> Vec<(&'static str, String)> {
    anvil_designs::suite_sources()
        .into_iter()
        .filter(|(name, _)| *name != "aes")
        .collect()
}

#[test]
fn shared_session_survives_concurrent_edits_panics_and_poison() {
    let sources = stress_sources();

    // Cold single-threaded baselines from a throwaway session.
    let baseline_session = Session::new();
    let mut baselines = Vec::new();
    for (name, src) in &sources {
        let out = baseline_session
            .compile(src)
            .unwrap_or_else(|e| panic!("baseline {name}: {e}"));
        let edited = format!("// edit marker\n{src}");
        let edited_out = baseline_session
            .compile(&edited)
            .unwrap_or_else(|e| panic!("baseline(edit) {name}: {e}"));
        baselines.push((
            name,
            src.clone(),
            out.systemverilog,
            edited,
            edited_out.systemverilog,
        ));
    }

    // The session under stress, shared by every thread.
    let session = Session::new();
    let mismatches = AtomicUsize::new(0);
    const THREADS: usize = 6;
    const ROUNDS: usize = 3;

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            let baselines = &baselines;
            let mismatches = &mismatches;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, (name, src, cold_sv, edited, edited_sv)) in baselines.iter().enumerate()
                    {
                        // Interleave originals and comment-edited
                        // variants so threads disagree about which
                        // version is "current" — like clients racing
                        // `update` against `compile`.
                        let (text, want) = if (t + round + i) % 2 == 0 {
                            (src.as_str(), cold_sv)
                        } else {
                            (edited.as_str(), edited_sv)
                        };
                        match session.compile(text) {
                            Ok(out) => {
                                if out.systemverilog != **want {
                                    eprintln!("{name}: output diverged under stress");
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(e) => {
                                eprintln!("{name}: stress compile failed: {e}");
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }

        // Saboteur 1: a batch compile whose middle unit panics inside
        // the pipeline (the injected-panic test seam). The panic must
        // surface as an Internal error in its slot, not wedge the cache.
        let session_ref = &session;
        let sources_ref = &sources;
        scope.spawn(move || {
            let good = sources_ref[0].1.as_str();
            let boom = format!("proc boom() {{ }} // {}", anvil::anvil_core::PANIC_MARKER);
            let batch = [good, boom.as_str(), good];
            let results = session_ref.compile_batch(&batch, 3);
            assert!(results[0].is_ok(), "good unit poisoned by neighbour");
            assert!(
                matches!(results[1], Err(CompileError::Internal(_))),
                "injected panic did not surface as Internal"
            );
            assert!(results[2].is_ok(), "good unit poisoned by neighbour");
        });

        // Saboteur 2: poison cache shards outright while compiles run.
        scope.spawn(move || {
            for key in 0..32 {
                session_ref.poison_cache_shard_for_tests(key);
            }
        });
    });

    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "stress compiles diverged from cold baselines"
    );

    // The session is still fully serviceable: everything recompiles
    // byte-identically, and a final pass is pure warm (zero misses).
    for (name, src, cold_sv, ..) in &baselines {
        let out = session
            .compile(src)
            .unwrap_or_else(|e| panic!("post-stress {name}: {e}"));
        assert_eq!(out.systemverilog, **cold_sv, "post-stress {name} diverged");
    }

    // Recovery is counted lazily, on the first access that finds a shard
    // poisoned — the recompiles above touched every shard the saboteur
    // hit, so by now the counter must show it.
    let stats = session.cache_stats();
    assert!(
        stats.poisoned >= 1,
        "expected poisoned-shard recoveries, stats: {stats}"
    );
    let before = session.cache_stats();
    for (name, src, ..) in &baselines {
        session
            .compile(src)
            .unwrap_or_else(|e| panic!("warm {name}: {e}"));
    }
    let delta = session.cache_stats() - before;
    assert_eq!(delta.misses(), 0, "final pass was not pure warm: {delta}");
}
