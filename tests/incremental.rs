//! Incremental-compilation properties of the `Session` query cache.
//!
//! Pins the three guarantees of the per-item pipeline:
//!
//! 1. **Warm path** — recompiling an identical program through one
//!    session performs zero per-proc check/codegen work (pure cache
//!    hits), and a one-proc edit recompiles exactly one unit;
//! 2. **Invalidation** — whitespace/comment/reordering edits hit the
//!    cache, while register renames, channel timing-annotation changes,
//!    and `OptConfig` flips miss;
//! 3. **Determinism** — warm and cold outputs are byte-identical to the
//!    monolithic pre-refactor pipeline
//!    (`anvil_codegen::compile_program` + `anvil_rtl::emit_library`),
//!    including under heavy LRU eviction.

use anvil::{CacheStats, Session};

/// Stages cached per compilation unit (check, opt-ir, lower, emit).
const STAGES_PER_UNIT: u64 = 4;

fn suite_session() -> Session {
    let mut session = Session::new();
    session.add_extern(anvil_designs::aes::sbox_module());
    session
}

fn suite_refs<'a>(suite: &'a [(&'static str, String)]) -> Vec<&'a str> {
    suite.iter().map(|(_, s)| s.as_str()).collect()
}

/// A ten-proc program whose procs are independent compilation units.
fn ten_proc_program() -> String {
    let mut src = String::from("chan ch { right v : (logic[8]@#1) }\n");
    for i in 0..10 {
        src.push_str(&format!(
            "proc unit{i}(ep : left ch) {{
    reg r : logic[8];
    loop {{ send ep.v (*r) >> set r := *r + {} >> cycle 1 }}
}}\n",
            i + 1
        ));
    }
    src
}

#[test]
fn second_compile_of_the_suite_is_pure_cache_hits() {
    let session = suite_session();
    let suite = anvil_designs::suite_sources();
    let refs = suite_refs(&suite);

    let cold: Vec<String> = refs
        .iter()
        .map(|s| session.compile(s).unwrap().systemverilog)
        .collect();
    let after_cold = session.cache_stats();
    assert!(after_cold.misses() > 0);

    let warm: Vec<String> = refs
        .iter()
        .map(|s| session.compile(s).unwrap().systemverilog)
        .collect();
    let delta = session.cache_stats() - after_cold;

    assert_eq!(cold, warm, "warm output must be byte-identical");
    assert_eq!(
        delta.misses(),
        0,
        "second run must do zero per-proc work: {delta}"
    );
    assert!(delta.hits() > 0);
    // Every unit of every design is served at all four stage boundaries,
    // plus one cached SV chunk per design for the shared sbox extern.
    let units: u64 = refs
        .iter()
        .map(|s| anvil_syntax::parse(s).unwrap().procs.len() as u64)
        .sum();
    assert_eq!(
        delta.hits(),
        units * STAGES_PER_UNIT + refs.len() as u64,
        "{delta}"
    );
}

#[test]
fn warm_pass_stats_report_identical_event_counts() {
    let session = suite_session();
    let suite = anvil_designs::suite_sources();
    for (_, src) in &suite {
        let cold = session.compile(src).unwrap();
        let warm = session.compile(src).unwrap();
        assert_eq!(cold.stats.events_before, warm.stats.events_before);
        assert_eq!(cold.stats.events_after, warm.stats.events_after);
    }
}

#[test]
fn whitespace_comment_and_reordering_edits_hit_the_cache() {
    let dense = "chan ch { right v : (logic[8]@#1) }
proc a(ep : left ch) { reg r : logic[8]; loop { send ep.v (*r) >> set r := *r + 1 >> cycle 1 } }
proc b() { reg s : logic[4]; loop { set s := *s + 1 >> cycle 1 } }";
    // Same items: comments, blank lines, swapped top-level order.
    let noisy = "// reformatted and reordered
proc b() {
    reg s : logic[4];
    loop { set s := *s + 1 >> cycle 1 } /* same body */
}

chan ch {
    right v : (logic[8]@#1)
}

proc a(ep : left ch) {
    reg r : logic[8];
    loop {
        send ep.v (*r) >>
        set r := *r + 1 >>
        cycle 1
    }
}";
    let session = Session::new();
    let first = session.compile(dense).unwrap();
    let baseline = session.cache_stats();
    let second = session.compile(noisy).unwrap();
    let delta = session.cache_stats() - baseline;
    assert_eq!(delta.misses(), 0, "formatting edits must be hits: {delta}");
    assert_eq!(delta.hits(), 2 * STAGES_PER_UNIT);
    // Modules are emitted name-sorted, so the output is also identical.
    assert_eq!(first.systemverilog, second.systemverilog);
}

#[test]
fn register_rename_is_a_cache_miss() {
    let src = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
    let renamed = src
        .replace(" r ", " q ")
        .replace("*r", "*q")
        .replace("set r", "set q");
    let session = Session::new();
    session.compile(src).unwrap();
    let baseline = session.cache_stats();
    session.compile(&renamed).unwrap();
    let delta = session.cache_stats() - baseline;
    assert_eq!(delta.hits(), 0, "{delta}");
    assert_eq!(delta.misses(), STAGES_PER_UNIT, "{delta}");
}

#[test]
fn channel_timing_annotation_change_is_a_cache_miss() {
    let src = "chan ch { right v : (logic[8]@#1) }
proc p(ep : left ch) { reg r : logic[8]; loop { send ep.v (*r) >> cycle 1 >> set r := *r + 1 } }";
    let retimed = src.replace("(logic[8]@#1)", "(logic[8]@#2)");
    let session = Session::new();
    session.compile(src).unwrap();
    let baseline = session.cache_stats();
    session.compile(&retimed).unwrap();
    let delta = session.cache_stats() - baseline;
    assert_eq!(delta.hits(), 0, "{delta}");
    assert_eq!(delta.misses(), STAGES_PER_UNIT, "{delta}");
}

#[test]
fn optconfig_flips_miss_codegen_but_reuse_check() {
    let src = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
    let mut session = Session::new();
    session.compile(src).unwrap();

    // Flip each optimization pass bit in turn: the checked artifact is
    // options-independent and must be reused; every codegen-side stage
    // must miss.
    let mut misses_seen = 0;
    for flip in 0..5 {
        let mut opts = anvil_core::Options::default();
        match flip {
            0 => opts.opt_config.merge_identical = false,
            1 => opts.opt_config.remove_unbalanced = false,
            2 => opts.opt_config.shift_branch_joins = false,
            3 => opts.opt_config.remove_branch_joins = false,
            _ => opts.opt_config.sweep_dead = false,
        }
        session.set_options(opts);
        let baseline = session.cache_stats();
        session.compile(src).unwrap();
        let delta = session.cache_stats() - baseline;
        assert_eq!(delta.check.misses, 0, "flip {flip}: {delta}");
        assert_eq!(delta.check.hits, 1, "flip {flip}: {delta}");
        assert_eq!(delta.opt_ir.misses, 1, "flip {flip}: {delta}");
        assert_eq!(delta.lower.misses, 1, "flip {flip}: {delta}");
        assert_eq!(delta.emit.misses, 1, "flip {flip}: {delta}");
        misses_seen += delta.misses();
    }
    assert_eq!(misses_seen, 5 * 3);
}

#[test]
fn one_proc_edit_recompiles_exactly_one_unit() {
    let src = ten_proc_program();
    let edited = src.replace("set r := *r + 7", "set r := *r + 77");
    assert_ne!(src, edited, "the edit must land");

    let session = Session::new();
    let cold = session.compile(&src).unwrap();
    let baseline = session.cache_stats();
    let warm = session.compile(&edited).unwrap();
    let delta = session.cache_stats() - baseline;

    // Exactly one unit re-ran at each of the four stage boundaries; the
    // other nine were served entirely from the cache.
    assert_eq!(delta.misses(), STAGES_PER_UNIT, "{delta}");
    assert_eq!(delta.hits(), 9 * STAGES_PER_UNIT, "{delta}");
    // And the edit is visible in exactly one module's output.
    assert!(warm.systemverilog.contains("module unit6"));
    assert_ne!(cold.systemverilog, warm.systemverilog);
}

#[test]
fn child_edit_reaches_the_spawning_parent() {
    let src = "chan inner { right v : (logic[8]@#1) }
proc child(ep : left inner) { reg c : logic[8]; loop { send ep.v (*c) >> set c := *c + 1 >> cycle 1 } }
proc top() {
    chan l -- r : inner;
    spawn child(l);
    loop { let x = recv r.v >> dprint \"got\" (x) >> cycle 1 }
}";
    let edited = src.replace("*c + 1", "*c + 3");
    let session = Session::new();
    let cold_edited = Session::new().compile(&edited).unwrap();
    session.compile(src).unwrap();
    let baseline = session.cache_stats();
    let warm_edited = session.compile(&edited).unwrap();
    let delta = session.cache_stats() - baseline;

    // The child misses everywhere; the parent's check/opt-ir artifacts
    // are untouched but its lower/emit must revalidate against the new
    // child (transitive fingerprints), so they miss too.
    assert_eq!(delta.check.misses, 1, "{delta}");
    assert_eq!(delta.opt_ir.misses, 1, "{delta}");
    assert_eq!(delta.lower.misses, 2, "{delta}");
    assert_eq!(delta.emit.misses, 2, "{delta}");
    // Warm assembly still equals a cold compile of the edited program.
    assert_eq!(cold_edited.systemverilog, warm_edited.systemverilog);
}

#[test]
fn eviction_under_tiny_capacity_stays_byte_identical() {
    let mut session = suite_session();
    session.set_cache_capacity(2);
    let suite = anvil_designs::suite_sources();
    let refs = suite_refs(&suite);

    let reference: Vec<String> = {
        let fresh = suite_session();
        refs.iter()
            .map(|s| fresh.compile(s).unwrap().systemverilog)
            .collect()
    };
    for round in 0..3 {
        let out: Vec<String> = refs
            .iter()
            .map(|s| session.compile(s).unwrap().systemverilog)
            .collect();
        assert_eq!(out, reference, "round {round}");
    }
    let stats = session.cache_stats();
    assert!(
        stats.evictions() > 0,
        "a 2-entry cache over the ten-design suite must evict: {stats}"
    );
}

#[test]
fn warm_and_cold_match_the_monolithic_pipeline() {
    use anvil_codegen::{compile_program, CodegenOptions};
    use anvil_rtl::{emit_library, ModuleLibrary};

    let session = suite_session();
    let suite = anvil_designs::suite_sources();
    for (name, src) in &suite {
        // The pre-refactor pipeline: one monolithic pass over the whole
        // program, no caching.
        let program = anvil_syntax::parse(src).unwrap();
        let mut externs = ModuleLibrary::new();
        externs.add(anvil_designs::aes::sbox_module());
        let lib = compile_program(&program, &externs, CodegenOptions::default()).unwrap();
        let legacy = emit_library(&lib);

        let cold = session.compile(src).unwrap().systemverilog;
        let warm = session.compile(src).unwrap().systemverilog;
        assert_eq!(cold, legacy, "{name}: cold output diverged");
        assert_eq!(warm, legacy, "{name}: warm output diverged");
    }
}

#[test]
fn unsafe_reports_are_never_cached() {
    // A timing-unsafe program fails identically on every compile, and its
    // diagnostics must re-render against the current source even after a
    // whitespace shift.
    let src = "chan memory_ch {
    right address : (logic[8]@#2),
    left data : (logic[8]@#1)
}
proc top_unsafe(mem : left memory_ch) {
    reg addr : logic[8];
    loop {
        send mem.address (*addr) >>
        set addr := *addr + 1 >>
        let d = recv mem.data >>
        cycle 1
    }
}";
    let shifted = format!("\n\n{src}");
    let session = Session::new();
    let e1 = session.compile(src).unwrap_err().render(src);
    let e2 = session.compile(&shifted).unwrap_err().render(&shifted);
    assert!(e1.contains("loaned register"));
    assert!(e2.contains("loaned register"));
    // Same violation, two lines further down.
    let line = |r: &str| {
        r.split(':')
            .next()
            .and_then(|l| l.parse::<usize>().ok())
            .expect("rendered diagnostics start with line numbers")
    };
    assert_eq!(line(&e2), line(&e1) + 2);
    let stats = session.cache_stats();
    assert_eq!(
        stats.check.hits, 0,
        "error reports must not be reused: {stats}"
    );
}

#[test]
fn batch_compilation_shares_the_cache() {
    let session = suite_session();
    let suite = anvil_designs::suite_sources();
    let refs = suite_refs(&suite);

    // Warm sequentially, then batch-compile: the batch must be served
    // entirely from the shared cache, byte-identical.
    let sequential: Vec<String> = refs
        .iter()
        .map(|s| session.compile(s).unwrap().systemverilog)
        .collect();
    let baseline = session.cache_stats();
    let batch = session.compile_batch_with_workers(&refs, 4);
    let delta = session.cache_stats() - baseline;
    assert_eq!(delta.misses(), 0, "warm batch must be all hits: {delta}");
    for (seq, par) in sequential.iter().zip(&batch) {
        assert_eq!(seq, &par.as_ref().unwrap().systemverilog);
    }
}

#[test]
fn cache_stats_display_is_informative() {
    let stats = CacheStats::default();
    let line = stats.to_string();
    for token in ["check", "opt-ir", "lower", "emit", "total"] {
        assert!(line.contains(token), "{line}");
    }
}
