//! The parallel batch-compile front door is *deterministic*: compiling
//! the ten evaluation designs through `Session::compile_batch` produces
//! SystemVerilog byte-identical to sequential compilation, regardless of
//! thread scheduling or symbol-interning order. Also pins down the
//! `Send + Sync` guarantees the batch API relies on.

use anvil::Session;

/// The ten Table 1 designs as Anvil sources (AES needs the S-box extern,
/// registered on the shared session below).
fn design_sources() -> Vec<String> {
    anvil_designs::suite_sources()
        .into_iter()
        .map(|(_, src)| src)
        .collect()
}

fn shared_session() -> Session {
    let mut c = Session::new();
    c.add_extern(anvil_designs::aes::sbox_module());
    c
}

#[test]
fn batch_output_is_byte_identical_to_sequential() {
    let sources = design_sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let session = shared_session();

    let sequential: Vec<String> = refs
        .iter()
        .map(|s| {
            session
                .compile(s)
                .unwrap_or_else(|e| panic!("sequential compile failed: {}", e.render(s)))
                .systemverilog
        })
        .collect();

    // Force real worker threads even on single-core CI machines.
    let batch = session.compile_batch_with_workers(&refs, 4);
    assert_eq!(batch.len(), sequential.len());
    for (i, (seq, par)) in sequential.iter().zip(&batch).enumerate() {
        let par = par
            .as_ref()
            .unwrap_or_else(|e| panic!("batch compile of design {i} failed: {e}"));
        assert_eq!(
            seq, &par.systemverilog,
            "design {i}: batch SV differs from sequential SV"
        );
    }
}

#[test]
fn batch_is_stable_across_repeated_runs() {
    // Two batch runs interleave worker threads differently; the output
    // must not care.
    let sources = design_sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let session = shared_session();
    let run = || -> Vec<String> {
        session
            .compile_batch_with_workers(&refs, 4)
            .into_iter()
            .map(|r| r.expect("design compiles").systemverilog)
            .collect()
    };
    assert_eq!(run(), run());
}

#[test]
fn batch_records_pass_stats_per_design() {
    let sources = design_sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let out = shared_session().compile_batch_with_workers(&refs, 3);
    for r in &out {
        let stats = r.as_ref().unwrap().stats;
        assert!(stats.events_after > 0);
        assert!(stats.events_after <= stats.events_before);
    }
}

#[test]
fn ir_and_session_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    // The guarantees compile_batch relies on, pinned as a public contract
    // (they are also statically asserted inside the defining crates).
    assert_send_sync::<anvil_ir::ThreadIr>();
    assert_send_sync::<anvil_ir::EventGraph>();
    assert_send_sync::<anvil_ir::MsgRef>();
    assert_send_sync::<anvil_rtl::Module>();
    assert_send_sync::<anvil_rtl::ModuleLibrary>();
    assert_send_sync::<Session>();
    assert_send_sync::<anvil::Symbol>();
    assert_send::<anvil::CompileOutput>();
    assert_send::<anvil::CompileError>();
}

#[test]
fn shared_graph_answers_queries_from_many_threads() {
    // A single EventGraph served concurrently (the memo cache is behind a
    // lock): all threads must agree with the single-threaded answers.
    use anvil_ir::{build_proc, BuildCtx};
    let src = anvil_designs::ptw::anvil_source();
    let prog = anvil_syntax::parse(&src).unwrap();
    let proc = &prog.procs[0];
    let ctx = BuildCtx {
        program: &prog,
        proc,
    };
    let irs = build_proc(&ctx, 2).unwrap();
    let ir = &irs[0];
    let n = ir.graph.len();
    let reference: Vec<bool> = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .map(|(a, b)| ir.graph.le(anvil_ir::EventId(a), anvil_ir::EventId(b)))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let got: Vec<bool> = (0..n)
                    .flat_map(|a| (0..n).map(move |b| (a, b)))
                    .map(|(a, b)| ir.graph.le(anvil_ir::EventId(a), anvil_ir::EventId(b)))
                    .collect();
                assert_eq!(got, reference);
            });
        }
    });
}
