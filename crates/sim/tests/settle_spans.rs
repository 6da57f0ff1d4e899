//! Which simulator spans a traced run records. `Sim`'s compiled backend
//! and `SimBatch` share one tape executor, but only batch settles open a
//! `sim.region` child per dirty region: a traced `Sim` keeps one
//! `sim.settle` span per settle. A `Sim` settles once per observation,
//! that is once per step and once per read after a change, however many
//! inputs it was poked.
//!
//! A file of its own, so no concurrently running test records into the
//! capture.

use anvil_rtl::{Bits, Expr, Module};
use anvil_sim::{Backend, Sim, SimBatch, TapeProgram};
use anvil_trace::{span, Capture, SpanRecord};

/// Two independent input cones: `a` feeds an accumulator register, `b`
/// an incrementer.
fn two_cones() -> Module {
    let mut m = Module::new("two_cones");
    let a = m.input("a", 8);
    let b = m.input("b", 8);
    let acc = m.reg("acc", 8);
    let oa = m.output("oa", 8);
    let ob = m.output("ob", 8);
    m.set_next(acc, Expr::Signal(acc).add(Expr::Signal(a)));
    m.assign(oa, Expr::Signal(acc));
    m.assign(ob, Expr::Signal(b).add(Expr::lit(1, 8)));
    m
}

/// Names (`cat.name`) of every record below `root`.
fn names_under(records: &[SpanRecord], root: u64) -> Vec<String> {
    let mut ids = vec![root];
    let mut names = Vec::new();
    // Records sort by start time, so a parent precedes its children.
    for r in records {
        if ids.contains(&r.parent) {
            ids.push(r.id);
            names.push(format!("{}.{}", r.cat, r.name));
        }
    }
    names
}

#[test]
fn region_spans_come_from_batch_settles_only() {
    let m = two_cones();
    assert!(
        TapeProgram::compile(&m).unwrap().region_count() >= 2,
        "the module should partition into one region per cone"
    );

    let cap = Capture::start();
    let scalar = span("test", "scalar");
    let scalar_id = scalar.id();
    let mut sim = Sim::with_backend(&m, Backend::Compiled).unwrap();
    for v in 1..4 {
        sim.poke("a", Bits::from_u64(v, 8)).unwrap();
        sim.poke("b", Bits::from_u64(v, 8)).unwrap();
        sim.step().unwrap();
    }
    assert_eq!(sim.peek("oa").unwrap().to_u64(), 6);
    drop(scalar);

    let batched = span("test", "batch");
    let batch_id = batched.id();
    let mut batch = SimBatch::new(&m, 4).unwrap();
    batch.step();
    drop(batched);
    let records = cap.finish();

    let scalar_names = names_under(&records, scalar_id);
    assert_eq!(
        scalar_names.iter().filter(|n| *n == "sim.settle").count(),
        4,
        "two pokes per cycle, three steps and a read settle once per step \
         and once for the read: {scalar_names:?}"
    );
    assert!(
        !scalar_names.iter().any(|n| n == "sim.region"),
        "a Sim settle opens no region spans: {scalar_names:?}"
    );
    let batch_names = names_under(&records, batch_id);
    assert!(
        batch_names.iter().any(|n| n == "sim.region"),
        "a batch settle opens one span per dirty region: {batch_names:?}"
    );
}
