//! Golden counterexample traces: the rendered, cycle-carrying textual
//! traces for the seeded safety violations are stable byte for byte
//! (same conventions as `error_goldens.rs` for compiler diagnostics).
//!
//! Stability rests on the whole pipeline being deterministic: blasting
//! order, AIG node allocation, CNF variable numbering, and the CDCL
//! search are all functions of the input module alone, so the SAT model —
//! and hence the reconstructed trace — never changes run to run.

use anvil_designs::props::seeded_violations;
use anvil_verify::{prove, render_trace, AigCircuit, ProveResult};

fn rendered_trace(design: &str) -> String {
    let prop = seeded_violations()
        .into_iter()
        .find(|p| p.design == design)
        .unwrap_or_else(|| panic!("seeded violation `{design}`"));
    let (result, _) = prove(
        &AigCircuit::from_module(&prop.module).unwrap(),
        &prop.assertion,
        16,
    )
    .unwrap();
    let ProveResult::Falsified { trace, .. } = result else {
        panic!("`{design}` should falsify, got {result:?}");
    };
    render_trace(&prop.module, &prop.assertion, &trace).unwrap()
}

#[test]
fn fifo_overflow_trace_is_golden() {
    let expected = "\
counterexample: `fifo_overflow` violates `ok` (depth 6)
  inputs: enq_valid, deq_ack
  cycle   0 | 0x1 0x0 | assert=1
  cycle   1 | 0x1 0x0 | assert=1
  cycle   2 | 0x1 0x0 | assert=1
  cycle   3 | 0x1 0x0 | assert=1
  cycle   4 | 0x1 0x0 | assert=1
  cycle   5 | 0x0 0x0 | assert=0  <-- violation
";
    assert_eq!(rendered_trace("fifo_overflow"), expected);
}

#[test]
fn hazard_counter_trace_is_golden() {
    let expected = "\
counterexample: `hazard_counter` violates `ok` (depth 13)
  inputs: en
  cycle   0 | 0x1 | assert=1
  cycle   1 | 0x1 | assert=1
  cycle   2 | 0x1 | assert=1
  cycle   3 | 0x1 | assert=1
  cycle   4 | 0x1 | assert=1
  cycle   5 | 0x1 | assert=1
  cycle   6 | 0x1 | assert=1
  cycle   7 | 0x1 | assert=1
  cycle   8 | 0x1 | assert=1
  cycle   9 | 0x1 | assert=1
  cycle  10 | 0x1 | assert=1
  cycle  11 | 0x1 | assert=1
  cycle  12 | 0x0 | assert=0  <-- violation
";
    assert_eq!(rendered_trace("hazard_counter"), expected);
}

#[test]
fn renders_carry_the_violated_expression_and_cycle_positions() {
    // Same convention as the compiler diagnostics goldens: the render
    // names what was violated and locates it (here: by cycle).
    let text = rendered_trace("fifo_overflow");
    let header = text.lines().next().unwrap();
    assert!(header.contains('`'), "{header}");
    assert!(header.contains("depth 6"), "{header}");
    assert!(text.matches("cycle").count() == 6, "{text}");
    assert!(text.ends_with("<-- violation\n"), "{text}");
}
