//! `ANVIL_SIM_LANES` handling: unrecognized values are a structured
//! error naming the offender and every monomorphized width, never a
//! silent fall-back to the default stride.
//!
//! This lives in its own integration-test binary (= its own process) so
//! mutating the environment cannot race other tests that compile tape
//! programs.

use anvil_rtl::{Expr, Module};
use anvil_sim::{SimError, TapeOptions, TapeProgram, LANE_STRIDE};

fn toggler() -> Module {
    let mut m = Module::new("t");
    let q = m.reg("q", 1);
    let o = m.output("o", 1);
    m.set_next(q, Expr::Signal(q).not());
    m.assign(o, Expr::Signal(q));
    m
}

#[test]
fn unrecognized_lane_width_is_an_error() {
    // SAFETY-by-isolation: this test binary holds exactly one test, so no
    // concurrent test observes the mutated environment.
    std::env::set_var("ANVIL_SIM_LANES", "12");

    let err = match TapeProgram::compile(&toggler()) {
        Err(e) => e,
        Ok(_) => panic!("expected UnknownLaneWidth"),
    };
    let SimError::UnknownLaneWidth(v) = &err else {
        panic!("expected UnknownLaneWidth, got {err:?}");
    };
    assert_eq!(v, "12");
    // The message names the offender and every monomorphized width.
    let msg = err.to_string();
    for needle in ["12", "4", "8", "16", "32", "ANVIL_SIM_LANES"] {
        assert!(msg.contains(needle), "{msg}");
    }

    // Non-numeric values are the same structured error, not a parse panic.
    std::env::set_var("ANVIL_SIM_LANES", "wide");
    assert!(matches!(
        TapeProgram::compile(&toggler()),
        Err(SimError::UnknownLaneWidth(v)) if v == "wide"
    ));

    // Every valid width selects that stride.
    for w in [4usize, 8, 16, 32] {
        std::env::set_var("ANVIL_SIM_LANES", w.to_string());
        let p = TapeProgram::compile(&toggler()).unwrap();
        assert_eq!(p.stride(), w, "ANVIL_SIM_LANES={w}");
    }

    // An explicit `TapeOptions::stride` wins over the environment, and an
    // invalid one is the same structured error.
    std::env::set_var("ANVIL_SIM_LANES", "4");
    let opts = TapeOptions {
        stride: Some(8),
        ..TapeOptions::default()
    };
    assert_eq!(
        TapeProgram::compile_with(&toggler(), opts)
            .unwrap()
            .stride(),
        8
    );
    let bad = TapeOptions {
        stride: Some(5),
        ..TapeOptions::default()
    };
    assert!(matches!(
        TapeProgram::compile_with(&toggler(), bad),
        Err(SimError::UnknownLaneWidth(v)) if v == "5"
    ));

    // Unset (and empty) fall back to the default stride, the widest
    // monomorphized width.
    assert_eq!(LANE_STRIDE, 32);
    std::env::set_var("ANVIL_SIM_LANES", "");
    assert_eq!(
        TapeProgram::compile(&toggler()).unwrap().stride(),
        LANE_STRIDE
    );
    std::env::remove_var("ANVIL_SIM_LANES");
    assert_eq!(
        TapeProgram::compile(&toggler()).unwrap().stride(),
        LANE_STRIDE
    );
}
