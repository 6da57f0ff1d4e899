//! Golden diagnostics: the compiler's messages for the paper's unsafe
//! examples match the paper's wording.

use anvil::{CompileError, Session};

fn errors_for(src: &str) -> Vec<String> {
    match Session::new().compile(src) {
        Err(CompileError::TimingUnsafe(errs)) => errs.into_iter().map(|e| e.message).collect(),
        Err(other) => panic!("expected timing violations, got: {other}"),
        Ok(_) => panic!("expected rejection"),
    }
}

#[test]
fn loaned_register_message_matches_paper() {
    // Fig. 2 / Fig. 9: "Error: Attempted assignment to a loaned register".
    let msgs = errors_for(&anvil_designs::hazard::fig1_top_unsafe_anvil());
    assert!(
        msgs.iter()
            .any(|m| m.contains("Attempted assignment to a loaned register")),
        "{msgs:?}"
    );
}

#[test]
fn value_lifetime_message_matches_paper() {
    // Appendix A: "Value not live long enough in message send!" /
    // Fig. 2: "Value does not live long enough in message send".
    let src = "
        chan ch { right data : (logic@res), left res : (logic@#1) }
        chan ch_s { right data : (logic@#1) }
        proc child(ep : right ch_s, up : left ch) {
            loop {
                let d = recv ep.data >>
                send up.data (d) >>
                let r = recv up.res >>
                cycle 1
            }
        }";
    let msgs = errors_for(src);
    assert!(
        msgs.iter()
            .any(|m| m.contains("does not live long enough in message send")),
        "{msgs:?}"
    );
}

#[test]
fn renders_carry_line_and_column() {
    let src = anvil_designs::hazard::fig1_top_unsafe_anvil();
    let err = Session::new().compile(&src).unwrap_err();
    let rendered = err.render(&src);
    // The paper's CLI shows `Top.anvil:29:4:`-style locations.
    assert!(
        rendered.lines().next().unwrap().split(':').count() >= 3,
        "{rendered}"
    );
    assert!(rendered.contains("set addr := *addr + 1"));
}

mod sim_errors {
    //! Golden messages for the simulator error paths introduced with the
    //! compiled (instruction-tape) backend: cyclic and width-inconsistent
    //! netlists are rejected up front — by both backends, with identical
    //! stable wording.

    use anvil_rtl::{Expr, Module};
    use anvil_sim::{Backend, Sim, SimError};

    fn prepare_err(m: &Module, backend: Backend) -> SimError {
        match Sim::with_backend(m, backend) {
            Err(e) => e,
            Ok(_) => panic!("expected `{}` to be rejected", m.name),
        }
    }

    #[test]
    fn combinational_loop_message() {
        let mut m = Module::new("loopy");
        let w1 = m.wire("w1", 1);
        let w2 = m.wire("w2", 1);
        let o = m.output("o", 1);
        m.assign(w1, Expr::Signal(w2).not());
        m.assign(w2, Expr::Signal(w1).not());
        m.assign(o, Expr::Signal(w1));
        // Identical wording from both backends.
        for backend in [Backend::Tree, Backend::Compiled] {
            let msg = prepare_err(&m, backend).to_string();
            assert!(
                msg == "combinational loop through signal `w1`"
                    || msg == "combinational loop through signal `w2`",
                "{msg}"
            );
        }
    }

    #[test]
    fn driver_width_mismatch_message() {
        let mut m = Module::new("bad");
        let o = m.output("o", 4);
        m.assign(o, Expr::lit(0, 5));
        for backend in [Backend::Tree, Backend::Compiled] {
            let err = prepare_err(&m, backend);
            assert_eq!(err.to_string(), "driver of `o` has width 5, expected 4");
        }
    }

    #[test]
    fn register_driver_width_mismatch_message() {
        let mut m = Module::new("bad_reg");
        let r = m.reg("r", 8);
        m.set_next(r, Expr::Signal(r).add(Expr::lit(1, 8)).resize(9));
        for backend in [Backend::Tree, Backend::Compiled] {
            let err = prepare_err(&m, backend);
            assert_eq!(err.to_string(), "driver of `r` has width 9, expected 8");
        }
    }

    #[test]
    fn malformed_operand_width_message() {
        let mut m = Module::new("bad_operands");
        let a = m.input("a", 4);
        let b = m.input("b", 6);
        let o = m.output("o", 4);
        m.assign(o, Expr::Signal(a).add(Expr::Signal(b)));
        for backend in [Backend::Tree, Backend::Compiled] {
            let err = prepare_err(&m, backend);
            assert_eq!(
                err.to_string(),
                "malformed expression: operand width mismatch 4 vs 6 in Add"
            );
        }
    }
}

#[test]
fn parse_and_elaboration_errors_are_distinct() {
    assert!(matches!(
        Session::new().compile("proc p() { loop { ??? } }"),
        Err(CompileError::Parse(_))
    ));
    assert!(matches!(
        Session::new().compile("proc p() { loop { set ghost := 1 >> cycle 1 } }"),
        Err(CompileError::Elaborate(_))
    ));
}
