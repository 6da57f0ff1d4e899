//! Regenerates Appendix B, Table 2: five real-world timing-hazard case
//! studies from open-source repositories, each expressed as the Anvil
//! code that would have caught (or structurally prevented) the bug.

use anvil_core::{CompileError, Session};

struct Case {
    repo: &'static str,
    summary: &'static str,
    how_anvil_helps: &'static str,
    /// Anvil source reproducing the bug's shape; `expect_reject` says
    /// whether the checker should flag it (some cases are prevented
    /// structurally rather than rejected).
    source: String,
    expect_reject: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            repo: "CWE-1298 / HACK@DAC'21 (OpenPiton DMA)",
            summary: "DMA assumed address/config inputs stay stable while it checks \
                      protections, with no mechanism enforcing it",
            how_anvil_helps: "the channel contract requires the inputs to live until \
                      the grant; mutating them mid-check is a compile error",
            source: "
                chan dma_ch {
                    right req : (logic[8]@gnt),
                    left gnt : (logic[8]@#1)
                }
                proc foo(dma : left dma_ch) {
                    reg address : logic[8];
                    loop {
                        send dma.req (*address) >>
                        set address := *address + 1 >>
                        let x = recv dma.gnt >>
                        cycle 1
                    }
                }"
            .into(),
            expect_reject: true,
        },
        Case {
            repo: "lowRISC OpenTitan #10983 (entropy source FW_OV)",
            summary: "firmware writes into the RNG pipeline raced the state machine; \
                      data written was not reliably consumed",
            how_anvil_helps: "a blocking receive acknowledges the write only when the \
                      pipeline is in a consuming state — synchronisation is built-in",
            source: "
                chan fw_ch { right wr : (logic[8]@#1) }
                proc entropy(fw : right fw_ch) {
                    reg pipeline : logic[8];
                    reg busy : logic;
                    loop {
                        if *busy == 0 {
                            let w = recv fw.wr >>
                            set pipeline := w ;
                            set busy := 1
                        } else {
                            set busy := 0 >> cycle 1
                        }
                    }
                }"
            .into(),
            expect_reject: false,
        },
        Case {
            repo: "fpgasystems/Coyote #78 (completion queue)",
            summary: "cq valid pulsed for 2 cycles instead of 1; the contract was \
                      defined but hand-implemented FSMs drifted from it",
            how_anvil_helps: "valid is generated from the send's sync state; it is \
                      asserted for exactly the handshake window",
            source: "
                chan cq_ch { right cq : (logic[8]@#1) }
                proc queue(ep : left cq_ch) {
                    reg n : logic[8];
                    loop {
                        send ep.cq (*n) >>
                        set n := *n + 1 >>
                        cycle 1
                    }
                }"
            .into(),
            expect_reject: false,
        },
        Case {
            repo: "lowRISC ibex f5d408d (instr_valid_id)",
            summary: "pipeline stages were decoupled only after a missing valid \
                      signal caused exception-controller bugs",
            how_anvil_helps: "stage-to-stage transfer is a message; the handshake \
                      (and therefore the valid) cannot be forgotten",
            source: "
                chan stage_ch { right instr : (logic[16]@#1) }
                proc if_stage(id : left stage_ch) {
                    reg pc : logic[16];
                    loop {
                        send id.instr (*pc) >>
                        set pc := *pc + 4 >>
                        cycle 1
                    }
                }
                proc id_stage(ep : right stage_ch) {
                    reg ir : logic[16];
                    loop {
                        let i = recv ep.instr >>
                        set ir := i
                    }
                }"
            .into(),
            expect_reject: false,
        },
        Case {
            repo: "pulp-platform/core2axi 25eba94 (missing w_valid)",
            summary: "a write request was issued without asserting w_valid, \
                      violating the AXI handshake",
            how_anvil_helps: "sends lower to data+valid+ack automatically (§6.2); \
                      an unasserted valid cannot be expressed",
            source: "
                chan axi_w { right w : (logic[32]@#1) }
                proc bridge(ep : left axi_w) {
                    reg data : logic[32];
                    loop {
                        send ep.w (*data) >>
                        set data := *data + 1 >>
                        cycle 1
                    }
                }"
            .into(),
            expect_reject: false,
        },
    ]
}

fn main() {
    println!("== Appendix B, Table 2: real-world timing hazards ==\n");
    let session = Session::new();
    for (i, c) in cases().iter().enumerate() {
        println!("case {}: {}", i + 1, c.repo);
        println!("  bug: {}", c.summary);
        println!("  anvil: {}", c.how_anvil_helps);
        match session.compile(&c.source) {
            Ok(out) => {
                assert!(
                    !c.expect_reject,
                    "case {} should have been rejected",
                    c.repo
                );
                let valids = out.systemverilog.matches("_valid").count();
                println!(
                    "  result: compiles; handshake implemented implicitly \
                     ({valids} valid-wire references in the SystemVerilog)\n"
                );
            }
            Err(CompileError::TimingUnsafe(errs)) => {
                assert!(c.expect_reject, "case {} unexpectedly rejected", c.repo);
                println!("  result: REJECTED at compile time — {}\n", errs[0]);
            }
            Err(e) => println!("  result: failed to build case: {e}\n"),
        }
    }
}
