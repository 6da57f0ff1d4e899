//! Event-graph pins on the ten suite designs: every `min_gap`/`max_gap`
//! answer equals a direct per-reference recomputation, before and after
//! optimization, and the optimizer removes exactly the events the Fig. 8
//! ablation reports.

#[path = "../crates/ir/tests/common/mod.rs"]
mod reference;

use anvil_designs::suite_sources;
use anvil_ir::{build_proc, optimize, BuildCtx, OptConfig};
use reference::Reference;

#[test]
fn gap_queries_match_the_reference_on_every_suite_graph() {
    for (name, src) in suite_sources() {
        let prog = anvil_syntax::parse(&src).expect("suite design parses");
        for proc in &prog.procs {
            let ctx = BuildCtx {
                program: &prog,
                proc,
            };
            for unroll in [1, 2] {
                for ir in build_proc(&ctx, unroll).expect("suite design elaborates") {
                    let what = format!("{name}/{} unroll {unroll}", proc.name);
                    Reference::new(&ir.graph).check_all(&ir.graph, &what);
                    let (opt, _) = optimize(ir, OptConfig::default());
                    Reference::new(&opt.graph).check_all(&opt.graph, &format!("{what} optimized"));
                }
            }
        }
    }
}

/// `fig8_opt`'s rows: events before and after, then events removed by
/// passes (a)–(d) and the dead-event sweep, summed over the top process's
/// threads at one iteration.
const FIG8: [(&str, [usize; 7]); 10] = [
    ("fifo", [15, 12, 1, 0, 2, 0, 4]),
    ("spill", [15, 12, 1, 0, 2, 0, 4]),
    ("stream_fifo", [15, 12, 1, 0, 2, 0, 4]),
    ("tlb", [10, 8, 2, 0, 0, 0, 0]),
    ("ptw", [22, 20, 0, 0, 2, 0, 4]),
    ("aes", [19, 10, 7, 0, 2, 0, 4]),
    ("axi_demux", [13, 12, 0, 0, 1, 0, 2]),
    ("axi_mux", [22, 18, 2, 0, 2, 0, 4]),
    ("alu", [15, 12, 0, 0, 0, 1, 2]),
    ("systolic", [16, 8, 8, 0, 0, 0, 0]),
];

#[test]
fn optimizer_stats_are_pinned_for_each_suite_design() {
    let suite = suite_sources();
    assert_eq!(suite.len(), FIG8.len());
    for ((name, src), (pinned_name, pinned)) in suite.iter().zip(FIG8) {
        assert_eq!(*name, pinned_name);
        let prog = anvil_syntax::parse(src).expect("suite design parses");
        let top = prog
            .proc(&format!("{name}_anvil"))
            .expect("top process exists");
        let ctx = BuildCtx {
            program: &prog,
            proc: top,
        };
        let mut sum = [0; 7];
        for ir in build_proc(&ctx, 1).expect("suite design elaborates") {
            let (_, s) = optimize(ir, OptConfig::default());
            let row = [
                s.before,
                s.after,
                s.merged_identical,
                s.unbalanced_joins,
                s.shifted_joins,
                s.removed_joins,
                s.dead,
            ];
            for (total, n) in sum.iter_mut().zip(row) {
                *total += n;
            }
        }
        assert_eq!(
            sum, pinned,
            "{name}: [before, after, (a), (b), (c), (d), dead]"
        );
    }
}
