//! Per-item compilation units: the dependency graph and fingerprint keys
//! driving the incremental query cache.
//!
//! A compilation unit is one `proc` definition. Its *tracked dependencies*
//! are exactly what each pipeline stage reads besides the proc itself:
//!
//! * **check / opt-ir** — the `chan` definitions the proc's endpoint
//!   parameters and local channel instantiations name, and the `extern fn`
//!   declarations its terms call (elaboration reads their widths);
//! * **lower / emit** — additionally the *transitive* units of every
//!   spawned child (the parent's module instantiates the child and is
//!   validated against its ports) and the session's extern RTL library
//!   (tracked by a generation counter bumped on every registration).
//!
//! Every key starts from the item's span-independent
//! [`content_fingerprint`], so whitespace, comment, and item-reordering
//! edits produce identical keys — those compiles are pure cache hits.
//! Renaming a register, changing a channel's timing annotation, or
//! flipping any codegen option lands in the hashed material and misses.

use std::collections::HashMap;

use anvil_codegen::CodegenOptions;
use anvil_syntax::{content_fingerprint, Program, StableHasher, Term, TermKind};

/// Domain-separation tags, one per cached stage (and one per key family),
/// so the same ingredient hashes can never collide across stages.
const TAG_CHECK: u64 = 0xA171_0001;
const TAG_OPT_IR: u64 = 0xA171_0002;
const TAG_LOWER: u64 = 0xA171_0003;
const TAG_EMIT: u64 = 0xA171_0004;
const TAG_EXTERN_SV: u64 = 0xA171_0005;
const TAG_AIG: u64 = 0xA171_0006;
const TAG_PROOF: u64 = 0xA171_0007;
/// Marks a dependency that does not resolve to a definition (the compile
/// will fail in elaboration; the key still has to be well-defined).
const TAG_MISSING: u64 = 0xA171_00FF;

/// Emit-stage key for a session extern module's SystemVerilog chunk.
/// Extern RTL is session state rather than a compilation unit, so the key
/// is the module name plus the library generation (bumped whenever an
/// extern is registered or replaced).
/// Aig-stage key for the bit-blasted image of one flattened top-level
/// unit. Derived from the unit's lower-stage key, which already folds in
/// the proc's content, its tracked dependencies, the codegen options, the
/// transitive children (the flattened module inlines them), and the
/// extern-library generation — exactly the ingredients elaboration and
/// blasting read.
pub(crate) fn aig_key(lower_key: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(TAG_AIG);
    h.write_u64(lower_key);
    h.finish()
}

/// Proof-stage key for one (unit, property) pair: the unit's lower-stage
/// fingerprint (which already covers everything the flattened circuit is
/// built from — so whitespace/comment edits key identically) crossed with
/// the property text. A changed property or any semantic edit to the unit
/// or its dependencies produces a fresh key.
pub(crate) fn proof_key(lower_key: u64, property: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(TAG_PROOF);
    h.write_u64(lower_key);
    h.write_str(property);
    h.finish()
}

pub(crate) fn extern_chunk_key(name: &str, extern_gen: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(TAG_EXTERN_SV);
    h.write_str(name);
    h.write_u64(extern_gen);
    h.finish()
}

/// The codegen-side cache keys for one compilation unit, one per stage
/// boundary. (The check-stage key is options-independent and computed
/// directly by [`ItemGraph::check_key`].)
#[derive(Clone, Copy, Debug)]
pub(crate) struct UnitKeys {
    /// Key of the optimized single-iteration IR.
    pub opt_ir: u64,
    /// Key of the lowered RTL module.
    pub lower: u64,
    /// Key of the emitted SystemVerilog chunk.
    pub emit: u64,
}

/// Stable fingerprint of the codegen options (every field participates:
/// flipping any `OptConfig` bit yields a different compilation-unit key).
/// Exhaustive destructuring makes adding an options field a compile error
/// here — a field missing from the key would serve stale artifacts.
pub(crate) fn options_fingerprint(opts: &CodegenOptions) -> u64 {
    let CodegenOptions {
        opt_config,
        force_dynamic_handshake,
    } = *opts;
    let anvil_ir::OptConfig {
        merge_identical,
        remove_unbalanced,
        shift_branch_joins,
        remove_branch_joins,
        sweep_dead,
    } = opt_config;
    let mut h = StableHasher::new();
    h.write_bool(force_dynamic_handshake);
    h.write_bool(merge_identical);
    h.write_bool(remove_unbalanced);
    h.write_bool(shift_branch_joins);
    h.write_bool(remove_branch_joins);
    h.write_bool(sweep_dead);
    h.finish()
}

/// The item-level view of one parsed program: per-item content
/// fingerprints plus each proc's tracked dependency edges.
pub(crate) struct ItemGraph<'p> {
    /// Channel-definition fingerprints by name (first definition wins,
    /// matching name lookup everywhere else in the pipeline).
    chan_fp: HashMap<&'p str, u64>,
    /// Extern-declaration fingerprints by name.
    extern_fp: HashMap<&'p str, u64>,
    /// Per-proc dependency summaries by name.
    units: HashMap<&'p str, ProcDeps<'p>>,
}

struct ProcDeps<'p> {
    /// Content fingerprint of the proc definition itself.
    fp: u64,
    /// Channel type names the proc references (params + local channels),
    /// sorted and deduplicated.
    chans: Vec<&'p str>,
    /// Extern functions called anywhere in the proc's threads, sorted and
    /// deduplicated.
    externs: Vec<&'p str>,
    /// Spawned child process names, in spawn order (duplicates kept: the
    /// module content depends on each spawn).
    children: Vec<&'p str>,
}

impl<'p> ItemGraph<'p> {
    /// Indexes every top-level item of the program.
    pub(crate) fn new(program: &'p Program) -> ItemGraph<'p> {
        let mut chan_fp = HashMap::new();
        for c in &program.chans {
            chan_fp
                .entry(c.name.as_str())
                .or_insert_with(|| content_fingerprint(c));
        }
        let mut extern_fp = HashMap::new();
        for x in &program.externs {
            extern_fp
                .entry(x.name.as_str())
                .or_insert_with(|| content_fingerprint(x));
        }
        let mut units = HashMap::new();
        for p in &program.procs {
            units.entry(p.name.as_str()).or_insert_with(|| {
                let mut chans: Vec<&str> = p
                    .params
                    .iter()
                    .map(|ep| ep.chan.as_str())
                    .chain(p.chans.iter().map(|c| c.chan.as_str()))
                    .collect();
                chans.sort_unstable();
                chans.dedup();
                let mut externs = Vec::new();
                for thread in &p.threads {
                    let term = match thread {
                        anvil_syntax::Thread::Loop(t) => t,
                        anvil_syntax::Thread::Recursive(t) => t,
                    };
                    collect_extern_calls(term, &mut externs);
                }
                externs.sort_unstable();
                externs.dedup();
                ProcDeps {
                    fp: content_fingerprint(p),
                    chans,
                    externs,
                    children: p.spawns.iter().map(|s| s.proc_name.as_str()).collect(),
                }
            });
        }
        ItemGraph {
            chan_fp,
            extern_fp,
            units,
        }
    }

    /// Folds a named dependency into `h`: the name plus the referenced
    /// definition's fingerprint (or a missing marker).
    fn fold_dep(&self, h: &mut StableHasher, name: &str, fp: Option<&u64>) {
        h.write_str(name);
        match fp {
            Some(fp) => h.write_u64(*fp),
            None => h.write_u64(TAG_MISSING),
        }
    }

    /// The stage-independent basis of a unit's keys: the proc's own
    /// content plus every non-transitive dependency (channels, extern
    /// declarations).
    fn base_fingerprint(&self, proc: &str) -> u64 {
        let deps = &self.units[proc];
        let mut h = StableHasher::new();
        h.write_u64(deps.fp);
        h.write_usize(deps.chans.len());
        for c in &deps.chans {
            self.fold_dep(&mut h, c, self.chan_fp.get(c));
        }
        h.write_usize(deps.externs.len());
        for x in &deps.externs {
            self.fold_dep(&mut h, x, self.extern_fp.get(x));
        }
        h.finish()
    }

    /// The check-stage key for one proc (options-independent: the type
    /// checker never reads codegen options).
    pub(crate) fn check_key(&self, proc: &str) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(TAG_CHECK);
        h.write_u64(self.base_fingerprint(proc));
        h.finish()
    }

    /// Computes the full key set for every proc in `order` (which must be
    /// children-before-parents, as produced by
    /// [`anvil_codegen::proc_order`]): lower/emit keys fold in the
    /// transitive fingerprints of spawned children and the extern-library
    /// generation.
    pub(crate) fn unit_keys(
        &self,
        order: &[&'p str],
        options_fp: u64,
        extern_gen: u64,
    ) -> HashMap<&'p str, UnitKeys> {
        // Transitive unit fingerprint: base + options + children, computed
        // bottom-up (children appear earlier in `order`).
        let mut transitive: HashMap<&str, u64> = HashMap::new();
        let mut keys = HashMap::new();
        for name in order {
            let base = self.base_fingerprint(name);
            let mut h = StableHasher::new();
            h.write_u64(base);
            h.write_u64(options_fp);
            let children = &self.units[name].children;
            h.write_usize(children.len());
            for child in children {
                // A child absent from `transitive` is an extern module or
                // an unknown proc; the extern generation below covers the
                // former and elaboration rejects the latter.
                match transitive.get(child) {
                    Some(fp) => {
                        h.write_str(child);
                        h.write_u64(*fp);
                    }
                    None => self.fold_dep(&mut h, child, None),
                }
            }
            let unit_fp = h.finish();
            transitive.insert(name, unit_fp);

            let tagged = |tag: u64, payload: u64| {
                let mut h = StableHasher::new();
                h.write_u64(tag);
                h.write_u64(payload);
                h.finish()
            };
            let mut lower_h = StableHasher::new();
            lower_h.write_u64(TAG_LOWER);
            lower_h.write_u64(unit_fp);
            lower_h.write_u64(extern_gen);
            let lower = lower_h.finish();
            let mut opt_h = StableHasher::new();
            opt_h.write_u64(TAG_OPT_IR);
            opt_h.write_u64(base);
            opt_h.write_u64(options_fp);
            keys.insert(
                *name,
                UnitKeys {
                    opt_ir: opt_h.finish(),
                    lower,
                    emit: tagged(TAG_EMIT, lower),
                },
            );
        }
        keys
    }
}

/// Recursively collects every `extern fn` call in a term.
fn collect_extern_calls<'p>(term: &'p Term, out: &mut Vec<&'p str>) {
    match &term.kind {
        TermKind::ExternCall { func, args } => {
            out.push(func.as_str());
            for a in args {
                collect_extern_calls(a, out);
            }
        }
        TermKind::Lit { .. }
        | TermKind::Unit
        | TermKind::Var(_)
        | TermKind::Cycle(_)
        | TermKind::Ready { .. }
        | TermKind::Recv { .. }
        | TermKind::Recurse => {}
        TermKind::RegRead { index, .. } => {
            if let Some(i) = index {
                collect_extern_calls(i, out);
            }
        }
        TermKind::Seq { first, rest, .. } => {
            collect_extern_calls(first, out);
            collect_extern_calls(rest, out);
        }
        TermKind::Let { value, body, .. } => {
            collect_extern_calls(value, out);
            collect_extern_calls(body, out);
        }
        TermKind::If {
            cond,
            then_t,
            else_t,
        } => {
            collect_extern_calls(cond, out);
            collect_extern_calls(then_t, out);
            if let Some(e) = else_t {
                collect_extern_calls(e, out);
            }
        }
        TermKind::Send { value, .. } => collect_extern_calls(value, out),
        TermKind::Assign { index, value, .. } => {
            if let Some(i) = index {
                collect_extern_calls(i, out);
            }
            collect_extern_calls(value, out);
        }
        TermKind::Binop(_, a, b) => {
            collect_extern_calls(a, out);
            collect_extern_calls(b, out);
        }
        TermKind::Unop(_, a) => collect_extern_calls(a, out),
        TermKind::Slice { base, .. } => collect_extern_calls(base, out),
        TermKind::Concat(parts) => {
            for p in parts {
                collect_extern_calls(p, out);
            }
        }
        TermKind::Dprint { value, .. } => {
            if let Some(v) = value {
                collect_extern_calls(v, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_syntax::parse;

    const TWO_PROCS: &str = "chan ch { right v : (logic[8]@#1) }
proc a(ep : left ch) { reg r : logic[8]; loop { send ep.v (*r) >> set r := *r + 1 >> cycle 1 } }
proc b() { reg s : logic[4]; loop { set s := *s + 1 >> cycle 1 } }";

    fn keys_for<'p>(
        graph: &ItemGraph<'p>,
        program: &'p Program,
        opts: &CodegenOptions,
    ) -> HashMap<&'p str, UnitKeys> {
        let order: Vec<&str> = program.procs.iter().map(|p| p.name.as_str()).collect();
        graph.unit_keys(&order, options_fingerprint(opts), 0)
    }

    #[test]
    fn chan_edit_invalidates_only_dependent_procs() {
        let p1 = parse(TWO_PROCS).unwrap();
        let p2 = parse(&TWO_PROCS.replace("@#1", "@#2")).unwrap();
        let g1 = ItemGraph::new(&p1);
        let g2 = ItemGraph::new(&p2);
        // `a` references the channel; `b` does not.
        assert_ne!(g1.check_key("a"), g2.check_key("a"));
        assert_eq!(g1.check_key("b"), g2.check_key("b"));
    }

    #[test]
    fn option_flips_change_codegen_keys_but_not_check_keys() {
        let program = parse(TWO_PROCS).unwrap();
        let graph = ItemGraph::new(&program);
        let base = CodegenOptions::default();
        let mut flipped = base;
        flipped.opt_config.merge_identical = false;
        let k1 = keys_for(&graph, &program, &base);
        let k2 = keys_for(&graph, &program, &flipped);
        assert_ne!(k1["a"].opt_ir, k2["a"].opt_ir);
        assert_ne!(k1["a"].lower, k2["a"].lower);
        assert_ne!(k1["a"].emit, k2["a"].emit);
    }

    #[test]
    fn child_edit_invalidates_parent_lowering_but_not_its_check() {
        let src = "chan inner { right v : (logic[8]@#1) }
proc child(ep : left inner) { reg c : logic[8]; loop { send ep.v (*c) >> set c := *c + 1 >> cycle 1 } }
proc top() {
    chan l -- r : inner;
    spawn child(l);
    loop { let x = recv r.v >> cycle 1 }
}";
        let edited = src.replace("*c + 1", "*c + 2");
        let p1 = parse(src).unwrap();
        let p2 = parse(&edited).unwrap();
        let g1 = ItemGraph::new(&p1);
        let g2 = ItemGraph::new(&p2);
        let order = ["child", "top"];
        let opts = options_fingerprint(&CodegenOptions::default());
        let k1 = g1.unit_keys(&order, opts, 0);
        let k2 = g2.unit_keys(&order, opts, 0);
        assert_ne!(k1["child"].lower, k2["child"].lower);
        assert_ne!(k1["top"].lower, k2["top"].lower, "parent must revalidate");
        assert_eq!(g1.check_key("top"), g2.check_key("top"));
        assert_eq!(k1["top"].opt_ir, k2["top"].opt_ir);
    }

    #[test]
    fn extern_generation_participates_in_lower_keys_only() {
        let program = parse(TWO_PROCS).unwrap();
        let graph = ItemGraph::new(&program);
        let order = ["a", "b"];
        let opts = options_fingerprint(&CodegenOptions::default());
        let k1 = graph.unit_keys(&order, opts, 0);
        let k2 = graph.unit_keys(&order, opts, 1);
        assert_eq!(k1["a"].opt_ir, k2["a"].opt_ir);
        assert_ne!(k1["a"].lower, k2["a"].lower);
        assert_ne!(k1["a"].emit, k2["a"].emit);
    }

    #[test]
    fn extern_calls_are_tracked_dependencies() {
        let with = "extern fn f(logic[8]) -> logic[8];
proc p() { reg r : logic[8]; loop { set r := f(*r) >> cycle 1 } }";
        let p1 = parse(with).unwrap();
        let p2 = parse(&with.replace("-> logic[8]", "-> logic[4]")).unwrap();
        let g1 = ItemGraph::new(&p1);
        let g2 = ItemGraph::new(&p2);
        assert_ne!(g1.check_key("p"), g2.check_key("p"));
    }
}
