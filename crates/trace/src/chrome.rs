//! Exporters: Chrome `trace_event` JSON, a golden-stable compact text
//! renderer, and the span-tree builder the wire protocol reuses.
//!
//! The Chrome format is the `{"traceEvents": [...]}` object form with
//! `"X"` (complete) events — `chrome://tracing` and Perfetto both load
//! it directly. Timestamps are microseconds from the process trace
//! epoch; `tid` is the dense thread id assigned at record time, so one
//! portfolio race shows up as three parallel tracks.
//!
//! The text renderer is for tests: structure, names, and details only —
//! no timestamps, no thread ids — so goldens stay stable across
//! machines and runs.

use std::collections::HashMap;

use crate::span::SpanRecord;

/// One node of a stitched span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The finished span this node wraps.
    pub record: SpanRecord,
    /// Child spans, sorted by start time.
    pub children: Vec<SpanNode>,
}

/// Builds a forest from flat records: a record whose parent id is 0 or
/// absent from the set becomes a root. Children are sorted by
/// `(start_ns, id)`.
pub fn build_forest(records: &[SpanRecord]) -> Vec<SpanNode> {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_ns, r.id));
    let present: std::collections::BTreeSet<u64> = sorted.iter().map(|r| r.id).collect();
    // Index children under each parent first, then assemble depth-first
    // so arbitrarily deep trees do not recurse on construction order.
    let mut kids: std::collections::BTreeMap<u64, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in &sorted {
        if r.parent != 0 && present.contains(&r.parent) {
            kids.entry(r.parent).or_default().push(r);
        } else {
            roots.push(r);
        }
    }
    fn assemble(
        r: &SpanRecord,
        kids: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>,
    ) -> SpanNode {
        let children = kids
            .get(&r.id)
            .map(|cs| cs.iter().map(|c| assemble(c, kids)).collect())
            .unwrap_or_default();
        SpanNode {
            record: r.clone(),
            children,
        }
    }
    roots.iter().map(|r| assemble(r, &kids)).collect()
}

/// Extracts the subtree rooted at `root_id`, if that span was recorded.
pub fn subtree(records: &[SpanRecord], root_id: u64) -> Option<SpanNode> {
    fn find(nodes: Vec<SpanNode>, root_id: u64) -> Option<SpanNode> {
        for n in nodes {
            if n.record.id == root_id {
                return Some(n);
            }
            if let Some(hit) = find(n.children, root_id) {
                return Some(hit);
            }
        }
        None
    }
    find(build_forest(records), root_id)
}

/// Keeps only the record of `root_id` and those of its descendants, in
/// their order. A [`crate::Capture`] returns what every thread recorded
/// while it was open, so one request's capture also holds the spans of
/// requests served meanwhile on other threads; this drops them.
pub fn retain_subtree(records: &mut Vec<SpanRecord>, root_id: u64) {
    let parent: HashMap<u64, u64> = records.iter().map(|r| (r.id, r.parent)).collect();
    let mut inside: HashMap<u64, bool> = HashMap::from([(root_id, true)]);
    let mut chain = Vec::new();
    for r in records.iter() {
        // Walk up to the first ancestor already decided, or to one
        // that was not recorded.
        let mut id = r.id;
        let verdict = loop {
            if let Some(&known) = inside.get(&id) {
                break known;
            }
            chain.push(id);
            match parent.get(&id) {
                Some(&p) if p != 0 => id = p,
                _ => break false,
            }
        };
        for id in chain.drain(..) {
            inside.insert(id, verdict);
        }
    }
    records.retain(|r| inside[&r.id]);
}

/// Renders records as Chrome `trace_event` JSON (the object form, `"X"`
/// complete events plus `"i"` instants), loadable in Perfetto.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_ns, r.id));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = if r.dur_ns == 0 { "i" } else { "X" };
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            json_str(r.name),
            json_str(r.cat),
            ph,
            r.thread,
            r.start_ns / 1_000,
        ));
        if r.dur_ns > 0 {
            out.push_str(&format!(",\"dur\":{}", r.dur_ns / 1_000));
        }
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(
            ",\"args\":{{\"id\":{},\"parent\":{}",
            r.id, r.parent
        ));
        if let Some(d) = &r.detail {
            out.push_str(&format!(",\"detail\":{}", json_str(d)));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders a forest as a compact indented tree: structure, names, and
/// details only — timestamps and thread ids are deliberately omitted so
/// golden tests stay byte-stable.
pub fn render_tree(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    fn walk(node: &SpanNode, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str("- ");
        out.push_str(node.record.cat);
        out.push('.');
        out.push_str(node.record.name);
        if let Some(d) = &node.record.detail {
            out.push_str(" [");
            out.push_str(d);
            out.push(']');
        }
        out.push('\n');
        for c in &node.children {
            walk(c, depth + 1, out);
        }
    }
    for root in build_forest(records) {
        walk(&root, 0, &mut out);
    }
    out
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            cat: "test",
            name,
            detail: None,
            thread: 1,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn retain_subtree_keeps_the_root_and_its_descendants_in_order() {
        let mut records = vec![
            rec(5, 2, "other-child", 5, 5),
            rec(1, 0, "root", 0, 100),
            rec(2, 0, "other-root", 1, 50),
            rec(7, 4, "grandchild", 12, 1),
            rec(4, 1, "child", 10, 5),
            rec(9, 8, "orphan", 20, 1),
            rec(6, 1, "manual", 0, 3),
        ];
        retain_subtree(&mut records, 1);
        let ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 7, 4, 6]);
        retain_subtree(&mut records, 3);
        assert!(records.is_empty());
    }

    #[test]
    fn forest_nests_by_parent_and_sorts_by_start() {
        let records = vec![
            rec(3, 1, "late-child", 30, 5),
            rec(1, 0, "root", 0, 100),
            rec(2, 1, "early-child", 10, 5),
            rec(4, 99, "orphan", 40, 5),
        ];
        let forest = build_forest(&records);
        assert_eq!(forest.len(), 2); // root + orphan promoted to root
        assert_eq!(forest[0].record.name, "root");
        let names: Vec<_> = forest[0].children.iter().map(|c| c.record.name).collect();
        assert_eq!(names, vec!["early-child", "late-child"]);
        assert_eq!(forest[1].record.name, "orphan");
    }

    #[test]
    fn subtree_extracts_one_root() {
        let records = vec![
            rec(1, 0, "root", 0, 100),
            rec(2, 1, "child", 10, 5),
            rec(3, 2, "grandchild", 11, 2),
        ];
        let t = subtree(&records, 2).unwrap();
        assert_eq!(t.record.name, "child");
        assert_eq!(t.children.len(), 1);
        assert_eq!(t.children[0].record.name, "grandchild");
        assert!(subtree(&records, 42).is_none());
    }

    #[test]
    fn render_tree_is_structure_only() {
        let mut records = vec![rec(1, 0, "root", 0, 100), rec(2, 1, "child", 10, 5)];
        records[1].detail = Some("unit fifo".to_string());
        let text = render_tree(&records);
        assert_eq!(text, "- test.root\n  - test.child [unit fifo]\n");
        // Shifting timestamps must not change the rendering.
        let mut shifted = records.clone();
        for r in &mut shifted {
            r.start_ns += 1_000_000;
            r.dur_ns *= 3;
        }
        assert_eq!(render_tree(&shifted), text);
    }

    #[test]
    fn chrome_trace_emits_complete_and_instant_events() {
        let mut records = vec![
            rec(1, 0, "root", 1_000, 2_000_000),
            rec(2, 1, "mark", 5_000, 0),
        ];
        records[0].detail = Some("say \"hi\"\n".to_string());
        let json = chrome_trace(&records);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\\\"hi\\\"\\n"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn deep_trees_do_not_overflow_render() {
        let mut records = Vec::new();
        for i in 1..=200u64 {
            records.push(rec(i, i - 1, "deep", i * 10, 5));
        }
        let text = render_tree(&records);
        assert_eq!(text.lines().count(), 200);
        assert!(subtree(&records, 200).is_some());
    }
}
