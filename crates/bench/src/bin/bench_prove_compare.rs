//! Gates CI on formal-verification work: compares a freshly measured
//! `BENCH_prove.json` against the committed record, counter for counter.
//!
//! Rows are matched by `(design, property, engine)`. The single-engine
//! rows (`explicit_bmc`, `symbolic_bmc`, `k_induction`, `pdr`) are
//! deterministic for a given build of the prover, so their verdict and
//! their clause, conflict, decision and propagation counts must equal the
//! record's, and a row present on one side only fails too. A change that
//! alters the search (a new heuristic, a different encoding) therefore
//! regenerates the record in the same change and says why.
//!
//! The racing `portfolio_cold` row is gated through its `winner`: the
//! engines share only a stop flag, so the winner ran exactly its
//! standalone search, and the row's verdict and counters must equal the
//! fresh record's standalone row for that engine (`k_induction` for
//! `symbolic`, `pdr` for `pdr`). Which engine wins may change between
//! runs. With no winner, only the verdict is gated, against the record.
//! The `warm_cache` row is not gated. Wall time is printed per engine for
//! reference but never gated: it measures the host as much as the code.
//! The fresh record's `warm_speedup` (cold portfolio vs certificate
//! revalidation, a same-machine ratio) must stay at or above the 5x
//! floor.
//!
//! Usage: `bench_prove_compare <fresh.json> <baseline.json>`.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Engines whose rows must match the record exactly.
const EXACT_ENGINES: [&str; 4] = ["explicit_bmc", "symbolic_bmc", "k_induction", "pdr"];

/// The racing row, gated against its winner's standalone row.
const PORTFOLIO: &str = "portfolio_cold";

/// Counter fields compared exactly, after the verdict.
const COUNTERS: [&str; 4] = ["clauses", "conflicts", "decisions", "propagations"];

/// The floor on the fresh record's cold/warm wall-time ratio.
const WARM_SPEEDUP_FLOOR: f64 = 5.0;

/// One result row: its verdict, its counters in [`COUNTERS`] order, its
/// wall time and, on the portfolio row, the winning engine.
struct Row {
    verdict: String,
    counters: [Option<u64>; 4],
    millis: f64,
    winner: Option<String>,
}

type Key = (String, String, String);

/// The result rows by `(design, property, engine)`. The v1 schema
/// writes one result object per line, so a line-oriented scan is exact.
fn rows(src: &str) -> BTreeMap<Key, Row> {
    let mut out = BTreeMap::new();
    for line in src.lines() {
        let (Some(design), Some(property), Some(engine)) = (
            string_field(line, "design"),
            string_field(line, "property"),
            string_field(line, "engine"),
        ) else {
            continue;
        };
        let row = Row {
            verdict: string_field(line, "verdict").unwrap_or_default(),
            counters: COUNTERS.map(|key| number_field(line, key).and_then(|n| n.parse().ok())),
            millis: number_field(line, "millis")
                .and_then(|n| n.parse().ok())
                .unwrap_or(0.0),
            winner: string_field(line, "winner"),
        };
        out.insert((design, property, engine), row);
    }
    out
}

fn string_field(line: &str, key: &str) -> Option<String> {
    after(line, &format!("\"{key}\": \""))
        .and_then(|r| r.split('"').next())
        .map(str::to_string)
}

fn number_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    after(line, &format!("\"{key}\": "))
        .and_then(|r| r.split([',', '}']).next())
        .map(str::trim)
}

fn top_level_f64(src: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    src.lines().find_map(|line| {
        after(line, &pat).and_then(|r| r.trim_end_matches([',', ' ']).parse::<f64>().ok())
    })
}

fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

/// Every way the fresh record's gated rows differ from the baseline's,
/// one message each; empty when they agree exactly.
fn mismatches(fresh: &BTreeMap<Key, Row>, base: &BTreeMap<Key, Row>) -> Vec<String> {
    let gated =
        |(_, _, engine): &&Key| EXACT_ENGINES.contains(&engine.as_str()) || engine == PORTFOLIO;
    let mut out = Vec::new();
    for key in base.keys().filter(gated) {
        let (design, property, engine) = key;
        let Some(got) = fresh.get(key) else {
            out.push(format!(
                "{design} / {engine}: row missing from the fresh record"
            ));
            continue;
        };
        if engine != PORTFOLIO {
            compare(&mut out, design, engine, got, &base[key], "record");
            continue;
        }
        let standalone = match got.winner.as_deref() {
            Some("symbolic") => "k_induction",
            Some("pdr") => "pdr",
            _ => {
                let want = &base[key].verdict;
                if got.verdict != *want {
                    out.push(format!(
                        "{design} / {engine}: no winner, verdict {} (record: {want})",
                        got.verdict
                    ));
                }
                continue;
            }
        };
        match fresh.get(&(design.clone(), property.clone(), standalone.to_string())) {
            Some(want) => compare(&mut out, design, engine, got, want, standalone),
            None => out.push(format!(
                "{design} / {engine}: the winner's {standalone} row is missing"
            )),
        }
    }
    for key in fresh.keys().filter(gated) {
        if !base.contains_key(key) {
            let (design, _, engine) = key;
            out.push(format!("{design} / {engine}: row not in the record"));
        }
    }
    out
}

/// Reports each difference of `got` from `want` in verdict and counters,
/// naming `want` as `against`.
fn compare(
    out: &mut Vec<String>,
    design: &str,
    engine: &str,
    got: &Row,
    want: &Row,
    against: &str,
) {
    if got.verdict != want.verdict {
        out.push(format!(
            "{design} / {engine}: verdict {} ({against}: {})",
            got.verdict, want.verdict
        ));
    }
    for (name, (g, w)) in COUNTERS.iter().zip(got.counters.iter().zip(&want.counters)) {
        if g != w {
            let show = |n: &Option<u64>| n.map_or("missing".to_string(), |n| n.to_string());
            out.push(format!(
                "{design} / {engine}: {name} {} ({against}: {})",
                show(g),
                show(w)
            ));
        }
    }
}

/// Sums `millis` per engine.
fn engine_totals(rows: &BTreeMap<Key, Row>) -> BTreeMap<&str, f64> {
    let mut out = BTreeMap::new();
    for ((_, _, engine), row) in rows {
        *out.entry(engine.as_str()).or_insert(0.0) += row.millis;
    }
    out
}

fn load(path: &str) -> (String, BTreeMap<Key, Row>) {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    assert!(
        src.contains("\"schema\": \"anvil-bench-prove-v1\""),
        "{path} is not an anvil-bench-prove-v1 record"
    );
    let rows = rows(&src);
    assert!(!rows.is_empty(), "{path} holds no engine results");
    (src, rows)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [fresh_path, base_path] = args.as_slice() else {
        eprintln!("usage: bench_prove_compare <fresh.json> <baseline.json>");
        return ExitCode::FAILURE;
    };
    let (fresh_src, fresh) = load(fresh_path);
    let (_, base) = load(base_path);

    println!(
        "{:<16} {:>12} {:>12}  (wall time, not gated)",
        "engine", "base ms", "fresh ms"
    );
    let fresh_totals = engine_totals(&fresh);
    for (engine, base_ms) in engine_totals(&base) {
        let fresh_ms = fresh_totals.get(engine).copied().unwrap_or(f64::NAN);
        println!("{engine:<16} {base_ms:>12.1} {fresh_ms:>12.1}");
    }

    let diffs = mismatches(&fresh, &base);
    for d in &diffs {
        println!("FAIL {d}");
    }
    let mut failed = !diffs.is_empty();
    if failed {
        eprintln!(
            "the gated rows differ from {base_path} or from their winners' rows; \
             a change that alters the search regenerates the record and says why"
        );
    } else {
        let gated = base
            .keys()
            .filter(|(_, _, e)| EXACT_ENGINES.contains(&e.as_str()))
            .count();
        let portfolio = base.keys().filter(|(_, _, e)| e == PORTFOLIO).count();
        println!(
            "{gated} single-engine rows match the record exactly, \
             {portfolio} portfolio rows match their winners' rows"
        );
    }

    // The proof-cache contract: a warm re-prove (certificate
    // revalidation) stays at least 5x faster than a cold portfolio run.
    match top_level_f64(&fresh_src, "warm_speedup") {
        Some(speedup) if speedup >= WARM_SPEEDUP_FLOOR => {
            println!("warm_speedup {speedup:.1}x (floor {WARM_SPEEDUP_FLOOR}x) ok");
        }
        Some(speedup) => {
            println!("warm_speedup {speedup:.1}x (floor {WARM_SPEEDUP_FLOOR}x) FAIL");
            failed = true;
        }
        None => {
            println!("warm_speedup MISSING FAIL");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::{engine_totals, mismatches, rows, top_level_f64};

    const SAMPLE: &str = r#"{
  "schema": "anvil-bench-prove-v1",
  "warm_speedup": 12.40,
  "results": [
    {"design": "a", "property": "p", "engine": "pdr", "verdict": "proved(k=3)", "millis": 1.500, "clauses": 10, "conflicts": 2, "decisions": 7, "propagations": 90},
    {"design": "a", "property": "p", "engine": "k_induction", "verdict": "proved(k=1)", "millis": 0.400, "clauses": 6, "conflicts": 0, "decisions": 5, "propagations": 40},
    {"design": "b", "property": "q", "engine": "pdr", "verdict": "proved(k=2)", "millis": 2.500, "clauses": 12, "conflicts": 3, "decisions": 8, "propagations": 91},
    {"design": "b", "property": "q", "engine": "k_induction", "verdict": "proved(k=1)", "millis": 0.500, "clauses": 5, "conflicts": 1, "decisions": 4, "propagations": 30},
    {"design": "a", "property": "p", "engine": "portfolio_cold", "verdict": "proved(k=3)", "millis": 0.750, "clauses": 10, "conflicts": 2, "decisions": 7, "propagations": 90, "winner": "pdr", "symbolicWallMs": 0.300, "pdrWallMs": 0.200},
    {"design": "a", "property": "p", "engine": "warm_cache", "verdict": "proved(k=0)", "millis": 0.250, "clauses": 0, "conflicts": 0, "decisions": 0, "propagations": 0}
  ]
}"#;

    fn diff_after(edit: impl Fn(&str) -> String) -> Vec<String> {
        mismatches(&rows(&edit(SAMPLE)), &rows(SAMPLE))
    }

    /// The sample with its portfolio row's verdict, counters and winner
    /// replaced.
    fn portfolio_row(verdict: &str, counters: [u64; 4], winner: &str) -> String {
        let [clauses, conflicts, decisions, propagations] = counters;
        SAMPLE
            .lines()
            .map(|l| {
                if l.contains("portfolio_cold") {
                    format!(
                        "    {{\"design\": \"a\", \"property\": \"p\", \"engine\": \"portfolio_cold\", \
                         \"verdict\": \"{verdict}\", \"millis\": 0.750, \"clauses\": {clauses}, \
                         \"conflicts\": {conflicts}, \"decisions\": {decisions}, \
                         \"propagations\": {propagations}, \"winner\": \"{winner}\"}},"
                    )
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn sums_millis_per_engine_and_reads_speedup() {
        let parsed = rows(SAMPLE);
        let totals = engine_totals(&parsed);
        assert_eq!(totals.get("pdr"), Some(&4.0));
        assert_eq!(totals.get("warm_cache"), Some(&0.25));
        assert_eq!(top_level_f64(SAMPLE, "warm_speedup"), Some(12.40));
    }

    #[test]
    fn a_change_in_wall_time_alone_passes() {
        let diffs = diff_after(|s| {
            s.replace("\"millis\": 1.500", "\"millis\": 9.000")
                .replace("\"millis\": 0.500", "\"millis\": 0.010")
                .replace("\"millis\": 0.750", "\"millis\": 7.000")
        });
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn a_changed_count_fails() {
        for (from, to) in [
            ("\"clauses\": 12,", "\"clauses\": 11,"),
            ("\"conflicts\": 3,", "\"conflicts\": 4,"),
            ("\"decisions\": 4,", "\"decisions\": 3,"),
            ("\"propagations\": 91}", "\"propagations\": 92}"),
        ] {
            let diffs = diff_after(|s| s.replace(from, to));
            assert_eq!(diffs.len(), 1, "{from} -> {to}: {diffs:?}");
        }
    }

    #[test]
    fn a_changed_verdict_fails() {
        let diffs = diff_after(|s| s.replace("proved(k=2)", "proved(k=3)"));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("verdict proved(k=3)"), "{diffs:?}");
    }

    #[test]
    fn missing_and_extra_rows_fail() {
        let missing = diff_after(|s| {
            s.lines()
                .filter(|l| {
                    !l.contains(
                        "\"design\": \"b\", \"property\": \"q\", \"engine\": \"k_induction\"",
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        });
        assert_eq!(missing.len(), 1, "{missing:?}");
        assert!(missing[0].contains("missing"), "{missing:?}");
        let extra =
            diff_after(|s| s.replace("\"engine\": \"warm_cache\"", "\"engine\": \"symbolic_bmc\""));
        assert_eq!(extra.len(), 1, "{extra:?}");
        assert!(extra[0].contains("not in the record"), "{extra:?}");
        let no_portfolio = diff_after(|s| {
            s.lines()
                .filter(|l| !l.contains("portfolio_cold"))
                .collect::<Vec<_>>()
                .join("\n")
        });
        assert_eq!(no_portfolio.len(), 1, "{no_portfolio:?}");
    }

    #[test]
    fn a_flipped_winner_passes_when_it_matches_its_own_row() {
        let fresh = portfolio_row("proved(k=1)", [6, 0, 5, 40], "symbolic");
        let diffs = mismatches(&rows(&fresh), &rows(SAMPLE));
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn changed_winner_counters_fail() {
        let fresh = portfolio_row("proved(k=3)", [10, 2, 8, 90], "pdr");
        let diffs = mismatches(&rows(&fresh), &rows(SAMPLE));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("decisions 8 (pdr: 7)"), "{diffs:?}");
        // The PDR row's counters under a symbolic winner do not match
        // k-induction's row.
        let fresh = portfolio_row("proved(k=3)", [10, 2, 7, 90], "symbolic");
        let diffs = mismatches(&rows(&fresh), &rows(SAMPLE));
        assert_eq!(diffs.len(), 5, "{diffs:?}");
        // A standalone PDR row that moves fails against the record; the
        // portfolio row it won fails too unless it moved the same way.
        let diffs = diff_after(|s| s.replace("\"decisions\": 7,", "\"decisions\": 6,"));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        let diffs = diff_after(|s| {
            s.replace(
                "\"decisions\": 7, \"propagations\": 90}",
                "\"decisions\": 6, \"propagations\": 90}",
            )
        });
        assert_eq!(diffs.len(), 2, "{diffs:?}");
    }

    #[test]
    fn a_row_without_a_winner_is_gated_on_its_verdict_alone() {
        let unknown = portfolio_row("unknown(depth=17)", [1, 2, 3, 4], "none");
        let diffs = mismatches(&rows(&unknown), &rows(SAMPLE));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("no winner"), "{diffs:?}");
        let other_counters = portfolio_row("unknown(depth=17)", [5, 6, 7, 8], "none");
        let diffs = mismatches(&rows(&other_counters), &rows(&unknown));
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn warm_cache_rows_may_differ() {
        let diffs = diff_after(|s| {
            s.replace(
                "\"verdict\": \"proved(k=0)\"",
                "\"verdict\": \"proved(k=1)\"",
            )
            .replace("\"clauses\": 0,", "\"clauses\": 99,")
        });
        assert!(diffs.is_empty(), "{diffs:?}");
    }
}
