//! Compare mode: two result sets, parent and change, each a file with one
//! `<workload> <result-json>` line per run (the benchmark's last stdout
//! line, prefixed with the workload). Runs pair up in file order, so run
//! them alternately.
//!
//! Per workload and metric it reports each side's median and quartiles,
//! the pairs the change won, and a verdict by the rule of the
//! choosing-metrics guide (§8): *better* when the change wins at least
//! nine tenths of all pairs (ties count for neither) and the medians
//! differ by more than the parent's interquartile distance; *worse* by the
//! same rule the other way; *unresolved* otherwise. End-to-end metrics
//! also say whether the change's median is worse than the parent's by more
//! than the bound `BENCHMARK.json` fixes.

use crate::stats;
use confmask_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Which way a metric improves, and its regression bound if it has one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Direction {
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 90% of pairs by more than the parent's spread.
    Better,
    /// The parent wins ≥ 90% of pairs by more than the parent's spread.
    Worse,
    /// Neither.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Parent median, first and third quartiles.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartiles.
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub change_wins: usize,
    /// Pairs the parent won.
    pub parent_wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The §8 verdict.
    pub verdict: Verdict,
    /// Whether the change's median is worse than the parent's by more
    /// than the bound (`None` without a bound).
    pub beyond_bound: Option<bool>,
}

/// Compares one metric's runs.
pub fn judge(parent: &[f64], change: &[f64], dir: Direction) -> Row {
    let summary = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        (stats::median(v), q1, q3)
    };
    let (p, c) = (summary(parent), summary(change));
    let improves = |a: f64, b: f64| if dir.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let change_wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| improves(**c, **p))
        .count();
    let parent_wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| improves(**p, **c))
        .count();
    let spread = p.2 - p.1;
    let differ = (c.0 - p.0).abs() > spread;
    let most = |wins: usize| pairs > 0 && wins * 10 >= pairs * 9;
    let verdict = if most(change_wins) && differ {
        Verdict::Better
    } else if most(parent_wins) && differ {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    let beyond_bound = dir.bound.map(|b| {
        let worse_by = if dir.lower_is_better {
            c.0 - p.0
        } else {
            p.0 - c.0
        };
        worse_by > b * p.0.abs()
    });
    Row {
        parent: p,
        change: c,
        change_wins,
        parent_wins,
        pairs,
        verdict,
        beyond_bound,
    }
}

/// Metric directions and bounds from `BENCHMARK.json`.
pub fn directions(spec: &str) -> Result<BTreeMap<String, Direction>, String> {
    let doc = parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without 'better'")?;
            out.insert(
                name.to_string(),
                Direction {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// Per workload, per metric: the values of every run, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a result file of `<workload> <result-json>` lines.
pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        let Some((workload, json)) = line.trim().split_once(' ') else {
            continue;
        };
        let doc = parse(json).map_err(|e| format!("line {}: {e}", n + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Renders the comparison of two result sets.
pub fn render(parent: &Runs, change: &Runs, dirs: &BTreeMap<String, Direction>) -> String {
    let mut out = String::from(
        "workload        metric                              parent median [q1, q3]          change median [q1, q3]          wins     verdict\n",
    );
    for (workload, metrics) in parent {
        let Some(other) = change.get(workload) else {
            continue;
        };
        for (name, p) in metrics {
            let (Some(c), Some(dir)) = (other.get(name), dirs.get(name)) else {
                continue;
            };
            let r = judge(p, c, *dir);
            let verdict = match r.verdict {
                Verdict::Better => "better",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            let bound = match r.beyond_bound {
                Some(true) => ", beyond bound",
                Some(false) => ", within bound",
                None => "",
            };
            let _ = writeln!(
                out,
                "{workload:<15} {name:<35} {:>10.4} [{:.4}, {:.4}]  {:>10.4} [{:.4}, {:.4}]  {:>2}/{:<2}  {verdict}{bound}",
                r.parent.0, r.parent.1, r.parent.2, r.change.0, r.change.1, r.change.2, r.change_wins, r.pairs
            );
        }
    }
    out
}

/// The compare command.
pub fn run(parent: &Path, change: &Path, spec: &Path) -> Result<String, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let dirs = directions(&read(spec)?)?;
    Ok(render(
        &read_runs(&read(parent)?)?,
        &read_runs(&read(change)?)?,
        &dirs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Direction = Direction {
        lower_is_better: true,
        bound: Some(0.1),
    };
    const HIGHER: Direction = Direction {
        lower_is_better: false,
        bound: None,
    };

    #[test]
    fn a_clear_speedup_is_better() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.4,
        ];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let r = judge(&parent, &change, LOWER);
        assert_eq!((r.change_wins, r.pairs), (10, 10));
        assert_eq!(r.verdict, Verdict::Better);
        assert_eq!(r.beyond_bound, Some(false));
    }

    #[test]
    fn a_clear_slowdown_is_worse_and_beyond_its_bound() {
        let parent = [10.0; 10];
        let change = [12.0; 10];
        let r = judge(&parent, &change, LOWER);
        assert_eq!(r.parent_wins, 10);
        assert_eq!(r.verdict, Verdict::Worse);
        assert_eq!(r.beyond_bound, Some(true));
    }

    #[test]
    fn direction_follows_the_metric() {
        let parent = [10.0; 10];
        let change = [12.0; 10];
        assert_eq!(judge(&parent, &change, HIGHER).verdict, Verdict::Better);
    }

    #[test]
    fn mixed_pairs_are_unresolved() {
        let parent = [10.0, 11.0, 10.0, 11.0, 10.0, 11.0, 10.0, 11.0, 10.0, 11.0];
        let change = [11.0, 10.0, 11.0, 10.0, 11.0, 10.0, 11.0, 10.0, 11.0, 10.0];
        assert_eq!(judge(&parent, &change, LOWER).verdict, Verdict::Unresolved);
    }

    #[test]
    fn winning_by_less_than_the_parent_spread_is_unresolved() {
        // The change wins every pair, but by less than the parent's
        // interquartile distance.
        let parent = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0];
        let change: Vec<f64> = parent.iter().map(|v| v - 1.0).collect();
        let r = judge(&parent, &change, LOWER);
        assert_eq!(r.change_wins, 10);
        assert_eq!(r.verdict, Verdict::Unresolved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [10.0; 10];
        let mut change = [10.0; 10];
        change[0] = 5.0;
        let r = judge(&parent, &change, LOWER);
        assert_eq!((r.change_wins, r.parent_wins), (1, 0));
        assert_eq!(r.verdict, Verdict::Unresolved);
    }

    #[test]
    fn result_files_parse_and_render() {
        let line = |v: f64| {
            format!(
                "anon-wan {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{\"op_ms_p50\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}\n"
            )
        };
        let parent: String = (0..10).map(|i| line(100.0 + f64::from(i) * 0.1)).collect();
        let change: String = (0..10).map(|i| line(70.0 + f64::from(i) * 0.1)).collect();
        let dirs = directions(
            r#"{"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}], "per_layer": []}"#,
        )
        .unwrap();
        let p = read_runs(&parent).unwrap();
        assert_eq!(p["anon-wan"]["op_ms_p50"].len(), 10);
        let table = render(&p, &read_runs(&change).unwrap(), &dirs);
        assert!(table.contains("op_ms_p50"), "{table}");
        assert!(table.contains("10/10"), "{table}");
        assert!(table.contains("better, within bound"), "{table}");
    }
}
