//! The benchmark's own tracing: spans recorded in memory around its calls
//! into each layer's public functions, merged with the spans and counters
//! the program already records through `confmask_obs`, and folded into a
//! per-layer self-time table.
//!
//! Self time is computed by painting: every span covers its interval with
//! its layer, and where spans nest the innermost layer wins (the layer
//! ranks below order nesting: a `sim` span inside a `sim_delta` span inside
//! a `core.*` stage paints `sim`). Child spans on executor threads paint
//! the interval they cover on any thread. Time no span covers inside an
//! operation is unattributed.

use crate::stats;
use confmask_obs::report::{Report, SpanRecord};
use std::collections::BTreeMap;

/// One span the benchmark recorded: a layer and its interval, in
/// microseconds on the `confmask_obs` epoch so it lines up with the
/// program's own spans.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Layer name (`core.preprocess`, `config.parse`, ...).
    pub layer: &'static str,
    /// Start, µs since the observation epoch.
    pub start_us: u64,
    /// End, µs since the observation epoch.
    pub end_us: u64,
}

impl BenchSpan {
    /// Span length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1_000.0
    }
}

/// In-memory span recorder, one per run.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<BenchSpan>,
}

impl Recorder {
    /// Runs `f` under a span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start_us = confmask_obs::now_us();
        let out = f();
        self.push(layer, start_us, confmask_obs::now_us());
        out
    }

    /// Records a span whose interval the caller measured (for a span that
    /// encloses other recorded spans).
    pub fn push(&mut self, layer: &'static str, start_us: u64, end_us: u64) {
        self.spans.push(BenchSpan {
            layer,
            start_us,
            end_us,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[BenchSpan] {
        &self.spans
    }

    /// Spans of one layer.
    pub fn of<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a BenchSpan> + 'a {
        self.spans.iter().filter(move |s| s.layer == layer)
    }
}

/// The layer a program span belongs to, or `None` for spans the table
/// does not attribute (the pipeline's own wrappers, serve internals).
pub fn program_layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "sim.control_plane" | "sim.dataplane" => "sim",
        "sim.delta.sim" | "sim.fault.scenario" => "sim_delta",
        "netcloak.expand" => "netcloak",
        "topology.kdegree" => "topology",
        _ => return None,
    })
}

/// Nesting rank of a layer: higher ranks paint over lower ones.
fn rank(layer: &str) -> u8 {
    match layer {
        "sim_delta" => 2,
        "sim" => 3,
        "netcloak" | "nethide" => 3,
        l if l.starts_with("sim_delta.") => 2,
        _ => 1,
    }
}

/// Per-layer self time (µs) over `[start, end]`, plus the unattributed
/// remainder under the key `"unattributed"`.
pub fn self_times(
    start_us: u64,
    end_us: u64,
    bench: &[BenchSpan],
    program: &[&SpanRecord],
) -> BTreeMap<&'static str, u64> {
    // Interval events: (time, +1/-1, layer index).
    let mut layers: Vec<&'static str> = Vec::new();
    let mut index = |l: &'static str| match layers.iter().position(|x| *x == l) {
        Some(i) => i,
        None => {
            layers.push(l);
            layers.len() - 1
        }
    };
    let mut events: Vec<(u64, i32, usize)> = Vec::new();
    let mut push = |s: u64, e: u64, i: usize| {
        let (s, e) = (s.max(start_us), e.min(end_us));
        if s < e {
            events.push((s, 1, i));
            events.push((e, -1, i));
        }
    };
    for b in bench {
        let i = index(b.layer);
        push(b.start_us, b.end_us, i);
    }
    for p in program {
        if let Some(l) = program_layer(&p.name) {
            let i = index(l);
            push(p.start_us, p.start_us + p.duration_us, i);
        }
    }
    events.sort_unstable();
    let ranks: Vec<u8> = layers.iter().map(|l| rank(l)).collect();
    let mut active = vec![0i32; layers.len()];
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut t = start_us;
    let winner = |active: &[i32]| {
        (0..active.len())
            .filter(|&i| active[i] > 0)
            .max_by_key(|&i| (ranks[i], i))
    };
    for (at, delta, i) in events {
        if at > t {
            let key = winner(&active).map_or("unattributed", |w| layers[w]);
            *out.entry(key).or_default() += at - t;
            t = at;
        }
        active[i] += delta;
    }
    if end_us > t {
        *out.entry("unattributed").or_default() += end_us - t;
    }
    out
}

/// Total length (µs) of the union of `intervals`.
pub fn union_us(intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.into_iter().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Counters, histograms and spans of the program, read from the
/// `confmask_obs` registry.
pub struct ObsSnapshot {
    report: Report,
}

impl ObsSnapshot {
    /// Takes a snapshot of everything collected so far.
    pub fn take() -> ObsSnapshot {
        ObsSnapshot {
            report: confmask_obs::report(),
        }
    }

    /// A counter (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.report.counter(name).unwrap_or(0)
    }

    /// A histogram's mean (0 when empty).
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.report.histogram(name).map_or(0.0, |h| h.mean())
    }

    /// Every program span with this name.
    pub fn spans<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.report.spans.iter().filter(move |s| s.name == name)
    }

    /// Every program span overlapping `[start, end]`.
    pub fn spans_within(&self, start_us: u64, end_us: u64) -> Vec<&SpanRecord> {
        self.report
            .spans
            .iter()
            .filter(|s| s.start_us < end_us && s.start_us + s.duration_us > start_us)
            .collect()
    }

    /// Mean duration (ms) of the spans with this name (0 when none).
    pub fn span_mean_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans(name)
            .map(|s| s.duration_us as f64 / 1_000.0)
            .collect();
        stats::mean(&d)
    }

    /// Spans dropped at the collector cap (the table is incomplete if not 0).
    pub fn dropped_spans(&self) -> u64 {
        self.report.dropped_spans
    }
}

/// Cost (µs) of one span open/close with global collection on, measured
/// on the spot: the per-span price the traced run pays.
pub fn span_cost_us() -> f64 {
    const N: u32 = 20_000;
    let t = std::time::Instant::now();
    for _ in 0..N {
        let _s = confmask_obs::span("perfbench.probe");
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(N)
}

/// Renders a per-layer self-time table: layer, total ms, share of the
/// operations' wall time.
pub fn render_table(workload: &str, totals: &BTreeMap<&'static str, u64>, wall_us: u64) -> String {
    let mut rows: Vec<(&str, u64)> = totals.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let mut out = format!(
        "per-layer self time, {workload} (wall {:.1} ms)\n",
        wall_us as f64 / 1e3
    );
    for (layer, us) in rows {
        out.push_str(&format!(
            "  {layer:<22} {:>12.1} ms {:>6.1}%\n",
            us as f64 / 1e3,
            100.0 * us as f64 / wall_us.max(1) as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(name: &str, start_us: u64, duration_us: u64) -> SpanRecord {
        SpanRecord {
            id: 0,
            parent: None,
            name: name.to_string(),
            thread: 0,
            start_us,
            duration_us,
            trace: 0,
        }
    }

    #[test]
    fn innermost_layer_paints_and_gaps_are_unattributed() {
        let bench = [
            BenchSpan {
                layer: "core.preprocess",
                start_us: 0,
                end_us: 40,
            },
            BenchSpan {
                layer: "core.route_anon",
                start_us: 50,
                end_us: 100,
            },
        ];
        let p1 = prog("sim.control_plane", 10, 20);
        let p2 = prog("sim.dataplane", 60, 10);
        let t = self_times(0, 100, &bench, &[&p1, &p2]);
        assert_eq!(t["core.preprocess"], 20);
        assert_eq!(t["sim"], 30);
        assert_eq!(t["core.route_anon"], 40);
        assert_eq!(t["unattributed"], 10);
    }

    #[test]
    fn parallel_children_count_once() {
        let bench = [BenchSpan {
            layer: "resilience",
            start_us: 0,
            end_us: 100,
        }];
        let a = prog("sim.delta.sim", 10, 50);
        let b = prog("sim.delta.sim", 20, 50);
        let t = self_times(0, 100, &bench, &[&a, &b]);
        assert_eq!(t["sim_delta"], 60);
        assert_eq!(t["resilience"], 40);
        assert!(!t.contains_key("unattributed"));
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_us([(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_us([]), 0);
    }
}
