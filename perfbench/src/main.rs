//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <anon-wan|verify-fattree|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare --parent <file> --change <file> [--spec BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed`, measures for `--seconds`,
//! checks every output, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`).
//! Traced runs also print a per-layer self-time table and the
//! deterministic work counts, and check those counts against the previous
//! traced run of the same binary with the same seed (kept under
//! `.bench_out/counts/`).
//!
//! `compare` reads two result files (one `<workload> <result-json>` line
//! per run) and gives each metric and workload a better / worse /
//! unresolved verdict.

mod anon_wan;
mod calib;
mod compare;
mod serve_mix;
mod stats;
mod trace;
mod verify_fattree;

use confmask::{NetworkConfigs, Vendor};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics (untraced runs), with units. anon-wan and
/// verify-fattree report their timings at reference machine speed (see
/// `calib`); serve-mix reports wall time.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), with units. A metric whose layer does
/// no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("core.route_anon_ms", "ms"),
    ("core.route_anon_sim_calls", "count/op"),
    ("core.route_anon_filters_kept_ratio", "ratio"),
    ("sim.control_plane_ms", "ms/call"),
    ("sim.simulations", "count/op"),
    ("sim.ospf_spf_runs", "count/op"),
    ("core.preprocess_ms", "ms"),
    ("core.route_equiv_ms", "ms"),
    ("core.route_equiv_iterations", "count/op"),
    ("topology.anon_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("sim.dataplane_ms", "ms/call"),
    ("sim.dataplane_pairs", "count/call"),
    ("sim.paths_per_pair", "count"),
    ("sim_delta.sweep_ms", "ms"),
    ("sim_delta.pairs_reused_ratio", "ratio"),
    ("sim_delta.ospf_prefixes_recomputed", "count/op"),
    ("sim_delta.full_fallbacks", "count/op"),
    ("resilience.compare_ms", "ms"),
    ("sim_delta.peak_digest_bytes", "bytes"),
    ("exec.tasks", "count/op"),
    ("exec.steals", "count/op"),
    ("exec.utilization_pct", "%"),
    ("sim_delta.converged_ms", "ms/call"),
    ("sim_delta.cache_hit_ratio", "ratio"),
    ("config.parse_ms", "ms"),
    ("config.emit_ms", "ms"),
    ("config.lines", "count/op"),
    ("sim.bgp_rounds", "count/op"),
    ("sim.rip_rounds", "count/op"),
    ("netcloak.expand_ms", "ms/call"),
    ("nethide.obfuscate_ms", "ms/call"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.persist_ms", "ms"),
    ("serve.polls_per_job", "count/op"),
    ("serve.rejected", "count"),
    ("loadgen.late_ms", "ms"),
    ("core.unattributed_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
];

/// Metrics by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run was asked to do.
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Scratch directory inside the checkout.
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
    /// End-to-end metrics (`peak_rss_mb` defaults to the peak at the end
    /// of the run).
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Deterministic work counts, one line per operation, checked to
    /// repeat across traced runs with the same seed.
    pub counts: Vec<String>,
}

impl Outcome {
    /// An outcome whose set-up took `setup_s` (median of the set-ups).
    pub fn new(setup_s: f64) -> Outcome {
        let mut out = Outcome::default();
        out.e2e.insert("setup_s", setup_s);
        out
    }

    /// Adds a human-readable note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A network as config-file texts in one dialect, keyed by relative path
/// (`routers/<name>.cfg`, `hosts/<name>.cfg`) — what a CLI user hands in
/// and gets back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bundle(pub Vec<(String, String)>);

impl Bundle {
    /// Emits every router and host config of `net`.
    pub fn emit(net: &NetworkConfigs, vendor: Vendor) -> Bundle {
        let mut files = Vec::with_capacity(net.routers.len() + net.hosts.len());
        for (name, rc) in &net.routers {
            files.push((format!("routers/{name}.cfg"), rc.emit_as(vendor)));
        }
        for (name, hc) in &net.hosts {
            files.push((format!("hosts/{name}.cfg"), hc.emit_as(vendor)));
        }
        Bundle(files)
    }

    /// Parses every file in `vendor`'s dialect.
    pub fn parse(&self, vendor: Vendor) -> Result<NetworkConfigs, String> {
        let mut routers = Vec::new();
        let mut hosts = Vec::new();
        for (path, text) in &self.0 {
            let bad = |e: confmask_config::ParseError| format!("{path}: {e}");
            if path.starts_with("routers/") {
                routers.push(confmask_config::parse_router_as(vendor, text).map_err(bad)?);
            } else {
                hosts.push(confmask_config::parse_host_as(vendor, text).map_err(bad)?);
            }
        }
        Ok(NetworkConfigs::new(routers, hosts))
    }

    /// Non-empty lines over all files.
    pub fn lines(&self) -> usize {
        self.0
            .iter()
            .map(|(_, t)| t.lines().filter(|l| !l.trim().is_empty()).count())
            .sum()
    }

    /// Checks that every file of `self` survives in `output` with its
    /// lines as an ordered subsequence (edits are append-only).
    pub fn append_only_in(&self, output: &Bundle) -> Result<(), String> {
        let out: BTreeMap<&str, &str> = output
            .0
            .iter()
            .map(|(p, t)| (p.as_str(), t.as_str()))
            .collect();
        for (path, text) in &self.0 {
            let Some(after) = out.get(path.as_str()) else {
                return Err(format!("{path} missing from the output"));
            };
            let mut rest = after.lines();
            for line in text.lines() {
                if !rest.any(|l| l == line) {
                    return Err(format!("{path}: original line {line:?} lost or reordered"));
                }
            }
        }
        Ok(())
    }
}

/// SplitMix64 of a seed and an index: the per-operation seed stream.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks this run's work counts against the stored counts of an earlier
/// traced run of the same binary with the same workload and seed, then
/// stores the longer record. Keying by the binary keeps a build that does
/// less work from being held to another build's counts. Returns the number
/// of operations whose counts differ.
fn check_counts(dir: &Path, workload: &str, seed: u64, counts: &[String]) -> Result<usize, String> {
    let dir = dir.join("counts");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading this binary: {e}"))?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(&exe, &mut h);
    let build = std::hash::Hasher::finish(&h);
    let path = dir.join(format!("{workload}-{seed}-{build:016x}.txt"));
    let stored: Vec<String> = std::fs::read_to_string(&path)
        .map(|s| s.lines().map(str::to_string).collect())
        .unwrap_or_default();
    let differ = stored.iter().zip(counts).filter(|(a, b)| a != b).count();
    if counts.len() > stored.len() {
        std::fs::write(&path, counts.join("\n") + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let compared = stored.len().min(counts.len());
    println!("work counts: {compared} operation(s) compared with an earlier run, {differ} differ");
    Ok(differ)
}

fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let at = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(at + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad value for {name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("compare") {
        let spec = arg::<String>(args, "--spec").unwrap_or_else(|_| "BENCHMARK.json".into());
        let report = compare::run(
            Path::new(&arg::<String>(args, "--parent")?),
            Path::new(&arg::<String>(args, "--change")?),
            Path::new(&spec),
        )?;
        print!("{report}");
        return Ok(());
    }
    let workload: String = arg(args, "--workload")?;
    let trace = arg::<u8>(args, "--trace")? == 1;
    let ctx = Ctx {
        seed: arg(args, "--seed")?,
        seconds: Duration::from_secs(arg(args, "--seconds")?),
        trace,
        out_dir: PathBuf::from(".bench_out"),
    };
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!(".bench_out: {e}"))?;
    confmask_obs::set_enabled(trace);
    let mut out = match workload.as_str() {
        "anon-wan" => anon_wan::run(&ctx)?,
        "verify-fattree" => verify_fattree::run(&ctx)?,
        "serve-mix" => serve_mix::run(&ctx)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    out.e2e.entry("peak_rss_mb").or_insert_with(peak_rss_mb);
    let mut correct = out.failed == 0 && out.attempted > 0;
    if trace {
        for line in &out.counts {
            println!("count {line}");
        }
        if check_counts(&ctx.out_dir, &workload, ctx.seed, &out.counts)? > 0 {
            correct = false;
        }
    }
    for note in &out.notes {
        println!("{}", note.trim_end());
    }
    let (list, values): (&[(&str, &str)], &Metrics) = if trace {
        (&PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let value = match values.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("{workload} did not measure {name}")),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            confmask_obs::json::escape(name),
            if value.is_finite() { value } else { 0.0 },
            confmask_obs::json::escape(unit)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_obs::json::{parse, Json};

    /// The metric lists here and in the repository's `BENCHMARK.json` are
    /// the same, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn append_only_accepts_insertions_and_rejects_reordering() {
        let before = Bundle(vec![("routers/r.cfg".into(), "a\nb\nc\n".into())]);
        let after = Bundle(vec![("routers/r.cfg".into(), "a\nx\nb\ny\nc\n".into())]);
        assert!(before.append_only_in(&after).is_ok());
        let swapped = Bundle(vec![("routers/r.cfg".into(), "b\na\nc\n".into())]);
        assert!(before.append_only_in(&swapped).is_err());
    }
}
