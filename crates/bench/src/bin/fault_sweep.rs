//! Cold vs incremental vs parallel-streaming fault sweep.
//!
//! Sweeps every single-link failure of the chosen evaluation networks
//! three times — once with a full `simulate()` per scenario (the pre-delta
//! behaviour), once through the streaming incremental engine sequentially
//! (the healthy baseline converges once and each scenario folds into a
//! `ScenarioDigest`), and once with the streaming sweep fanned out across
//! the shared executor in bounded windows. Every digest is asserted equal
//! to the cold sweep's digest before any timing is reported, so speedups
//! are only ever measured on matching results.
//!
//! `peak_bytes` is the streaming sweep's measured peak of live digests.
//! Optionally a k = 2 row exhausts (or samples, with `--k2-limit`) the
//! double-link failure space through the streaming sweep alone; at k = 2
//! the cold sweep would take hours, which is why only the streaming
//! engine runs there.
//!
//! ```text
//! fault_sweep [--networks D,F,H] [--limit N] [--reps N]
//!             [--output BENCH_fault_sweep.json]
//!             [--assert-speedup X] [--assert-parallel-speedup X]
//!             [--assert-peak-bytes N] [--k2-networks D|none] [--k2-limit N]
//! ```
//!
//! `--limit` caps the k = 1 scenarios per network; `--reps` (default 3)
//! repeats the two incremental sweeps — interleaved, back to back within
//! each rep, with the sequential side first in even reps and the
//! streaming side first in odd ones, so background drift biases both
//! sides equally — and keeps the fastest of each, so the reported
//! `parallel_speedup` — a ratio of two near-equal times — is not at the
//! mercy of scheduler noise (the cold sweep runs once: at 30 s per
//! network its noise floor is irrelevant). `--assert-speedup X`
//! exits non-zero unless every swept network's incremental sweep was at
//! least X times faster than its cold sweep, `--assert-parallel-speedup X`
//! does the same for the parallel streaming sweep relative to the
//! sequential incremental one, and `--assert-peak-bytes N` fails the run
//! if any network's streaming sweep retained more than N bytes of digests
//! at its peak (CI uses all three as regression gates). The two ratio
//! gates tolerate [`RATIO_GATE_TOLERANCE`] of measurement noise — they
//! exist to catch regressions like the pre-streaming 0.57× parallel
//! penalty, not a 2 % scheduler wobble on a ratio of near-equal times;
//! the peak-bytes gate is exact (memory does not wobble).

use confmask_sim::fault::{
    enumerate_double_link_failures, enumerate_single_link_failures, run_scenario,
};
use confmask_sim::simulate;
use confmask_sim::sweep::{DigestList, SweepSummary};
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};
use std::fmt::Write as _;
use std::time::Instant;

/// Fractional slack on the `--assert-speedup` / `--assert-parallel-speedup`
/// gates: a measured ratio passes when it is within this fraction of the
/// required one. Timing ratios on a busy CI box wobble a few percent even
/// best-of-`--reps`; a genuine regression (the gates' target) is 25 %+.
const RATIO_GATE_TOLERANCE: f64 = 0.05;

struct K2Row {
    scenarios: usize,
    exhaustive: bool,
    secs: f64,
    errors: usize,
    worst_histogram: [u64; 5],
}

struct Row {
    id: char,
    name: &'static str,
    scenarios: usize,
    cold_secs: f64,
    incremental_secs: f64,
    parallel_secs: f64,
    peak_bytes: usize,
    k2: Option<K2Row>,
}

impl Row {
    fn speedup(&self) -> f64 {
        ratio(self.cold_secs, self.incremental_secs)
    }

    /// Parallel-streaming speedup over the sequential incremental sweep.
    fn parallel_speedup(&self) -> f64 {
        ratio(self.incremental_secs, self.parallel_secs)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::INFINITY
    }
}

/// Parses a comma-separated list of evaluation-network ids (`D,F,H`);
/// a blank entry is a usage error.
fn network_ids(flag: &str, v: &str) -> Vec<char> {
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .chars()
                .next()
                .unwrap_or_else(|| {
                    eprintln!("{flag}: blank network id in '{v}'");
                    std::process::exit(2);
                })
                .to_ascii_uppercase()
        })
        .collect()
}

fn main() {
    let mut networks: Vec<char> = vec!['D', 'F', 'H'];
    let mut limit: Option<usize> = None;
    let mut reps: usize = 3;
    let mut output = String::from("BENCH_fault_sweep.json");
    let mut assert_speedup: Option<f64> = None;
    let mut assert_parallel_speedup: Option<f64> = None;
    let mut assert_peak_bytes: Option<usize> = None;
    let mut k2_networks: Vec<char> = vec!['D'];
    let mut k2_limit: Option<usize> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag.as_str() {
            "--networks" => networks = network_ids(flag, &value(flag)),
            "--limit" => {
                limit = Some(value(flag).parse().unwrap_or_else(|_| {
                    eprintln!("--limit expects an integer");
                    std::process::exit(2);
                }));
            }
            "--reps" => {
                reps = value(flag).parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("--reps expects an integer");
                    std::process::exit(2);
                }).max(1);
            }
            "--output" => output = value(flag),
            "--assert-speedup" => {
                assert_speedup = Some(value(flag).parse().unwrap_or_else(|_| {
                    eprintln!("--assert-speedup expects a number");
                    std::process::exit(2);
                }));
            }
            "--assert-parallel-speedup" => {
                assert_parallel_speedup = Some(value(flag).parse().unwrap_or_else(|_| {
                    eprintln!("--assert-parallel-speedup expects a number");
                    std::process::exit(2);
                }));
            }
            "--assert-peak-bytes" => {
                assert_peak_bytes = Some(value(flag).parse().unwrap_or_else(|_| {
                    eprintln!("--assert-peak-bytes expects an integer byte count");
                    std::process::exit(2);
                }));
            }
            "--k2-networks" => {
                let v = value(flag);
                k2_networks = if v.eq_ignore_ascii_case("none") {
                    vec![]
                } else {
                    network_ids(flag, &v)
                };
            }
            "--k2-limit" => {
                k2_limit = Some(value(flag).parse().unwrap_or_else(|_| {
                    eprintln!("--k2-limit expects an integer");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown flag '{other}'\nusage: fault_sweep [--networks D,F,H] \
                     [--limit N] [--reps N] [--output FILE] [--assert-speedup X] \
                     [--assert-parallel-speedup X] [--assert-peak-bytes N] \
                     [--k2-networks D|none] [--k2-limit N]"
                );
                std::process::exit(2);
            }
        }
    }

    let suite = confmask_netgen::full_suite();
    let mut rows = Vec::new();
    for id in networks {
        let net = suite.iter().find(|n| n.id == id).unwrap_or_else(|| {
            eprintln!("no evaluation network '{id}'");
            std::process::exit(2);
        });
        let configs = &net.configs;
        let mut scenarios = enumerate_single_link_failures(configs);
        if let Some(l) = limit {
            scenarios.truncate(l);
        }
        eprintln!(
            "net {id} ({}): {} scenario(s) at k=1",
            net.name,
            scenarios.len()
        );

        // Cold sweep: a full simulation of the healthy network, then a full
        // simulation per scenario through the cold `run_scenario` loop. Its
        // digests become the differential reference for both streaming
        // sweeps.
        let t0 = Instant::now();
        let baseline = simulate(configs).expect("healthy network must simulate");
        let cold: Vec<_> = scenarios
            .iter()
            .map(|s| run_scenario(configs, &baseline.dataplane, s).expect("cold scenario"))
            .collect();
        let cold_secs = t0.elapsed().as_secs_f64();

        // Incremental and parallel-streaming sweeps, interleaved: each rep
        // measures the sequential per-scenario digest loop and the streaming
        // fan-out back-to-back, in alternating order, so background drift on
        // a shared box biases both sides equally and the reported ratio (`parallel_speedup`, a
        // ratio of two near-equal times on one core) stays honest. Each side
        // pays for its own baseline convergence (a fresh engine per rep, so
        // nothing leaks in from the cold sweep or the other side), and both
        // are timed as one block — setup, sweep, digest retention. The
        // differential check against the cold folds runs outside the clocks,
        // first rep only. Best of `reps` per side.
        let mut incremental_secs = f64::INFINITY;
        let mut parallel_secs = f64::INFINITY;
        let mut peak_bytes = 0usize;
        let mut mismatches = 0usize;
        for rep in 0..reps {
            // Even reps run the sequential side first, odd reps the
            // streaming side, so drift within a rep favours neither.
            let streaming_first = rep % 2 == 1;
            for streaming in [streaming_first, !streaming_first] {
                if !streaming {
                    let t1 = Instant::now();
                    let engine = DeltaEngine::new(4);
                    let base = engine
                        .converged(configs)
                        .expect("healthy network must converge");
                    let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
                    let mut digests = Vec::with_capacity(scenarios.len());
                    for s in &scenarios {
                        digests.push(sweep.digest(s).expect("incremental scenario"));
                    }
                    incremental_secs = incremental_secs.min(t1.elapsed().as_secs_f64());
                    if rep == 0 {
                        for (s, (digest, c)) in
                            scenarios.iter().zip(digests.iter().zip(cold.iter()))
                        {
                            if digest != c {
                                eprintln!("net {id}: MISMATCH on {s}");
                                mismatches += 1;
                            }
                        }
                    }
                    continue;
                }

                // The streaming side: scenarios fan out across the shared
                // executor in bounded windows, and at most one window of
                // digests is ever live — its measured peak is `peak_bytes`.
                let t2 = Instant::now();
                let par_engine = DeltaEngine::new(4);
                let par_base = par_engine
                    .converged(configs)
                    .expect("healthy network must converge");
                let par_sweep = ScenarioSweep::new(&par_engine, &par_base, &par_base.sim.dataplane);
                let mut streamed = DigestList::default();
                let stats = par_sweep.run(scenarios.iter(), &mut streamed);
                parallel_secs = parallel_secs.min(t2.elapsed().as_secs_f64());
                peak_bytes = peak_bytes.max(stats.peak_digest_bytes);
                if rep == 0 {
                    for ((s, digest), c) in scenarios.iter().zip(&streamed.results).zip(cold.iter())
                    {
                        let digest = digest.as_ref().expect("parallel scenario");
                        if digest != c {
                            eprintln!("net {id}: PARALLEL MISMATCH on {s}");
                            mismatches += 1;
                        }
                    }
                }
            }
        }

        // Differential gate: identical digests or no timing at all.
        if mismatches > 0 {
            eprintln!("net {id}: {mismatches} differential mismatch(es) — aborting");
            std::process::exit(1);
        }
        drop(cold);

        // Optional k = 2 row: the double-link failure space, streamed through
        // the incremental engine only, reduced to a summary (histograms of
        // worst classes) with nothing retained per scenario.
        let k2 = if k2_networks.contains(&id) {
            let all = enumerate_double_link_failures(configs);
            let total = all.len();
            let capped = k2_limit.map_or(total, |l| l.min(total));
            eprintln!(
                "net {id}: streaming {capped}/{total} scenario(s) at k=2{}",
                if capped == total { " (exhaustive)" } else { "" }
            );
            let k2_engine = DeltaEngine::new(4);
            let k2_base = k2_engine
                .converged(configs)
                .expect("healthy network must converge");
            let k2_sweep = ScenarioSweep::new(&k2_engine, &k2_base, &k2_base.sim.dataplane);
            let mut summary = SweepSummary::default();
            let t3 = Instant::now();
            let k2_stats = k2_sweep.run(all.take(capped), &mut summary);
            let secs = t3.elapsed().as_secs_f64();
            Some(K2Row {
                scenarios: k2_stats.scenarios,
                exhaustive: capped == total,
                secs,
                errors: k2_stats.errors,
                worst_histogram: summary.worst_histogram,
            })
        } else {
            None
        };

        let row = Row {
            id,
            name: net.name,
            scenarios: scenarios.len(),
            cold_secs,
            incremental_secs,
            parallel_secs,
            peak_bytes,
            k2,
        };
        println!(
            "net {id}: cold {:.2}s, incremental {:.2}s ({:.1}x), parallel {:.2}s \
             ({:.1}x over incremental, {} thread(s)), 0 mismatches",
            row.cold_secs,
            row.incremental_secs,
            row.speedup(),
            row.parallel_secs,
            row.parallel_speedup(),
            confmask_exec::thread_count()
        );
        println!("net {id}: streaming peak {} B", row.peak_bytes);
        if let Some(k2) = &row.k2 {
            println!(
                "net {id}: k=2 {}{} scenario(s) in {:.2}s ({:.1}/s), {} error(s), worst histogram {:?}",
                k2.scenarios,
                if k2.exhaustive { " (exhaustive)" } else { "" },
                k2.secs,
                ratio(k2.scenarios as f64, k2.secs),
                k2.errors,
                k2.worst_histogram
            );
        }
        rows.push(row);
    }

    let mut json = String::from("{\n  \"bench\": \"fault_sweep\",\n  \"k\": 1,\n");
    let _ = writeln!(
        json,
        "  \"limit\": {},",
        limit.map_or("null".into(), |l| l.to_string())
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"threads\": {},", confmask_exec::thread_count());
    json.push_str("  \"networks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let k2 = match &r.k2 {
            Some(k2) => format!(
                "{{\"scenarios\": {}, \"exhaustive\": {}, \"secs\": {:.3}, \
                 \"scenarios_per_sec\": {:.1}, \"errors\": {}, \
                 \"worst_histogram\": [{}, {}, {}, {}, {}]}}",
                k2.scenarios,
                k2.exhaustive,
                k2.secs,
                ratio(k2.scenarios as f64, k2.secs),
                k2.errors,
                k2.worst_histogram[0],
                k2.worst_histogram[1],
                k2.worst_histogram[2],
                k2.worst_histogram[3],
                k2.worst_histogram[4],
            ),
            None => "null".into(),
        };
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"name\": \"{}\", \"scenarios\": {}, \
             \"cold_secs\": {:.3}, \"incremental_secs\": {:.3}, \"speedup\": {:.2}, \
             \"parallel_secs\": {:.3}, \"parallel_speedup\": {:.2}, \
             \"peak_bytes\": {}, \
             \"mismatches\": 0, \"k2\": {}}}",
            r.id,
            r.name,
            r.scenarios,
            r.cold_secs,
            r.incremental_secs,
            r.speedup(),
            r.parallel_secs,
            r.parallel_speedup(),
            r.peak_bytes,
            k2
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&output, &json) {
        eprintln!("cannot write {output}: {e}");
        std::process::exit(1);
    }
    println!("wrote {output}");

    if let Some(min) = assert_speedup {
        for r in &rows {
            if r.speedup() < min * (1.0 - RATIO_GATE_TOLERANCE) {
                eprintln!(
                    "net {}: speedup {:.2}x below required {min}x",
                    r.id,
                    r.speedup()
                );
                std::process::exit(1);
            }
        }
        println!("speedup gate: every network >= {min}x");
    }
    if let Some(min) = assert_parallel_speedup {
        for r in &rows {
            if r.parallel_speedup() < min * (1.0 - RATIO_GATE_TOLERANCE) {
                eprintln!(
                    "net {}: parallel speedup {:.2}x below required {min}x",
                    r.id,
                    r.parallel_speedup()
                );
                std::process::exit(1);
            }
        }
        println!("parallel speedup gate: every network >= {min}x");
    }
    if let Some(max) = assert_peak_bytes {
        for r in &rows {
            if r.peak_bytes > max {
                eprintln!(
                    "net {}: streaming peak {} B above budget {max} B",
                    r.id, r.peak_bytes
                );
                std::process::exit(1);
            }
        }
        println!("peak-memory gate: every network <= {max} B");
    }
}
