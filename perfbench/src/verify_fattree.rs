//! `verify-fattree`: repeated equivalence-under-failure verification of an
//! anonymized FatTree(6). The anonymizations run once, in set-up,
//! and the simulation cache is warmed there too; each operation is one
//! `verify_failure_equivalence` call sweeping every k=1 link failure plus a
//! seeded k=2 sample.
//!
//! The anonymization uses a fixed seed, so every run verifies the same
//! network; the workload seed draws each operation's k=2 sample (the
//! verification samples with the result's `params.seed`), so no two
//! operations sweep the same scenarios. Anonymizing with the workload seed,
//! or rotating over several anonymized networks, moved the median by up to
//! a fifth between runs: fake-link counts change the masked network's
//! sweep cost.

use crate::trace::{self, ObsSnapshot, Recorder};
use crate::{calib, mix, stats, Ctx, Outcome};
use confmask::resilience::mask_fake_elements;
use confmask::{anonymize, verify_failure_equivalence, Anonymized, NetworkConfigs, Params};
use confmask_netgen::fattree::fattree_spec;
use confmask_netgen::synth::synthesize;
use confmask_sim::fault::enumerate_scenarios;
use confmask_sim::DigestList;
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};
use std::collections::BTreeMap;
use std::time::Instant;

/// Executor threads fanning out the sweeps.
pub const THREADS: usize = 2;
/// FatTree arity. Net H's 8 made an operation take about 5 s, so a run
/// held five and its median spread by 0.29 between runs.
const FAT_TREE_K: usize = 6;
/// Anonymization seeds of the set-ups: the run verifies the first
/// network, the others only time the set-up again (median reported).
const ANON_SEEDS: [u64; 7] = [1, 2, 3, 4, 5, 6, 7];
/// Failure size and sampled k=2 scenarios per operation.
const K: usize = 2;
const K2_SAMPLE: usize = 16;

/// One set-up: anonymize with a seed, then warm the simulation cache with
/// the masked baseline (anonymizing already converged the original and the
/// anonymized network), so operations pay baseline convergence never.
fn set_up(net: &NetworkConfigs, seed: u64) -> Result<Anonymized, String> {
    let params = Params::new(6, 2).with_seed(seed);
    let result = anonymize(net, &params).map_err(|e| e.to_string())?;
    DeltaEngine::global()
        .converged(&mask_fake_elements(&result.configs))
        .map_err(|e| e.to_string())?;
    Ok(result)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    confmask_exec::configure_threads(THREADS);
    let net = synthesize(&fattree_spec(FAT_TREE_K));
    let mut setups = Vec::new();
    let mut first = None;
    for seed in ANON_SEEDS {
        let speed = calib::speed_on(THREADS);
        let t = Instant::now();
        let result = set_up(&net, seed)?;
        setups.push(t.elapsed().as_secs_f64() * speed);
        first.get_or_insert(result);
    }
    let mut result = first.expect("ANON_SEEDS is not empty");
    let mut out = Outcome::new(stats::median(&setups));
    // Warm-up: the first sweep allocates what later sweeps reuse.
    result.params.seed = mix(ctx.seed, u64::MAX);
    let warm = verify_failure_equivalence(&net, &result, K, K2_SAMPLE);
    if !warm.holds() {
        return Err(format!(
            "warm-up verification failed: {:?}",
            warm.violations().first()
        ));
    }

    let mut rec = Recorder::default();
    let mut op_ms = Vec::new();
    let mut norm_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut scenarios = 0usize;
    let mut per_op: Vec<(u64, u64, ObsSnapshot)> = Vec::new();
    let mut first_traced = None;
    // The budget counts operation time only.
    let mut i = 0usize;
    let mut spent = 0.0;
    while spent < ctx.seconds.as_secs_f64() * 1e3 && out.failed < 3 {
        result.params.seed = mix(ctx.seed, i as u64);
        out.attempted += 1;
        // A traced run alternates plain and traced operations, so the
        // tracing overhead is measured, not assumed.
        let traced = ctx.trace && i % 2 == 1;
        if ctx.trace {
            confmask_obs::set_enabled(traced);
            confmask_obs::reset();
        }
        let speed = calib::speed_on(THREADS);
        let start_us = confmask_obs::now_us();
        let t = Instant::now();
        let report = rec.time("resilience", || {
            verify_failure_equivalence(&net, &result, K, K2_SAMPLE)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let end_us = confmask_obs::now_us();
        spent += ms;
        if traced {
            traced_ms.push(ms * speed);
        }
        if report.holds() {
            op_ms.push(ms);
            norm_ms.push(ms * speed);
            scenarios += report.scenario_count();
        } else {
            out.failed += 1;
            eprintln!("verify-fattree op {i}: {:?}", report.violations().first());
        }
        if traced {
            let snap = ObsSnapshot::take();
            let (scenarios, hist) = work(&report);
            first_traced.get_or_insert((i, scenarios, hist));
            out.counts.push(format!(
                "op={i} scenarios={scenarios} worst_histogram={hist:?} sim.delta.pairs_recomputed={} sim.simulations={} sim.ospf.spf_runs={}",
                snap.counter("sim.delta.pairs_recomputed"),
                snap.counter("sim.simulations"),
                snap.counter("sim.ospf.spf_runs"),
            ));
            per_op.push((start_us, end_us, snap));
        }
        i += 1;
    }

    let (tail, pct, n) = stats::tail(&norm_ms);
    let total_s: f64 = norm_ms.iter().sum::<f64>() / 1e3;
    let per_s = scenarios as f64 / total_s.max(1e-9);
    out.note(format!(
        "verify-fattree: {n} ops, at reference speed p50 {:.1} ms, tail p{pct:.0} {tail:.1} ms ({n} samples), {per_s:.1} scenarios/s; wall p50 {:.1} ms; {THREADS} executor thread(s)",
        stats::median(&norm_ms),
        stats::median(&op_ms),
    ));
    out.e2e.insert("op_ms_p50", stats::median(&norm_ms));
    out.e2e.insert("op_ms_tail", tail);
    out.e2e.insert("throughput_per_s", per_s);
    if let Some((i, scenarios, hist)) = first_traced {
        // The first traced operation again, after the rest of the run: its
        // scenario count and worst-class histogram must repeat.
        result.params.seed = mix(ctx.seed, i as u64);
        let again = work(&verify_failure_equivalence(&net, &result, K, K2_SAMPLE));
        if again != (scenarios, hist) {
            out.failed += 1;
            eprintln!("verify-fattree op {i}: work counts changed on repeat: {again:?}");
        }
    }
    if ctx.trace {
        let plain_ms: Vec<f64> = norm_ms.iter().step_by(2).copied().collect();
        let overhead =
            100.0 * (stats::median(&traced_ms) / stats::median(&plain_ms).max(1e-9) - 1.0);
        out.layers.insert("obs.trace_overhead_pct", overhead);
        let verify_ms: Vec<f64> = rec.of("resilience").map(|s| s.ms()).collect();
        out.layers
            .insert("core.verify_ms", stats::median(&verify_ms));
        layer_metrics(&net, &result, &rec, &per_op, &mut out)?;
    }
    Ok(out)
}

/// A verification's deterministic work: scenarios swept and the histogram
/// of their worst degradation classes.
fn work(
    report: &confmask::resilience::FailureEquivalenceReport,
) -> (usize, [usize; confmask_sim::DegradationClass::COUNT]) {
    let mut hist = [0usize; confmask_sim::DegradationClass::COUNT];
    for s in &report.real {
        if let Some(w) = s.worst {
            hist[w.index()] += 1;
        }
    }
    (report.scenario_count(), hist)
}

/// Per-layer numbers of the traced run.
fn layer_metrics(
    net: &NetworkConfigs,
    result: &Anonymized,
    rec: &Recorder,
    per_op: &[(u64, u64, ObsSnapshot)],
    out: &mut Outcome,
) -> Result<(), String> {
    let ops = per_op.len().max(1) as f64;
    let sum = |name: &str| per_op.iter().map(|(_, _, s)| s.counter(name)).sum::<u64>() as f64;
    let m = &mut out.layers;
    m.insert("sim.simulations", sum("sim.simulations") / ops);
    m.insert("sim.ospf_spf_runs", sum("sim.ospf.spf_runs") / ops);
    let reused = sum("sim.delta.pairs_reused");
    let recomputed = sum("sim.delta.pairs_recomputed");
    m.insert(
        "sim_delta.pairs_reused_ratio",
        reused / (reused + recomputed).max(1.0),
    );
    m.insert(
        "sim_delta.ospf_prefixes_recomputed",
        sum("sim.delta.ospf_prefixes_recomputed") / ops,
    );
    m.insert(
        "sim_delta.full_fallbacks",
        sum("sim.delta.full_fallbacks") / ops,
    );
    let hits = sum("sim.cache.hits");
    let misses = sum("sim.cache.misses");
    m.insert("sim_delta.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.insert("exec.tasks", sum("exec.tasks") / ops);
    m.insert("exec.steals", sum("exec.steals") / ops);
    let util: Vec<f64> = per_op
        .iter()
        .map(|(_, _, s)| s.hist_mean("exec.utilization_pct"))
        .collect();
    m.insert("exec.utilization_pct", stats::mean(&util));
    let dp: Vec<f64> = per_op
        .iter()
        .map(|(_, _, s)| s.span_mean_ms("sim.dataplane"))
        .collect();
    m.insert("sim.dataplane_ms", stats::mean(&dp));
    let cp: Vec<f64> = per_op
        .iter()
        .map(|(_, _, s)| s.span_mean_ms("sim.control_plane"))
        .collect();
    m.insert("sim.control_plane_ms", stats::mean(&cp));

    // Sweep wall time: the union of scenario spans on any thread.
    let mut sweep = Vec::new();
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut wall = 0;
    for (start, end, snap) in per_op {
        let prog = snap.spans_within(*start, *end);
        sweep.push(
            trace::union_us(
                prog.iter()
                    .filter(|s| s.name == "sim.fault.scenario")
                    .map(|s| (s.start_us, s.start_us + s.duration_us)),
            ) as f64
                / 1e3,
        );
        let bench: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.start_us >= *start && s.end_us <= *end)
            .cloned()
            .collect();
        for (k, v) in trace::self_times(*start, *end, &bench, &prog) {
            *totals.entry(k).or_default() += v;
        }
        wall += end - start;
    }
    m.insert("sim_delta.sweep_ms", stats::median(&sweep));
    m.insert(
        "resilience.compare_ms",
        *totals.get("resilience").unwrap_or(&0) as f64 / 1e3 / ops,
    );
    let unattributed =
        100.0 * *totals.get("unattributed").unwrap_or(&0) as f64 / wall.max(1) as f64;
    m.insert("core.unattributed_pct", unattributed);

    // Layer probes outside the operations: a cached `converged` lookup of
    // the three baselines, and one streaming sweep for its peak digest
    // memory (the verification itself drops the sweep statistics).
    let engine = DeltaEngine::global();
    let masked = mask_fake_elements(&result.configs);
    let mut converged_ms = Vec::new();
    for cfg in [net, &masked, &result.configs] {
        let t = Instant::now();
        engine.converged(cfg).map_err(|e| e.to_string())?;
        converged_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("sim_delta.converged_ms", stats::mean(&converged_ms));
    let conv = engine.converged(net).map_err(|e| e.to_string())?;
    let base = conv
        .sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts);
    let scenarios = enumerate_scenarios(net, K, result.params.seed, K2_SAMPLE);
    let mut digests = DigestList::default();
    let st = ScenarioSweep::new(engine, &conv, &base).run(scenarios.iter(), &mut digests);
    m.insert("sim_delta.peak_digest_bytes", st.peak_digest_bytes as f64);

    out.note(trace::render_table("verify-fattree", &totals, wall));
    if unattributed > 5.0 {
        out.note(format!(
            "WARNING: {unattributed:.1}% of verify-fattree operation time is unattributed"
        ));
    }
    Ok(())
}
