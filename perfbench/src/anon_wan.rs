//! `anon-wan`: a closed loop of full CLI-path anonymizations (parse the
//! bundle text, ConfMask `anonymize` with k_R=6, k_H=2, emit) over fresh
//! Bics-sized OSPF WANs, one operation at a time. No input repeats, so the
//! simulation cache never serves a baseline and every operation pays the
//! cold simulations a CLI user pays.

use crate::trace::{self, ObsSnapshot, Recorder};
use crate::{calib, mix, stats, Bundle, Ctx, Metrics, Outcome};
use confmask::equivalence::check_equivalence;
use confmask::preprocess::preprocess;
use confmask::route_anon::anonymize_routes;
use confmask::route_equiv::enforce_route_equivalence_with_budget;
use confmask::topo_anon::anonymize_topology_with;
use confmask::{anonymizer_for, CostStrategy, NetworkConfigs, Params, Strategy, Vendor};
use confmask_config::patch::Patcher;
use confmask_net_types::PrefixAllocator;
use confmask_netgen::synth::synthesize;
use confmask_netgen::wan::wan_spec;
use confmask_sim_delta::DeltaEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Executor threads: one, because two threads on a shared two-core box
/// moved the median by a third between identical runs.
pub const THREADS: usize = 1;
/// Topology anonymity k_R.
pub const K_R: usize = 6;
/// Route anonymity k_H.
pub const K_H: usize = 2;
/// WAN shape: `wan_spec(_, 49, 98, 162, seed_i)`, the size of net D (Bics).
const ROUTERS: usize = 49;
const HOSTS: usize = 98;
const EDGES: usize = 162;
/// Bundles generated per set-up, and set-ups per run (median reported).
const SETUP_BUNDLES: usize = 64;
const SETUPS: usize = 7;

/// The fresh input of operation `i`: a WAN synthesized from a seed derived
/// from the workload seed, emitted as IOS bundle text.
fn input(seed: u64, i: u64) -> Bundle {
    let net = synthesize(&wan_spec("wan", ROUTERS, HOSTS, EDGES, mix(seed, i)));
    Bundle::emit(&net, Vendor::Ios)
}

/// Pipeline parameters of operation `i`.
fn params(seed: u64, i: u64) -> Params {
    Params::new(K_R, K_H).with_seed(mix(seed ^ 0xA7, i))
}

/// One operation's product: the parsed input and the emitted artifacts.
struct Product {
    input: NetworkConfigs,
    artifacts: Bundle,
    equiv_iterations: usize,
    route_anon_sim_calls: usize,
    filters_kept: usize,
    filters_tried: usize,
}

/// Stage statistics summed over the successful traced operations.
#[derive(Default)]
struct Totals {
    equiv_iterations: usize,
    sim_calls: usize,
    filters_kept: usize,
    filters_tried: usize,
}

/// The CLI path: parse, anonymize through the strategy registry,
/// emit.
fn run_op(bundle: &Bundle, params: &Params) -> Result<Product, String> {
    let input = bundle.parse(Vendor::Ios)?;
    let result = anonymizer_for(Strategy::ConfMask)
        .anonymize(&input, params)
        .map_err(|e| e.to_string())?;
    let artifacts = Bundle::emit(&result.configs, Vendor::Ios);
    let detail = result
        .confmask
        .as_ref()
        .ok_or("ConfMask result lacks its detail")?;
    Ok(Product {
        equiv_iterations: detail.equiv.iterations,
        route_anon_sim_calls: detail.route_anon.sim_calls,
        filters_kept: detail.route_anon.filters_kept,
        filters_tried: detail.route_anon.filters_kept + detail.route_anon.filters_rolled_back,
        input,
        artifacts,
    })
}

/// The traced operation: the same work replayed stage by stage through
/// the public stage functions, each under a benchmark span.
fn replay_op(bundle: &Bundle, params: &Params, rec: &mut Recorder) -> Result<Product, String> {
    let e = |e: confmask::Error| e.to_string();
    let input = rec.time("config.parse", || bundle.parse(Vendor::Ios))?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let baseline = rec
        .time("core.preprocess", || preprocess(&input))
        .map_err(e)?;
    let mut patcher = Patcher::new(input.clone());
    let mut alloc = PrefixAllocator::new(input.used_prefixes());
    let fake_links = rec
        .time("topology.anon", || {
            anonymize_topology_with(
                &mut patcher,
                &mut alloc,
                &baseline,
                params.k_r,
                CostStrategy::MinCost,
                &mut rng,
            )
        })
        .map_err(e)?;
    let equiv = rec
        .time("core.route_equiv", || {
            enforce_route_equivalence_with_budget(&mut patcher, &baseline, fake_links.len(), 0)
        })
        .map_err(e)?;
    let ra = rec
        .time("core.route_anon", || {
            anonymize_routes(
                &mut patcher,
                &mut alloc,
                &baseline,
                params.k_h,
                params.noise_p,
                &mut rng,
            )
        })
        .map_err(e)?;
    let (anon, _ledger) = patcher.into_parts();
    let verify_start = confmask_obs::now_us();
    let sim = rec
        .time("sim_delta.converged", || {
            DeltaEngine::global().converged(&anon)
        })
        .map_err(|e| e.to_string())?;
    let report = check_equivalence(&input, &baseline.sim.dataplane, &anon, &sim.sim.dataplane);
    rec.push("core.verify", verify_start, confmask_obs::now_us());
    if !report.holds() {
        return Err(format!(
            "replay broke equivalence: {:?}",
            report.violations.first()
        ));
    }
    let artifacts = rec.time("config.emit", || Bundle::emit(&anon, Vendor::Ios));
    Ok(Product {
        equiv_iterations: equiv.iterations,
        route_anon_sim_calls: ra.sim_calls,
        filters_kept: ra.filters_kept,
        filters_tried: ra.filters_kept + ra.filters_rolled_back,
        input,
        artifacts,
    })
}

/// The output checks, outside the timed region: artifacts re-parse, a cold
/// simulation of the re-parsed output keeps every real-host path set, the
/// topology is k_R-degree anonymous, and every original line survives in
/// order (append-only).
fn check(bundle: &Bundle, product: &Product) -> Result<(), String> {
    let back = product.artifacts.parse(Vendor::Ios)?;
    let real: std::collections::BTreeSet<String> = product.input.hosts.keys().cloned().collect();
    let before = confmask::simulate(&product.input).map_err(|e| e.to_string())?;
    let after = confmask::simulate(&back).map_err(|e| e.to_string())?;
    if before.dataplane.restricted_to(&real) != after.dataplane.restricted_to(&real) {
        return Err("a real-host path set changed".into());
    }
    let topo = confmask_topology::extract::extract_topology(&back);
    let k = confmask_topology::metrics::min_same_degree(&topo);
    if k < K_R {
        return Err(format!("min same degree {k} < k_R {K_R}"));
    }
    bundle.append_only_in(&product.artifacts)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    confmask_exec::configure_threads(THREADS);
    // Set-up: generate the first bundles, several times over.
    let mut setups = Vec::new();
    let mut bundles = Vec::new();
    for _ in 0..SETUPS {
        let speed = calib::speed();
        let t = Instant::now();
        bundles = (0..SETUP_BUNDLES as u64)
            .map(|i| input(ctx.seed, i))
            .collect();
        setups.push(t.elapsed().as_secs_f64() * speed);
    }
    let lines_per_op = bundles[0].lines();

    let mut rec = Recorder::default();
    let mut out = Outcome::new(stats::median(&setups));
    let mut totals = Totals::default();
    let mut op_ms = Vec::new();
    let mut norm_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts = Vec::new();
    let mut per_op: Vec<(u64, u64, ObsSnapshot)> = Vec::new();
    // The budget counts operation time only; checks run outside it.
    let mut i = 0u64;
    while op_ms.iter().sum::<f64>() < ctx.seconds.as_secs_f64() * 1e3 && out.failed < 3 {
        if bundles.len() <= i as usize {
            bundles.push(input(ctx.seed, i));
        }
        let bundle = &bundles[i as usize];
        let p = params(ctx.seed, i);
        out.attempted += 1;
        // A traced run alternates plain and traced operations, so the
        // tracing overhead is measured, not assumed.
        let traced = ctx.trace && i % 2 == 1;
        if ctx.trace {
            confmask_obs::set_enabled(traced);
            confmask_obs::reset();
        }
        let speed = calib::speed();
        let start_us = confmask_obs::now_us();
        let t = Instant::now();
        let product = if traced {
            replay_op(bundle, &p, &mut rec)
        } else {
            run_op(bundle, &p)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let end_us = confmask_obs::now_us();
        op_ms.push(ms);
        norm_ms.push(ms * speed);
        if traced {
            traced_ms.push(ms * speed);
        }
        let verdict = product.and_then(|product| {
            if traced {
                let snap = ObsSnapshot::take();
                counts.push(format!(
                    "op={i} sim.simulations={} sim.ospf.spf_runs={} route_equiv.iterations={} route_anon.sim_calls={}",
                    snap.counter("sim.simulations"),
                    snap.counter("sim.ospf.spf_runs"),
                    product.equiv_iterations,
                    product.route_anon_sim_calls
                ));
                per_op.push((start_us, end_us, snap));
                // The replay must be byte-equal to `anonymize()` and repeat
                // its algorithmic work counts (the simulation counts differ:
                // the replay left the baselines in the cache).
                let direct = run_op(bundle, &p)?;
                if direct.artifacts != product.artifacts {
                    return Err("stage replay differs from anonymize()".into());
                }
                if (direct.equiv_iterations, direct.route_anon_sim_calls)
                    != (product.equiv_iterations, product.route_anon_sim_calls)
                {
                    return Err("stage replay's work counts differ from anonymize()".into());
                }
            }
            check(bundle, &product)?;
            Ok(product)
        });
        match verdict {
            Ok(product) if traced => {
                totals.filters_kept += product.filters_kept;
                totals.filters_tried += product.filters_tried;
                totals.sim_calls += product.route_anon_sim_calls;
                totals.equiv_iterations += product.equiv_iterations;
            }
            Ok(_) => {}
            Err(e) => {
                out.failed += 1;
                eprintln!("anon-wan op {i}: {e}");
            }
        }
        i += 1;
        // Drop bundles behind the cursor: every input is used once.
        bundles[i as usize - 1] = Bundle::default();
    }

    let (tail, pct, n) = stats::tail(&norm_ms);
    out.note(format!(
        "anon-wan: {n} ops, at reference speed p50 {:.1} ms, tail p{pct:.0} {tail:.1} ms ({n} samples); wall p50 {:.1} ms; {lines_per_op} config lines per input, {THREADS} executor thread(s)",
        stats::median(&norm_ms),
        stats::median(&op_ms),
    ));
    out.e2e.insert("op_ms_p50", stats::median(&norm_ms));
    out.e2e.insert("op_ms_tail", tail);
    let total_s: f64 = norm_ms.iter().sum::<f64>() / 1e3;
    out.e2e.insert(
        "throughput_per_s",
        lines_per_op as f64 * norm_ms.len() as f64 / total_s.max(1e-9),
    );
    if ctx.trace {
        out.counts = counts;
        let plain_ms: Vec<f64> = norm_ms.iter().step_by(2).copied().collect();
        let overhead =
            100.0 * (stats::median(&traced_ms) / stats::median(&plain_ms).max(1e-9) - 1.0);
        out.layers.insert("obs.trace_overhead_pct", overhead);
        layer_metrics(&rec, &per_op, &totals, &mut out);
    }
    Ok(out)
}

/// Per-layer numbers of the traced run.
fn layer_metrics(
    rec: &Recorder,
    per_op: &[(u64, u64, ObsSnapshot)],
    totals: &Totals,
    out: &mut Outcome,
) {
    let ops = per_op.len().max(1) as f64;
    let per_op_med =
        |layer: &str| stats::median(&rec.of(layer).map(|s| s.ms()).collect::<Vec<_>>());
    let m: &mut Metrics = &mut out.layers;
    for (metric, layer) in [
        ("config.parse_ms", "config.parse"),
        ("config.emit_ms", "config.emit"),
        ("core.preprocess_ms", "core.preprocess"),
        ("topology.anon_ms", "topology.anon"),
        ("core.route_equiv_ms", "core.route_equiv"),
        ("core.route_anon_ms", "core.route_anon"),
        ("core.verify_ms", "core.verify"),
        ("sim_delta.converged_ms", "sim_delta.converged"),
    ] {
        m.insert(metric, per_op_med(layer));
    }
    let sum =
        |f: &dyn Fn(&ObsSnapshot) -> u64| per_op.iter().map(|(_, _, s)| f(s)).sum::<u64>() as f64;
    let spans_ms = |name: &str| {
        let d: Vec<f64> = per_op
            .iter()
            .flat_map(|(_, _, s)| {
                s.spans(name)
                    .map(|x| x.duration_us as f64 / 1e3)
                    .collect::<Vec<_>>()
            })
            .collect();
        (stats::mean(&d), d.len())
    };
    let (cp_ms, _) = spans_ms("sim.control_plane");
    let (dp_ms, dp_calls) = spans_ms("sim.dataplane");
    m.insert("sim.control_plane_ms", cp_ms);
    m.insert("sim.dataplane_ms", dp_ms);
    m.insert(
        "sim.simulations",
        sum(&|s| s.counter("sim.simulations")) / ops,
    );
    m.insert(
        "sim.ospf_spf_runs",
        sum(&|s| s.counter("sim.ospf.spf_runs")) / ops,
    );
    m.insert(
        "sim.bgp_rounds",
        sum(&|s| s.counter("sim.bgp.rounds")) / ops,
    );
    m.insert(
        "sim.rip_rounds",
        sum(&|s| s.counter("sim.rip.rounds")) / ops,
    );
    m.insert(
        "sim.dataplane_pairs",
        sum(&|s| s.counter("sim.dataplane.pairs")) / dp_calls.max(1) as f64,
    );
    let ppp: Vec<f64> = per_op
        .iter()
        .map(|(_, _, s)| s.hist_mean("sim.dataplane.paths_per_pair"))
        .collect();
    m.insert("sim.paths_per_pair", stats::mean(&ppp));
    m.insert(
        "config.lines",
        sum(&|s| s.counter("config.parse.lines")) / ops,
    );
    m.insert("core.route_anon_sim_calls", totals.sim_calls as f64 / ops);
    m.insert(
        "core.route_equiv_iterations",
        totals.equiv_iterations as f64 / ops,
    );
    m.insert(
        "core.route_anon_filters_kept_ratio",
        totals.filters_kept as f64 / totals.filters_tried.max(1) as f64,
    );
    let hits = sum(&|s| s.counter("sim.cache.hits"));
    let misses = sum(&|s| s.counter("sim.cache.misses"));
    m.insert("sim_delta.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.insert("exec.tasks", sum(&|s| s.counter("exec.tasks")) / ops);

    // Self-time table over every operation.
    let mut self_time: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut wall = 0;
    for (start, end, snap) in per_op {
        let bench: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.start_us >= *start && s.end_us <= *end)
            .cloned()
            .collect();
        let prog = snap.spans_within(*start, *end);
        for (k, v) in trace::self_times(*start, *end, &bench, &prog) {
            *self_time.entry(k).or_default() += v;
        }
        wall += end - start;
    }
    let unattributed =
        100.0 * *self_time.get("unattributed").unwrap_or(&0) as f64 / wall.max(1) as f64;
    m.insert("core.unattributed_pct", unattributed);
    out.note(trace::render_table("anon-wan", &self_time, wall));
    if unattributed > 5.0 {
        out.note(format!(
            "WARNING: {unattributed:.1}% of anon-wan operation time is unattributed"
        ));
    }
}
