//! Regenerates every table and figure of the paper's evaluation (§7 and
//! Appendix C).
//!
//! ```text
//! figures [--quick] <experiment>...
//! figures all              # everything (minutes)
//! figures --quick fig5     # fast subset of networks (A, B, C, G)
//! ```
//!
//! Experiments: `table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 fig15 fig16 table3 ablation attacks frontier all`.
//!
//! `frontier` compares all three anonymization strategies (ConfMask,
//! NetHide, NetCloak) over the extended suite, including FatTree(16) and
//! the scaling WANs; because the full run anonymizes those large nets it
//! is *not* part of `all` — ask for it explicitly.

use confmask::EquivalenceMode;
use confmask_bench::stats::{mean, pearson};
use confmask_bench::{RunKey, Runner};
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::{clustering_coefficient, min_same_degree};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if wanted.is_empty() {
        eprintln!(
            "usage: figures [--quick] <table2|fig5|...|fig16|table3|ablation|attacks|frontier|all>..."
        );
        std::process::exit(2);
    }

    let runner = if quick {
        Runner::quick()
    } else {
        Runner::new()
    };
    let all = wanted.contains(&"all");
    let want = |name: &str| all || wanted.contains(&name);

    if want("table2") {
        table2(&runner);
    }
    if want("fig5") {
        fig5(&runner);
    }
    if want("fig6") {
        fig6(&runner);
    }
    if want("fig7") {
        fig7(&runner);
    }
    if want("fig8") {
        fig8(&runner);
    }
    if want("fig9") {
        fig9(&runner);
    }
    if want("fig10") {
        fig10(&runner);
    }
    if want("fig11") {
        fig11(&runner);
    }
    if want("fig12") {
        fig12(&runner);
    }
    if want("fig13") {
        fig13(&runner);
    }
    if want("fig14") {
        fig14(&runner);
    }
    if want("fig15") {
        fig15(&runner);
    }
    if want("fig16") {
        fig16(&runner);
    }
    if want("table3") {
        table3(&runner);
    }
    if want("ablation") {
        ablation(&runner);
    }
    if want("attacks") {
        attacks(&runner);
    }
    // Deliberately excluded from `all`: the full frontier anonymizes the
    // scaling nets (I, J, K) three times each.
    if wanted.contains(&"frontier") {
        frontier(quick);
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Table 2: the evaluation networks.
fn table2(runner: &Runner) {
    header("Table 2: evaluation networks");
    println!(
        "{:<3} {:<11} {:>4} {:>4} {:>4} {:>8}  Type",
        "ID", "Network", "|R|", "|H|", "|E|", "#lines"
    );
    for net in runner.suite() {
        let (r, h, e, lines) = net.stats();
        println!(
            "{:<3} {:<11} {:>4} {:>4} {:>4} {:>8}  {}",
            net.id, net.name, r, h, e, lines, net.network_type
        );
    }
}

/// Figure 5: average number of distinct paths between edge routers,
/// k_R=6, k_H=2.
fn fig5(runner: &Runner) {
    header(
        "Figure 5: route anonymity N_r (avg/min distinct paths per edge-router pair), k_R=6 k_H=2",
    );
    println!(
        "{:<3} {:>9} {:>9} {:>9} {:>9}",
        "ID", "orig avg", "anon avg", "orig min", "anon min"
    );
    let mut avgs = Vec::new();
    for net in runner.suite() {
        let run = runner.default_run(net.id);
        let orig = confmask::metrics::route_anonymity(&run.baseline.sim.dataplane);
        let anon = run.route_anonymity();
        avgs.push(anon.avg());
        println!(
            "{:<3} {:>9.2} {:>9.2} {:>9} {:>9}",
            net.id,
            orig.avg(),
            anon.avg(),
            orig.min(),
            anon.min()
        );
    }
    println!("average anonymized N_r over networks: {:.2}", mean(&avgs));
}

/// Figure 6: minimum number of nodes sharing the same degree, k_R=6, k_H=2.
fn fig6(runner: &Runner) {
    header("Figure 6: topology anonymity k_d (min #routers sharing a degree), k_R=6 k_H=2");
    println!("{:<3} {:>6} {:>6}  anon >= k_R?", "ID", "orig", "anon");
    for net in runner.suite() {
        let run = runner.default_run(net.id);
        let orig = min_same_degree(&run.baseline.topo);
        let anon = min_same_degree(&extract_topology(&run.configs));
        println!("{:<3} {:>6} {:>6}  {}", net.id, orig, anon, anon >= 6);
    }
}

/// Figure 7: clustering coefficients, original vs anonymized.
fn fig7(runner: &Runner) {
    header("Figure 7: clustering coefficient, k_R=6 k_H=2");
    println!("{:<3} {:>8} {:>8} {:>8}", "ID", "orig", "anon", "delta");
    let mut deltas = Vec::new();
    for net in runner.suite() {
        let run = runner.default_run(net.id);
        let orig = clustering_coefficient(&run.baseline.topo);
        let anon = clustering_coefficient(&extract_topology(&run.configs));
        deltas.push((anon - orig).abs());
        println!(
            "{:<3} {:>8.3} {:>8.3} {:>8.3}",
            net.id,
            orig,
            anon,
            anon - orig
        );
    }
    println!("average |delta|: {:.3}", mean(&deltas));
}

/// Figure 8: proportion of exactly kept host-to-host paths. The NetHide
/// baseline is selected through the `Anonymizer` trait, so the comparison
/// column is exactly what `--strategy nethide` produces.
fn fig8(runner: &Runner) {
    use confmask::{anonymizer_for, Strategy};
    header("Figure 8: exactly kept paths P_U — ConfMask vs NetHide");
    println!("{:<3} {:>9} {:>9}", "ID", "ConfMask", "NetHide");
    let mut nh_scores = Vec::new();
    for net in runner.suite() {
        let run = runner.default_run(net.id);
        let confmask_pu = run.path_preservation();
        let nh = anonymizer_for(Strategy::NetHide)
            .anonymize(&net.configs, &confmask::Params::new(6, 2))
            .expect("nethide");
        let nh_pu = nh.kept_path_ratio();
        nh_scores.push(nh_pu);
        println!("{:<3} {:>9.3} {:>9.3}", net.id, confmask_pu, nh_pu);
    }
    println!(
        "NetHide average P_U: {:.3} (paper: ~0.15, max < 0.30)",
        mean(&nh_scores)
    );
}

/// Figure 9: preserved network specifications via the spec miner,
/// k_R=6, k_H=4.
fn fig9(runner: &Runner) {
    header("Figure 9: preserved specifications (kept ratio / introduced ratio), k_R=6 k_H=4");
    println!(
        "{:<3} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "ID", "CM kept", "NH kept", "CM intr", "NH intr", "CM intr-fake"
    );
    let (mut cm_kept, mut nh_kept) = (Vec::new(), Vec::new());
    for net in runner.suite() {
        let run = runner.run(RunKey {
            net: net.id,
            k_r: 6,
            k_h: 4,
            mode: EquivalenceMode::ConfMask,
            seed: 0,
        });
        let orig_spec = confmask_spec::mine(&run.baseline.sim.dataplane);
        let cm_spec = confmask_spec::mine(&run.final_sim.dataplane);
        let cm = confmask_spec::diff(&orig_spec, &cm_spec, &run.baseline.real_hosts);

        let nh = confmask::anonymizer_for(confmask::Strategy::NetHide)
            .anonymize(&net.configs, &confmask::Params::new(6, 4))
            .expect("nethide");
        let nh_spec = confmask_spec::mine(&nh.dataplane);
        let nhd = confmask_spec::diff(&orig_spec, &nh_spec, &run.baseline.real_hosts);

        cm_kept.push(cm.kept_ratio());
        nh_kept.push(nhd.kept_ratio());
        println!(
            "{:<3} {:>8.3} {:>8.3} {:>8.2} {:>8.2} {:>10.3}",
            net.id,
            cm.kept_ratio(),
            nhd.kept_ratio(),
            cm.introduced_ratio(),
            nhd.introduced_ratio(),
            cm.introduced_fake_fraction()
        );
    }
    let (cm, nh) = (mean(&cm_kept), mean(&nh_kept));
    println!(
        "avg kept: ConfMask {:.3} vs NetHide {:.3}; missing-spec reduction {:.0}%",
        cm,
        nh,
        100.0 * (1.0 - (1.0 - cm) / (1.0 - nh).max(1e-9))
    );
}

/// Figure 10: anonymity (L) and injected lines (R) across strawmen and
/// ConfMask.
fn fig10(runner: &Runner) {
    header("Figure 10: N_r (L) and injected-line % (R) — Strawman1 / Strawman2 / ConfMask, k_R=6 k_H=2");
    println!(
        "{:<3} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}",
        "ID", "S1 N_r", "S2 N_r", "CM N_r", "S1 inj%", "S2 inj%", "CM inj%"
    );
    let mut rows: Vec<[f64; 6]> = Vec::new();
    for net in runner.suite() {
        let mut row = [0.0f64; 6];
        for (i, mode) in [
            EquivalenceMode::Strawman1,
            EquivalenceMode::Strawman2,
            EquivalenceMode::ConfMask,
        ]
        .iter()
        .enumerate()
        {
            let run = runner.run(RunKey {
                net: net.id,
                k_r: 6,
                k_h: 2,
                mode: *mode,
                seed: 0,
            });
            row[i] = run.route_anonymity().avg();
            row[i + 3] = 100.0 * (1.0 - run.config_utility());
        }
        println!(
            "{:<3} {:>8.2} {:>8.2} {:>8.2}   {:>8.1} {:>8.1} {:>8.1}",
            net.id, row[0], row[1], row[2], row[3], row[4], row[5]
        );
        rows.push(row);
    }
    let col = |i: usize| mean(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    println!(
        "averages: N_r S1 {:.2} S2 {:.2} CM {:.2}; injected% S1 {:.1} S2 {:.1} CM {:.1}",
        col(0),
        col(1),
        col(2),
        col(3),
        col(4),
        col(5)
    );
}

fn sweep_k_r(runner: &Runner) -> Vec<(char, usize, f64, f64)> {
    let mut out = Vec::new();
    for net in runner.suite() {
        for k_r in [2usize, 6, 10] {
            let run = runner.run(RunKey {
                net: net.id,
                k_r,
                k_h: 2,
                mode: EquivalenceMode::ConfMask,
                seed: 0,
            });
            out.push((
                net.id,
                k_r,
                run.route_anonymity().avg(),
                run.config_utility(),
            ));
        }
    }
    out
}

fn sweep_k_h(runner: &Runner) -> Vec<(char, usize, f64, f64)> {
    let mut out = Vec::new();
    for net in runner.suite() {
        for k_h in [2usize, 4, 6] {
            let run = runner.run(RunKey {
                net: net.id,
                k_r: 6,
                k_h,
                mode: EquivalenceMode::ConfMask,
                seed: 0,
            });
            out.push((
                net.id,
                k_h,
                run.route_anonymity().avg(),
                run.config_utility(),
            ));
        }
    }
    out
}

/// Figure 11: impact of k_R on N_r.
fn fig11(runner: &Runner) {
    header("Figure 11: impact of k_R on route anonymity N_r (k_H=2)");
    println!("{:<3} {:>8} {:>8} {:>8}", "ID", "k_R=2", "k_R=6", "k_R=10");
    print_sweep(&sweep_k_r(runner), |r| r.2, &[2, 6, 10]);
}

/// Figure 12: impact of k_H on N_r.
fn fig12(runner: &Runner) {
    header("Figure 12: impact of k_H on route anonymity N_r (k_R=6)");
    println!("{:<3} {:>8} {:>8} {:>8}", "ID", "k_H=2", "k_H=4", "k_H=6");
    print_sweep(&sweep_k_h(runner), |r| r.2, &[2, 4, 6]);
}

/// Figure 13: impact of k_R on configuration utility U_C.
fn fig13(runner: &Runner) {
    header("Figure 13: impact of k_R on config utility U_C (k_H=2)");
    println!("{:<3} {:>8} {:>8} {:>8}", "ID", "k_R=2", "k_R=6", "k_R=10");
    print_sweep(&sweep_k_r(runner), |r| r.3, &[2, 6, 10]);
}

/// Figure 14: impact of k_H on U_C.
fn fig14(runner: &Runner) {
    header("Figure 14: impact of k_H on config utility U_C (k_R=6)");
    println!("{:<3} {:>8} {:>8} {:>8}", "ID", "k_H=2", "k_H=4", "k_H=6");
    print_sweep(&sweep_k_h(runner), |r| r.3, &[2, 4, 6]);
}

fn print_sweep(
    rows: &[(char, usize, f64, f64)],
    pick: impl Fn(&(char, usize, f64, f64)) -> f64,
    ks: &[usize],
) {
    let nets: Vec<char> = {
        let mut v: Vec<char> = rows.iter().map(|r| r.0).collect();
        v.dedup();
        v
    };
    let mut col_means = vec![Vec::new(); ks.len()];
    for net in nets {
        print!("{net:<3}");
        for (i, k) in ks.iter().enumerate() {
            let row = rows
                .iter()
                .find(|r| r.0 == net && r.1 == *k)
                .expect("sweep covers the grid");
            let v = pick(row);
            col_means[i].push(v);
            print!(" {v:>8.3}");
        }
        println!();
    }
    print!("avg");
    for c in &col_means {
        print!(" {:>8.3}", mean(c));
    }
    println!();
}

/// Figure 15: N_r vs U_C correlation over all sweep runs.
fn fig15(runner: &Runner) {
    header("Figure 15: route anonymity N_r vs config utility U_C (all sweep runs)");
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (_, _, nr, uc) in sweep_k_r(runner).into_iter().chain(sweep_k_h(runner)) {
        xs.push(nr);
        ys.push(uc);
    }
    for (x, y) in xs.iter().zip(&ys) {
        println!("N_r={x:.3} U_C={y:.3}");
    }
    match pearson(&xs, &ys) {
        Some(r) => println!("Pearson r = {r:.2} (paper: -0.36, loose negative correlation)"),
        None => println!("Pearson r undefined (degenerate sample)"),
    }
}

/// Figure 16: end-to-end running-time comparison.
fn fig16(runner: &Runner) {
    header("Figure 16: end-to-end running time — Strawman1 / Strawman2 / ConfMask, k_R=6 k_H=2");
    println!(
        "{:<3} {:>10} {:>10} {:>10}   (S2/CM slowdown)",
        "ID", "S1", "S2", "CM"
    );
    for net in runner.suite() {
        let mut secs = [0.0f64; 3];
        for (i, mode) in [
            EquivalenceMode::Strawman1,
            EquivalenceMode::Strawman2,
            EquivalenceMode::ConfMask,
        ]
        .iter()
        .enumerate()
        {
            let run = runner.run(RunKey {
                net: net.id,
                k_r: 6,
                k_h: 2,
                mode: *mode,
                seed: 0,
            });
            secs[i] = run.total_stage_time().as_secs_f64();
        }
        println!(
            "{:<3} {:>9.3}s {:>9.3}s {:>9.3}s   ({:.1}x)",
            net.id,
            secs[0],
            secs[1],
            secs[2],
            secs[1] / secs[2].max(1e-9)
        );
    }
}

/// Ablation of the §3.2 fake-link cost strategies (Figure 2b–2d turned
/// into measurements).
fn ablation(runner: &Runner) {
    use confmask::attacks::fake_link_camouflage;
    use confmask::{anonymize, CostStrategy, Params};
    header("Ablation: fake-link cost strategies (§3.2) — equivalence and camouflage");
    println!(
        "{:<3} {:<12} {:>12} {:>11} {:>10}",
        "ID", "strategy", "equivalence", "fake links", "camouflage"
    );
    let _ = runner;
    // OSPF-only networks (the §3.2 cost discussion is about link-state
    // metrics; BGP fake sessions carry no OSPF cost).
    let nets: Vec<(&str, confmask::NetworkConfigs)> = vec![
        ("ex4", confmask_netgen::smallnets::example_network()),
        (
            "wan",
            confmask_netgen::synthesize(&confmask_netgen::wan::wan_spec("abl", 16, 8, 32, 3)),
        ),
        (
            "ft4",
            confmask_netgen::synthesize(&confmask_netgen::fattree::fattree_spec(4)),
        ),
    ];
    for (id, configs) in &nets {
        for (label, strategy) in [
            ("default", CostStrategy::DefaultCost),
            ("large", CostStrategy::LargeCost),
            ("min-cost", CostStrategy::MinCost),
        ] {
            let params = Params {
                k_r: if *id == "ft4" { 10 } else { 6 },
                k_h: 4,
                cost_strategy: strategy,
                ..Params::default()
            };
            match anonymize(configs, &params) {
                Ok(r) => {
                    let cam = fake_link_camouflage(&r.final_sim, &r.fake_links);
                    println!(
                        "{:<3} {:<12} {:>12} {:>11} {:>9.0}%",
                        id,
                        label,
                        "holds",
                        r.fake_links.len(),
                        100.0 * cam
                    );
                }
                Err(e) => {
                    let kind = match e {
                        confmask::Error::EquivalenceViolated(_) => "VIOLATED",
                        confmask::Error::EquivalenceDiverged { .. } => "DIVERGED",
                        _ => "ERROR",
                    };
                    println!(
                        "{:<3} {:<12} {:>12} {:>11} {:>10}",
                        id, label, kind, "-", "-"
                    );
                }
            }
        }
    }
    println!("(default cost breaks route equivalence; large cost leaves dead links; min-cost does neither)");
}

/// De-anonymization attack outcomes (§5.4 privacy analysis), evaluated
/// for every registered strategy: the degree re-identification adversary
/// runs against each strategy's shared topology, so the table is a
/// three-way privacy comparison rather than a ConfMask-only report.
fn attacks(runner: &Runner) {
    use confmask::attacks::{degree_reidentification, detect_unified_filter_pattern};
    use confmask::{anonymize, anonymizer_for, EquivalenceMode, Params, Strategy};
    header("Attacks: degree re-identification (per strategy) and the Strawman-1 pattern");
    println!(
        "{:<3} {:>12} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "ID", "reid before", "CM", "NH", "NC", "S1 pattern", "CM pattern"
    );
    for net in runner.suite() {
        let run = runner.default_run(net.id);
        let orig = extract_topology(&net.configs);
        let before = degree_reidentification(&orig, &orig);
        let mut after = [0.0f64; 3];
        for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
            // The ConfMask run is the (cached) default run; the others go
            // through the trait with the same parameters.
            let shared = if strategy == Strategy::ConfMask {
                extract_topology(&run.configs)
            } else {
                let r = anonymizer_for(strategy)
                    .anonymize(&net.configs, &Params::new(6, 2))
                    .unwrap_or_else(|e| panic!("{strategy} on {}: {e}", net.id));
                extract_topology(&r.configs)
            };
            after[i] = degree_reidentification(&orig, &shared).expected_success();
        }
        let s1 = anonymize(
            &net.configs,
            &Params::default().with_mode(EquivalenceMode::Strawman1),
        )
        .expect("strawman1");
        let s1_hits = detect_unified_filter_pattern(&s1.configs).len();
        let cm_hits = detect_unified_filter_pattern(&run.configs).len();
        println!(
            "{:<3} {:>11.3} {:>9.3} {:>9.3} {:>9.3} {:>10} {:>10}",
            net.id,
            before.expected_success(),
            after[0],
            after[1],
            after[2],
            s1_hits,
            cm_hits
        );
    }
    println!(
        "(reid = adversary's expected success probability per strategy; \
         ConfMask must stay <= 1/k_R ~ 0.167)"
    );
}

/// The k = 2 resilience profile of one configuration set: the fraction of
/// `K2_FRONTIER_SAMPLE` seeded double-link failures that degrade no
/// reported pair beyond a reroute (no black hole, partition, or loop).
/// Streams through the incremental engine into a [`SweepSummary`] — only
/// the worst-class histogram is ever retained. `None` when the healthy
/// network fails to converge.
fn k2_clean_fraction(
    configs: &confmask_config::NetworkConfigs,
    real_hosts: Option<&std::collections::BTreeSet<String>>,
) -> Option<f64> {
    use confmask_sim::fault::{sample_double_link_failures, DegradationClass};
    use confmask_sim::SweepSummary;
    let engine = confmask_sim_delta::DeltaEngine::global();
    let conv = engine.converged(configs).ok()?;
    let baseline = match real_hosts {
        Some(hosts) => conv.sim.dataplane.restricted_to(hosts),
        None => conv.sim.dataplane.clone(),
    };
    let sweep = confmask_sim_delta::ScenarioSweep::new(engine, &conv, &baseline);
    let mut summary = SweepSummary::default();
    sweep.run(
        sample_double_link_failures(configs, 0, K2_FRONTIER_SAMPLE),
        &mut summary,
    );
    Some(summary.clean_fraction(DegradationClass::Rerouted))
}

/// Double-link scenarios sampled per network for the frontier's k = 2
/// resilience columns.
const K2_FRONTIER_SAMPLE: usize = 16;

/// Formats an optional clean fraction, `-` when simulation failed.
fn fmt_frac(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
}

/// The three-strategy privacy/utility/runtime frontier over the extended
/// suite (Table 2 plus FatTree(16) and the scaling WANs). Every strategy
/// is selected through the `Anonymizer` trait; per (net, strategy) the row
/// reports kept-path ratio, kept-spec ratio, degree re-identification
/// success, k = 2 resilience (original vs anonymized, via the streaming
/// fault sweep), and wall time.
fn frontier(quick: bool) {
    use confmask::attacks::degree_reidentification;
    use confmask::{anonymizer_for, Params, Strategy};
    header("Frontier: privacy / utility / runtime across strategies (k_R=6, k_H=2)");
    let suite = confmask_netgen::extended_suite();
    // Quick mode keeps CI affordable; the full run covers the scaling nets
    // the frontier exists for (I = FatTree16, J/K = large WANs).
    let ids: &[char] = if quick {
        &['A', 'B', 'G']
    } else {
        &['A', 'B', 'C', 'D', 'G', 'H', 'I', 'J', 'K']
    };
    println!(
        "{:<3} {:>4} {:<9} {:>10} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7} {:>10}",
        "ID", "|R|", "strategy", "kept-path", "kept-spec", "reid", "k2-orig", "k2-anon", "+R",
        "+E", "wall"
    );
    for id in ids {
        let Some(net) = suite.iter().find(|n| n.id == *id) else {
            continue;
        };
        let orig_topo = extract_topology(&net.configs);
        let orig_k2 = k2_clean_fraction(&net.configs, None);
        let mut orig_spec = None;
        for strategy in Strategy::ALL {
            let result = match anonymizer_for(strategy)
                .anonymize(&net.configs, &Params::new(6, 2))
            {
                Ok(r) => r,
                Err(e) => {
                    println!(
                        "{:<3} {:>4} {:<9} failed: {e}",
                        net.id,
                        net.configs.routers.len(),
                        strategy.name()
                    );
                    continue;
                }
            };
            let spec_base = orig_spec
                .get_or_insert_with(|| confmask_spec::mine(&result.baseline_dataplane));
            let anon_spec = confmask_spec::mine(&result.dataplane);
            let sd = confmask_spec::diff(spec_base, &anon_spec, &result.real_hosts);
            let reid =
                degree_reidentification(&orig_topo, &extract_topology(&result.configs));
            let anon_k2 = k2_clean_fraction(&result.configs, Some(&result.real_hosts));
            println!(
                "{:<3} {:>4} {:<9} {:>10.3} {:>10.3} {:>8.3} {:>8} {:>8} {:>7} {:>7} {:>9.1}s",
                net.id,
                net.configs.routers.len(),
                strategy.name(),
                result.kept_path_ratio(),
                sd.kept_ratio(),
                reid.expected_success(),
                fmt_frac(orig_k2),
                fmt_frac(anon_k2),
                result.fake_routers,
                result.fake_links,
                result.wall.as_secs_f64()
            );
        }
    }
    println!(
        "(kept-path = Fig 8 metric; kept-spec = Fig 9 metric; reid = degree \
         re-identification success; k2-orig/k2-anon = fraction of {K2_FRONTIER_SAMPLE} \
         sampled double-link failures degrading no pair beyond a reroute, original \
         vs anonymized real pairs; +R/+E = added routers/links; wall = one \
         anonymization run)"
    );
}

/// Table 3: added-line breakdown per network and parameter setting.
fn table3(runner: &Runner) {
    header("Table 3: # lines added by category (Appendix C)");
    println!(
        "{:<28} {:>9} {:>8} {:>9} {:>8} {:>7}",
        "Network, parameters", "protocol", "filter", "interface", "total", "U_C"
    );
    // The Table 3 grid: nets D (BICS), E (Columbus), B (≈CCNP), H
    // (FatTree-08) over the parameter grid, plus F (USCarrier) at defaults.
    let grid: Vec<(char, &str, usize, usize)> = vec![
        ('D', "BICS", 2, 2),
        ('D', "BICS", 6, 2),
        ('D', "BICS", 6, 4),
        ('D', "BICS", 10, 2),
        ('E', "Columbus", 2, 2),
        ('E', "Columbus", 6, 2),
        ('E', "Columbus", 6, 4),
        ('E', "Columbus", 10, 2),
        ('B', "CCNP", 2, 2),
        ('B', "CCNP", 6, 2),
        ('B', "CCNP", 6, 4),
        ('B', "CCNP", 10, 2),
        ('H', "FatTree-08", 2, 2),
        ('H', "FatTree-08", 6, 2),
        ('H', "FatTree-08", 6, 4),
        ('H', "FatTree-08", 10, 2),
        ('F', "USCarrier", 6, 2),
    ];
    for (id, name, k_r, k_h) in grid {
        if runner.network(id).is_none() {
            continue; // --quick mode skips large nets
        }
        let run = runner.run(RunKey {
            net: id,
            k_r,
            k_h,
            mode: EquivalenceMode::ConfMask,
            seed: 0,
        });
        let l = run.ledger;
        println!(
            "{:<28} {:>9} {:>8} {:>9} {:>8} {:>7.3}",
            format!("{name}, k_R={k_r}, k_H={k_h}"),
            l.protocol_lines,
            l.filter_lines,
            l.interface_lines + l.host_lines,
            run.configs.total_lines(),
            run.config_utility()
        );
    }
}
