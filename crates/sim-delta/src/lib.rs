//! Incremental simulation engine: a content-addressed cache of converged
//! simulations plus delta recomputation for fault perturbations.
//!
//! ConfMask's verification loop and the fault-scenario engine repeatedly
//! simulate networks that differ from an already-simulated baseline by one
//! or two administratively-shut interfaces. This crate makes those repeat
//! simulations cheap without ever changing their answers:
//!
//! * [`DeltaEngine::converged`] memoizes full simulations behind a stable
//!   structural hash of the configurations ([`hash::structural_hash`]),
//!   with an LRU bound and collision-proof equality checks. An entry holds
//!   the simulation, its control-plane state and its configs, nothing
//!   only a fault sweep reads: most converged networks are never swept.
//! * [`ScenarioSweep`] streams failure scenarios over a cached baseline.
//!   Each scenario resolves to the interfaces it shuts
//!   ([`confmask_sim::fault::FailureScenario::shutdowns`]), read off the
//!   cached configs without copying or mutating them; that list becomes a
//!   delta plan that recomputes only what it touched (see `delta`'s
//!   module docs for the per-protocol soundness argument). The sweep's
//!   pair index, built per sweep, is the reuse rule: the pairs it lists
//!   under the plan's changed lookups and moved hosts are re-traced
//!   straight off the plan and every other pair keeps its base path set,
//!   into a [`confmask_sim::ScenarioDigest`] byte-identical to the cold
//!   [`confmask_sim::fault::run_scenario`] digest. A scenario the planner
//!   declines falls back to the cold loop over a copy with the scenario
//!   applied, explicitly and observably (`sim.delta.full_fallbacks`).
//!
//! The engine is `Sync`; one [`DeltaEngine::global`] instance is shared
//! per process so the serve daemon's workers and a pipeline's retry
//! attempts hit the same cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod delta;
pub mod hash;
pub mod sweep;
mod warm;

#[cfg(test)]
#[path = "../../../tests/support/random_net.rs"]
mod random_net;

pub use cache::SimCache;
pub use sweep::ScenarioSweep;
pub use warm::WarmControlPlane;

use confmask_config::NetworkConfigs;
use confmask_sim::{ControlState, SimError, Simulation};
use std::sync::{Arc, OnceLock};

/// Default capacity of the per-process global cache: big enough for every
/// baseline a verification job juggles (original, anonymized, masked — per
/// concurrent job), small enough to bound memory on large networks.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// A converged simulation pinned to the exact configurations (and cache
/// key) that produced it.
#[derive(Debug, Clone)]
pub struct ConvergedSim {
    /// The structural hash of `configs` (the cache key).
    pub key: u128,
    /// The configurations that were simulated.
    pub configs: NetworkConfigs,
    /// The converged simulation result.
    pub sim: Simulation,
    /// The converged per-protocol control-plane state (delta inputs).
    pub state: ControlState,
}

/// What a delta plan reused versus recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DeltaStats {
    /// The scenario was not planned (an invariant check failed) and the
    /// cold loop classified it instead.
    pub full_fallback: bool,
    /// Destination prefixes in the network.
    pub ospf_prefixes_total: usize,
    /// Destination prefixes whose SPF re-ran.
    pub ospf_prefixes_recomputed: usize,
    /// Whether RIP warm-started from the cached fixpoint.
    pub rip_warm_started: bool,
    /// Whether the cached BGP routes were reused wholesale; `None` when no
    /// router speaks BGP, so there was nothing to reuse or recompute.
    pub bgp_reused: Option<bool>,
    /// Model routers shared with the base (an `Arc` clone).
    pub routers_shared: usize,
    /// Routers whose FIB was shared with the base (an `Arc` clone).
    pub fibs_shared: usize,
    /// Routers whose FIB was re-merged.
    pub fibs_merged: usize,
    /// Destination prefixes of re-merged FIBs that went through the
    /// per-prefix merge rule.
    pub fib_entries_merged: usize,
    /// FIB entries a patched table copied from the base, renumbered.
    pub fib_entries_copied: usize,
    /// Ordered host pairs in the network.
    pub pairs_total: usize,
    /// Ordered host pairs that were re-traced.
    pub pairs_recomputed: usize,
    /// Ordered host pairs the sweep visited; it credits the rest to
    /// `Unchanged` without looking at them.
    pub pairs_visited: usize,
    /// Re-traced pairs classified from their path set's shape alone.
    pub retraces_by_count: usize,
    /// Routers the re-traces resolved, summed over their destinations.
    pub dag_nodes: u64,
}

impl DeltaStats {
    pub(crate) fn full() -> Self {
        DeltaStats {
            full_fallback: true,
            ..DeltaStats::default()
        }
    }

    /// Fraction of per-prefix SPFs and per-pair traces that re-ran: 1.0
    /// for a full fallback, the recomputed share of both otherwise.
    fn recompute_fraction(&self) -> f64 {
        if self.full_fallback {
            return 1.0;
        }
        let done = self.ospf_prefixes_recomputed + self.pairs_recomputed;
        let total = (self.ospf_prefixes_total + self.pairs_total).max(1);
        done as f64 / total as f64
    }
}

/// The incremental simulation engine: the cache of converged baselines
/// that [`ScenarioSweep`]s plan their deltas against.
pub struct DeltaEngine {
    cache: SimCache,
}

static GLOBAL: OnceLock<DeltaEngine> = OnceLock::new();

impl DeltaEngine {
    /// Creates an engine with its own cache of the given capacity.
    pub fn new(capacity: usize) -> Self {
        DeltaEngine {
            cache: SimCache::new(capacity),
        }
    }

    /// The per-process shared engine ([`DEFAULT_CACHE_CAPACITY`] entries).
    pub fn global() -> &'static DeltaEngine {
        GLOBAL.get_or_init(|| DeltaEngine::new(DEFAULT_CACHE_CAPACITY))
    }

    /// Number of cached converged simulations.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Simulates `configs` (or returns the cached converged simulation).
    ///
    /// The simulation runs *outside* the cache lock, so concurrent workers
    /// converging different networks do not serialize; two workers racing
    /// on the same network at worst both simulate it (last insert wins —
    /// both results are identical by determinism).
    pub fn converged(&self, configs: &NetworkConfigs) -> Result<Arc<ConvergedSim>, SimError> {
        let key = hash::structural_hash(configs);
        if let Some(hit) = self.cache.get(key, configs) {
            return Ok(hit);
        }
        let (sim, state) = confmask_sim::simulate_with_state(configs)?;
        let converged = Arc::new(ConvergedSim {
            key,
            configs: configs.clone(),
            sim,
            state,
        });
        self.cache.insert(Arc::clone(&converged));
        Ok(converged)
    }
}

/// Records one swept scenario's [`DeltaStats`] into the `sim.delta.*`
/// metrics.
pub(crate) fn record_stats(stats: &DeltaStats) {
    if stats.full_fallback {
        confmask_obs::counter_add("sim.delta.full_fallbacks", 1);
    }
    if stats.rip_warm_started {
        confmask_obs::counter_add("sim.delta.rip_warm_starts", 1);
    }
    if let Some(reused) = stats.bgp_reused {
        confmask_obs::counter_add(
            if reused {
                "sim.delta.bgp_reuses"
            } else {
                "sim.delta.bgp_recomputes"
            },
            1,
        );
    }
    confmask_obs::counter_add(
        "sim.delta.ospf_prefixes_recomputed",
        stats.ospf_prefixes_recomputed as u64,
    );
    confmask_obs::counter_add(
        "sim.delta.ospf_prefixes_reused",
        (stats.ospf_prefixes_total - stats.ospf_prefixes_recomputed) as u64,
    );
    confmask_obs::counter_add("sim.delta.routers_shared", stats.routers_shared as u64);
    confmask_obs::counter_add("sim.delta.fibs_shared", stats.fibs_shared as u64);
    confmask_obs::counter_add("sim.delta.fibs_merged", stats.fibs_merged as u64);
    confmask_obs::counter_add(
        "sim.delta.fib_entries_merged",
        stats.fib_entries_merged as u64,
    );
    confmask_obs::counter_add(
        "sim.delta.fib_entries_copied",
        stats.fib_entries_copied as u64,
    );
    confmask_obs::counter_add("sim.delta.pairs_recomputed", stats.pairs_recomputed as u64);
    confmask_obs::counter_add(
        "sim.delta.pairs_reused",
        (stats.pairs_total - stats.pairs_recomputed) as u64,
    );
    confmask_obs::counter_add("sim.delta.pairs_visited", stats.pairs_visited as u64);
    confmask_obs::counter_add(
        "sim.delta.retraces_by_count",
        stats.retraces_by_count as u64,
    );
    confmask_obs::counter_add("sim.delta.dag_nodes", stats.dag_nodes);
    confmask_obs::observe(
        "sim.delta.recompute_fraction_pct",
        (stats.recompute_fraction() * 100.0).round() as u64,
    );
}

/// Registers every `sim.*`, `sim.cache.*`, and `sim.delta.*` metric at
/// zero so the metric set is stable from process start (same
/// register-at-zero rule the rest of the pipeline follows): scrapes and
/// reports see the keys before the first simulation, and a cache that is
/// never hit still exports `sim.cache.hits 0` rather than omitting the
/// series.
pub fn register_metrics() {
    confmask_sim::register_metrics();
    for name in [
        "sim.cache.hits",
        "sim.cache.misses",
        "sim.cache.evictions",
        "sim.delta.sims",
        "sim.delta.full_fallbacks",
        "sim.delta.rip_warm_starts",
        "sim.delta.bgp_reuses",
        "sim.delta.bgp_recomputes",
        "sim.delta.ospf_prefixes_recomputed",
        "sim.delta.ospf_prefixes_reused",
        "sim.delta.routers_shared",
        "sim.delta.fibs_shared",
        "sim.delta.fibs_merged",
        "sim.delta.fib_entries_merged",
        "sim.delta.fib_entries_copied",
        "sim.delta.pairs_recomputed",
        "sim.delta.pairs_reused",
        "sim.delta.pairs_visited",
        "sim.delta.retraces_by_count",
        "sim.delta.dag_nodes",
        "sim.warm.refreshes",
        "sim.warm.full_fallbacks",
    ] {
        confmask_obs::counter_add(name, 0);
    }
    confmask_obs::gauge_set("sim.cache.entries", 0.0);
    confmask_obs::histogram_register("sim.delta.recompute_fraction_pct");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Plan;
    use crate::random_net::{add_static_routes, random_spec};
    use confmask_config::{parse_router, HostConfig};
    use confmask_net_types::{HostId, RouterId};
    use confmask_netgen::synthesize;
    use confmask_sim::dataplane::trace;
    use confmask_sim::fault::{enumerate_single_link_failures, FailureScenario, Fault};
    use confmask_sim::{
        merge_router_fib, simulate_with_state, FibBuilder, NextHop, RouteSource, Rows,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn host(name: &str, addr: &str, gw: &str) -> HostConfig {
        HostConfig {
            hostname: name.into(),
            iface_name: "eth0".into(),
            address: (addr.parse().unwrap(), 24),
            gateway: gw.parse().unwrap(),
            extra: vec![],
            added: false,
        }
    }

    /// Triangle r1–r2–r3 (all OSPF), hosts on r1 and r2.
    fn triangle() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.12.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.13.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.1.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.12.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.2.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.2.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r3 = parse_router(
            "hostname r3\n!\ninterface Ethernet0/0\n ip address 10.0.13.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.1 255.255.255.254\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n!\n",
        )
        .unwrap();
        NetworkConfigs::new(
            [r1, r2, r3],
            [
                host("h1", "10.1.1.100", "10.1.1.1"),
                host("h2", "10.1.2.100", "10.1.2.1"),
            ],
        )
    }

    /// Checks a plan against a cold simulation of the same failed configs:
    /// every router's FIB entry by entry, every re-merged router's FIB
    /// against a full [`merge_router_fib`] of the plan's model over the
    /// cold protocol state, every pair `sweep` (over the base's own data
    /// plane) leaves clean against its cold path set, and every pair it
    /// marks dirty by its re-trace over the plan. Returns how many pairs
    /// are dirty.
    fn assert_plan_matches(
        tag: &str,
        base: &ConvergedSim,
        sweep: &ScenarioSweep,
        plan: &Plan,
        (cold, state): &(Simulation, ControlState),
    ) -> usize {
        let dirty = sweep.dirty(plan);
        assert_eq!(
            plan.fibs.per_router.len(),
            cold.fibs.per_router.len(),
            "{tag}: router count"
        );
        let fibs = plan.fibs.per_router.iter().zip(&cold.fibs.per_router);
        for (r, (fp, fc)) in fibs.enumerate() {
            assert_eq!(
                fp.entries().collect::<Vec<_>>(),
                fc.entries().collect::<Vec<_>>(),
                "{tag}: FIB of router #{r} differs"
            );
            if Arc::ptr_eq(fp, &base.sim.fibs.per_router[r]) {
                continue;
            }
            let full = merge_router_fib(
                &plan.net,
                RouterId(r as u32),
                state.ospf_routes.of(RouterId(r as u32)),
                &state.rip_routes,
                &state.bgp_routes,
            );
            assert_eq!(
                **fp, full,
                "{tag}: re-merged FIB of router #{r} differs from a full merge"
            );
        }
        let (base_dp, cold_dp) = (&base.sim.dataplane, &cold.dataplane);
        assert_eq!(base_dp.hosts(), cold_dp.hosts(), "{tag}: host table");
        assert_eq!(base_dp.routers(), cold_dp.routers(), "{tag}: router table");
        assert_eq!(base_dp.len(), cold_dp.len(), "{tag}: pair count");
        for (idx, ((key, cached), (cold_key, want))) in
            base_dp.entries().iter().zip(cold_dp.entries()).enumerate()
        {
            assert_eq!(key, cold_key, "{tag}: pair order");
            if dirty.get(idx) {
                let (si, di) = *key;
                let got = trace(&plan.net, &plan.fibs, HostId(si), HostId(di));
                assert_eq!(&got, &**want, "{tag}: dirty pair {key:?} differs");
            } else {
                assert_eq!(cached, want, "{tag}: clean pair {key:?} differs");
            }
        }
        dirty.count_ones()
    }

    /// Plans shutting `shut` against `base`, as a sweep over the base's own
    /// data plane does.
    fn plan_for(
        base: &ConvergedSim,
        shut: &[(String, usize)],
    ) -> Result<Option<Plan>, SimError> {
        let engine = DeltaEngine::new(1);
        ScenarioSweep::new(&engine, base, &base.sim.dataplane).plan(shut)
    }

    /// Applies `scenario` to the base configs: the failed configs and the
    /// interfaces it shuts.
    fn resolve(
        base: &ConvergedSim,
        scenario: &FailureScenario,
    ) -> (NetworkConfigs, Vec<(String, usize)>) {
        let failed = scenario.apply(&base.configs).expect("fault applies");
        let shut = scenario.shutdowns(&base.configs).expect("fault resolves");
        (failed, shut)
    }

    /// Plans `scenario`, which must be plannable, and checks the plan
    /// against a cold simulation; returns it with its dirty pair count.
    fn planned_as_cold(base: &ConvergedSim, scenario: &FailureScenario) -> (Plan, usize) {
        let tag = scenario.to_string();
        let (failed, shut) = resolve(base, scenario);
        let engine = DeltaEngine::new(1);
        let sweep = ScenarioSweep::new(&engine, base, &base.sim.dataplane);
        let plan = sweep
            .plan(&shut)
            .unwrap()
            .unwrap_or_else(|| panic!("{tag}: shutdowns must plan"));
        let cold = simulate_with_state(&failed).unwrap();
        let dirty = assert_plan_matches(&tag, base, &sweep, &plan, &cold);
        (plan, dirty)
    }

    fn link_down(a: &str, b: &str) -> FailureScenario {
        FailureScenario::single(Fault::LinkDown {
            a: a.into(),
            b: b.into(),
            added: false,
        })
    }

    #[test]
    fn converged_caches_by_content() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let a = engine.converged(&cfgs).unwrap();
        let b = engine.converged(&cfgs.clone()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must be a cache hit");
        assert_eq!(engine.cached(), 1);
    }

    /// The plan's byte-identity contract on random networks across protocol
    /// flavors (OSPF, RIP, two-AS BGP+OSPF), each also with static routes
    /// added (a static loop among them): for every k = 1 link failure
    /// plus two router-down faults, the plan's FIBs, the sweep's clean pairs
    /// and its re-traced dirty pairs equal a cold `simulate()` of the failed
    /// configs, and both report the same error when simulation fails.
    /// `DELTA_DIFF_SEEDS` sets how many networks are generated (default 8;
    /// CI runs more).
    #[test]
    fn plan_matches_cold_simulation_on_random_networks() {
        let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(8);
        let mut networks_checked = 0u64;
        let mut scenarios_checked = 0u64;
        let (mut entries_merged, mut entries_copied) = (0, 0);
        let mut unclean_retraced = 0;
        for i in 0..seeds {
            let mut rng = StdRng::seed_from_u64(0xD1FF_0000 ^ i);
            let flavor = (i % 3) as u8;
            let plain = synthesize(&random_spec(&mut rng, flavor));
            let mut with_statics = plain.clone();
            add_static_routes(&mut rng, &mut with_statics);
            for (variant, configs) in [("", plain), (" + static routes", with_statics)] {
                let engine = DeltaEngine::new(4);
                // An unsimulatable healthy network is a generator artifact
                // (e.g. a BGP split isolating hosts), not a planning case:
                // skip it.
                let Ok(base) = engine.converged(&configs) else {
                    continue;
                };
                networks_checked += 1;
                let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
                let mut scenarios = enumerate_single_link_failures(&configs);
                for router in configs.routers.keys().take(2) {
                    scenarios.push(FailureScenario::single(Fault::RouterDown {
                        router: router.clone(),
                    }));
                }
                for scenario in scenarios {
                    let tag = format!("seed {i} flavor {flavor}{variant}: {scenario}");
                    let (failed, shut) = resolve(&base, &scenario);
                    scenarios_checked += 1;
                    match (simulate_with_state(&failed), sweep.plan(&shut)) {
                        (Ok(cold), Ok(Some(plan))) => {
                            assert_plan_matches(&tag, &base, &sweep, &plan, &cold);
                            entries_merged += plan.stats.fib_entries_merged;
                            entries_copied += plan.stats.fib_entries_copied;
                            let dirty = sweep.dirty(&plan);
                            let entries = base.sim.dataplane.entries().iter();
                            unclean_retraced += entries
                                .enumerate()
                                .filter(|(idx, (_, set))| dirty.get(*idx) && !set.clean())
                                .count();
                        }
                        // Post-failure divergence (e.g. BGP oscillation)
                        // must be reported identically by both.
                        (Err(cold), Err(plan)) => {
                            assert_eq!(cold.to_string(), plan.to_string(), "{tag}: error mismatch")
                        }
                        (cold, plan) => panic!(
                            "{tag}: outcome mismatch — cold {:?} vs plan {:?}",
                            cold.map(|_| "ok").map_err(|e| e.to_string()),
                            plan.map(|p| if p.is_some() { "planned" } else { "declined" })
                                .map_err(|e| e.to_string()),
                        ),
                    }
                }
            }
        }
        assert!(networks_checked > 0, "every network was degenerate");
        assert!(scenarios_checked > 0);
        // Both FIB paths ran (patched tables copied entries, and the rule
        // re-merged some), and pairs the base forwards uncleanly (the
        // static loops) were re-traced.
        assert!(entries_merged > 0 && entries_copied > 0);
        assert!(unclean_retraced > 0, "no unclean pair was re-traced");
        eprintln!(
            "plan-diff: {scenarios_checked} scenario(s) across {networks_checked} network(s), \
             zero mismatches; FIB entries merged {entries_merged}, copied {entries_copied}; \
             {unclean_retraced} unclean pair(s) re-traced"
        );
    }

    #[test]
    fn a_network_without_bgp_counts_no_bgp_reuse_or_recompute() {
        confmask_obs::set_enabled(true);
        let counter = |name| confmask_obs::report().counter(name).unwrap_or(0);
        let sims = counter("sim.delta.sims");
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        for scenario in enumerate_single_link_failures(&cfgs) {
            let (_, shut) = resolve(&base, &scenario);
            let plan = sweep.plan(&shut).unwrap().unwrap();
            assert_eq!(plan.stats.bgp_reused, None, "{scenario}");
            sweep.digest(&scenario).unwrap();
        }
        assert!(counter("sim.delta.sims") >= sims + 3);
        // No test in this crate sweeps a BGP network, so neither counter
        // may move.
        assert_eq!(counter("sim.delta.bgp_reuses"), 0);
        assert_eq!(counter("sim.delta.bgp_recomputes"), 0);
    }

    #[test]
    fn every_single_link_failure_matches_cold_simulation() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        for scenario in enumerate_single_link_failures(&cfgs) {
            planned_as_cold(&base, &scenario);
        }
    }

    /// Square r1–r2–r4–r3–r1 (all OSPF, unit costs), hosts on r1 and r4:
    /// r1 reaches h4's LAN over two equal-cost paths.
    fn square() -> NetworkConfigs {
        let router = |name: &str, links: &[&str], lan: Option<&str>| {
            let mut text = format!("hostname {name}\n!\n");
            for (i, addr) in links.iter().enumerate() {
                text += &format!(
                    "interface Ethernet0/{i}\n ip address {addr} 255.255.255.254\n ip ospf cost 1\n!\n"
                );
            }
            if let Some(lan) = lan {
                text += &format!("interface Ethernet1/0\n ip address {lan} 255.255.255.0\n!\n");
            }
            text += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.0.0 0.0.255.255 area 0\n!\n";
            parse_router(&text).unwrap()
        };
        NetworkConfigs::new(
            [
                router("r1", &["10.0.12.0", "10.0.13.0"], Some("10.1.1.1")),
                router("r2", &["10.0.12.1", "10.0.24.0"], None),
                router("r3", &["10.0.13.1", "10.0.34.0"], None),
                router("r4", &["10.0.24.1", "10.0.34.1"], Some("10.1.4.1")),
            ],
            [
                host("h1", "10.1.1.100", "10.1.1.1"),
                host("h4", "10.1.4.100", "10.1.4.1"),
            ],
        )
    }

    #[test]
    fn a_failure_that_keeps_every_distance_needs_no_spf() {
        let engine = DeltaEngine::new(4);
        let cfgs = square();
        let base = engine.converged(&cfgs).unwrap();
        let (plan, _) = planned_as_cold(&base, &link_down("r1", "r2"));
        // Toward h4, r1 keeps its distance over r3 and only its own row
        // changes; toward h1, r2 loses its only shortest path, so that
        // prefix alone takes a fresh SPF.
        let stats = plan.stats;
        assert_eq!(
            (stats.ospf_prefixes_recomputed, stats.ospf_prefixes_total),
            (1, 2)
        );
    }

    #[test]
    fn a_cached_row_through_a_removed_interface_declines_the_plan() {
        // r1–r3 costs 100 and carries no shortest path, so failing it
        // recomputes nothing, and r1 and r3 merge from their cached rows.
        let engine = DeltaEngine::new(4);
        let mut cfgs = triangle();
        cfgs.routers.get_mut("r1").unwrap().interfaces[1].ospf_cost = Some(100);
        cfgs.routers.get_mut("r3").unwrap().interfaces[0].ospf_cost = Some(100);
        let base = engine.converged(&cfgs).unwrap();
        let scenario = link_down("r1", "r3");
        let (plan, _) = planned_as_cold(&base, &scenario);
        assert_eq!(plan.stats.ospf_prefixes_recomputed, 0);
        // Corrupt r1's cached rows with a hop out of its removed
        // Ethernet0/1: toward h2's LAN, a row the merge reads, and toward
        // r1's own LAN, a row its connected route shadows. Either breaks
        // the invariant the plan leans on, so either declines.
        let (_, shut) = resolve(&base, &scenario);
        let net = &base.sim.net;
        let r1 = net.router_id("r1").unwrap().0 as usize;
        let r3 = net.router_id("r3").unwrap();
        for lan in ["10.1.2.0/24", "10.1.1.0/24"] {
            let at = net.destination_index(&lan.parse().unwrap()).unwrap();
            let mut corrupt = ConvergedSim::clone(&base);
            let table = &mut corrupt.state.ospf_routes.per_router[r1];
            let mut rows = Rows::default();
            for d in 0..net.destinations.len() {
                match d == at {
                    true => rows.push([(1, r3)]),
                    false => rows.push(table.row(d).iter().copied()),
                }
            }
            *table = Arc::new(rows);
            assert!(plan_for(&corrupt, &shut).unwrap().is_none(), "{lan}");
        }
        // The same break in r1's base FIB, whose entries r1's patched
        // table copies: the copy fails to renumber and declines too.
        assert_eq!(plan.stats.fib_entries_copied, 4, "both tables patched");
        let mut corrupt = ConvergedSim::clone(&base);
        let fib = Arc::make_mut(&mut corrupt.sim.fibs.per_router[r1]);
        let mut edited = FibBuilder::default();
        for e in fib.entries() {
            edited.push(e.prefix, e.source, e.next_hops.iter().copied());
        }
        let hop = NextHop::Forward {
            via_iface: 1,
            router: r3,
            session_peer: None,
        };
        edited.push("10.1.2.0/24".parse().unwrap(), RouteSource::Ospf, [hop]);
        *fib = edited.build();
        assert!(plan_for(&corrupt, &shut).unwrap().is_none());
    }

    #[test]
    fn router_down_only_recomputes_touched_state() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let r3_down = FailureScenario::single(Fault::RouterDown {
            router: "r3".into(),
        });
        let (_, dirty) = planned_as_cold(&base, &r3_down);
        // r3 carries no baseline traffic between h1 and h2 and hosts no
        // LAN: the h1↔h2 pairs reuse their cached traces.
        assert!(dirty < base.sim.dataplane.len());
    }

    #[test]
    fn unchanged_router_fibs_are_shared_not_copied() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let (plan, _) = planned_as_cold(&base, &link_down("r1", "r2"));
        // r1 and r2 lose an interface and re-merge; r3 keeps its routes
        // to both LANs and shares the baseline's table.
        let stats = plan.stats;
        assert_eq!((stats.fibs_shared, stats.fibs_merged), (1, 2));
        let shared: Vec<bool> = (0..3)
            .map(|r| Arc::ptr_eq(&plan.fibs.per_router[r], &base.sim.fibs.per_router[r]))
            .collect();
        assert_eq!(shared, [false, false, true]);
    }

    #[test]
    fn plan_declines_unknown_routers() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let down = link_down("r1", "r2").apply(&cfgs).unwrap();
        let down_base = engine.converged(&down).unwrap();
        let shut = |router: &str| [(router.to_string(), 0)];
        // A router the base lacks cannot lose an interface: the planner
        // declines rather than guess.
        assert!(plan_for(&down_base, &shut("r9")).unwrap().is_none());
        // r1's Ethernet0/0 is already down, so the base model lacks it and
        // shutting it again removes nothing.
        let plan = plan_for(&down_base, &shut("r1")).unwrap().unwrap();
        assert_eq!(plan.net, *down_base.sim.net);
        assert_eq!(plan.stats.fibs_merged, 0);
    }

    #[test]
    fn evicted_simulations_are_freed() {
        let engine = DeltaEngine::new(1);
        let a = triangle();
        let mut b = triangle();
        b.routers.get_mut("r1").unwrap().interfaces[0].ospf_cost = Some(2);
        let weak = Arc::downgrade(&engine.converged(&a).unwrap());
        engine.converged(&b).unwrap(); // evicts a, dropped after unlock
        assert!(
            weak.upgrade().is_none(),
            "the cache held the last reference"
        );
        assert_eq!(engine.cached(), 1);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let engine = DeltaEngine::new(2);
        let a = triangle();
        let mut b = triangle();
        b.routers.get_mut("r1").unwrap().interfaces[0].ospf_cost = Some(2);
        let mut c = triangle();
        c.routers.get_mut("r1").unwrap().interfaces[0].ospf_cost = Some(4);
        engine.converged(&a).unwrap();
        engine.converged(&b).unwrap();
        engine.converged(&a).unwrap(); // refresh a
        engine.converged(&c).unwrap(); // evicts b
        assert_eq!(engine.cached(), 2);
        let before = engine.cached();
        engine.converged(&a).unwrap(); // still cached: no growth
        assert_eq!(engine.cached(), before);
    }
}
