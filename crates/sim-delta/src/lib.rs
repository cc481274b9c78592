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
//!   with an LRU bound and collision-proof equality checks.
//! * [`DeltaEngine::simulate_perturbed`] re-simulates a perturbed copy of
//!   a cached baseline, recomputing only what the perturbation touched —
//!   see [`delta`]'s module docs for the per-protocol soundness argument.
//!   Results are **byte-identical** to a cold [`confmask_sim::simulate`]:
//!   any perturbation outside the supported class falls back to a full
//!   simulation, explicitly and observably (`sim.delta.full_fallbacks`).
//! * [`ScenarioSweep`] streams failure scenarios over a cached baseline,
//!   classifying each one straight off the delta plan into a
//!   [`confmask_sim::ScenarioDigest`].
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

pub use cache::SimCache;
pub use sweep::ScenarioSweep;

use confmask_config::NetworkConfigs;
use confmask_net_types::{Ipv4Prefix, RouterId};
use confmask_sim::{ControlState, PathSet, SimError, Simulation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Per (host, router): the FIB prefix the router's longest-prefix
    /// match resolves that host's address to (`None` = no route).
    /// Precomputed once so every delta run can tell which lookups a
    /// perturbation changed without re-running longest-prefix matches.
    pub host_match: Vec<Vec<Option<Ipv4Prefix>>>,
    /// Per data-plane pair (in
    /// [`DataPlane::entries`](confmask_sim::DataPlane::entries) order): an
    /// index into `on_path`, or [`NO_META`] for a walk whose shape the
    /// recorded paths do not fully determine (blackholed, looping, empty,
    /// or ECMP-truncated). Precomputed from the id paths so delta runs test
    /// pair reusability against a bool mask instead of re-walking paths.
    pub(crate) pair_meta: Vec<u32>,
    /// Per distinct path set with reuse metadata: the deduped router ids
    /// its recorded paths traverse.
    pub(crate) on_path: Vec<Box<[u32]>>,
    /// Process-unique id, the identity key of a sweep worker's
    /// [`ScenarioScratch`] (never reused, unlike a structural hash).
    pub(crate) uid: u64,
}

static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// [`ConvergedSim::pair_meta`]'s marker for a pair without reuse metadata.
pub(crate) const NO_META: u32 = u32::MAX;

/// What a delta simulation reused versus recomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaStats {
    /// The perturbation was unsupported (or an invariant check failed) and
    /// a full cold simulation ran instead.
    pub full_fallback: bool,
    /// The perturbed configs were identical to the base; the cached
    /// simulation was returned as-is.
    pub identical: bool,
    /// Destination prefixes in the network.
    pub ospf_prefixes_total: usize,
    /// Destination prefixes whose SPF re-ran.
    pub ospf_prefixes_recomputed: usize,
    /// Whether RIP warm-started from the cached fixpoint.
    pub rip_warm_started: bool,
    /// Whether the cached BGP routes were reused wholesale; `None` when no
    /// router speaks BGP, so there was nothing to reuse or recompute.
    pub bgp_reused: Option<bool>,
    /// Routers whose FIB was shared with the base (an `Arc` clone).
    pub fibs_shared: usize,
    /// Routers whose FIB was re-merged.
    pub fibs_merged: usize,
    /// Ordered host pairs in the network.
    pub pairs_total: usize,
    /// Ordered host pairs that were re-traced.
    pub pairs_recomputed: usize,
}

impl DeltaStats {
    pub(crate) fn identical() -> Self {
        DeltaStats {
            full_fallback: false,
            identical: true,
            ospf_prefixes_total: 0,
            ospf_prefixes_recomputed: 0,
            rip_warm_started: false,
            bgp_reused: None,
            fibs_shared: 0,
            fibs_merged: 0,
            pairs_total: 0,
            pairs_recomputed: 0,
        }
    }

    pub(crate) fn full() -> Self {
        DeltaStats {
            full_fallback: true,
            identical: false,
            ospf_prefixes_total: 0,
            ospf_prefixes_recomputed: 0,
            rip_warm_started: false,
            bgp_reused: None,
            fibs_shared: 0,
            fibs_merged: 0,
            pairs_total: 0,
            pairs_recomputed: 0,
        }
    }

    /// Fraction of per-prefix SPFs and per-pair traces that re-ran:
    /// 0.0 for an identical reuse, 1.0 for a full fallback, in between
    /// for a genuine delta.
    pub fn recompute_fraction(&self) -> f64 {
        if self.full_fallback {
            return 1.0;
        }
        if self.identical {
            return 0.0;
        }
        let done = self.ospf_prefixes_recomputed + self.pairs_recomputed;
        let total = (self.ospf_prefixes_total + self.pairs_total).max(1);
        done as f64 / total as f64
    }
}

/// Reusable per-worker scratch for [`ScenarioSweep`]: one baseline's configs,
/// kept around so consecutive scenarios against the same baseline apply
/// and revert shutdown flags in place instead of cloning the full
/// [`NetworkConfigs`] each time. Keyed by [`ConvergedSim`]'s
/// process-unique id. Purely a cache: it never influences results, so
/// parallel sweeps handing each worker its own scratch stay
/// byte-identical to a sequential run.
#[derive(Default)]
pub struct ScenarioScratch(Option<(u64, NetworkConfigs)>);

/// The incremental simulation engine: a simulation cache plus the delta
/// recomputation entry points.
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
        let host_match = sim
            .net
            .hosts_iter()
            .map(|(_, h)| {
                (0..sim.net.router_count())
                    .map(|r| {
                        sim.fibs
                            .of(RouterId(r as u32))
                            .lookup(h.addr)
                            .map(|e| e.prefix)
                    })
                    .collect()
            })
            .collect();
        // Reuse metadata is a function of the path set alone, so it is
        // computed once per shared set (every source behind one gateway
        // shares its set toward a destination).
        let mut meta_of: HashMap<*const PathSet, u32> = HashMap::new();
        let mut on_path: Vec<Box<[u32]>> = Vec::new();
        let pair_meta = sim
            .dataplane
            .entries()
            .iter()
            .map(|(_, ps)| {
                if ps.blackhole
                    || ps.has_loop
                    || ps.path_count() == 0
                    || ps.path_count() >= confmask_sim::dataplane::MAX_PATHS_PER_PAIR
                {
                    return NO_META;
                }
                *meta_of.entry(Arc::as_ptr(ps)).or_insert_with(|| {
                    let mut ids: Vec<u32> = ps.paths().flatten().map(|r| r.0).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    on_path.push(ids.into());
                    (on_path.len() - 1) as u32
                })
            })
            .collect();
        let converged = Arc::new(ConvergedSim {
            key,
            configs: configs.clone(),
            sim,
            state,
            host_match,
            pair_meta,
            on_path,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
        });
        self.cache.insert(Arc::clone(&converged));
        Ok(converged)
    }

    /// Simulates a perturbed copy of a cached baseline, incrementally where
    /// the perturbation allows it. The returned [`Simulation`] is
    /// byte-identical to `simulate(perturbed)`; [`DeltaStats`] reports what
    /// was reused.
    pub fn simulate_perturbed(
        &self,
        base: &ConvergedSim,
        perturbed: &NetworkConfigs,
    ) -> Result<(Simulation, DeltaStats), SimError> {
        let sp = confmask_obs::span("sim.delta.sim");
        confmask_obs::counter_add("sim.delta.sims", 1);
        let (sim, stats) = delta::simulate_delta(base, perturbed)?;
        sp.finish();
        record_stats(&stats);
        Ok((sim, stats))
    }
}

/// Records one delta simulation's [`DeltaStats`] into the `sim.delta.*`
/// metrics — shared by [`DeltaEngine::simulate_perturbed`] and the
/// streaming digest path, so both report reuse identically.
pub(crate) fn record_stats(stats: &DeltaStats) {
    if stats.full_fallback {
        confmask_obs::counter_add("sim.delta.full_fallbacks", 1);
    }
    if stats.identical {
        confmask_obs::counter_add("sim.delta.identical_reuses", 1);
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
    confmask_obs::counter_add("sim.delta.fibs_shared", stats.fibs_shared as u64);
    confmask_obs::counter_add("sim.delta.fibs_merged", stats.fibs_merged as u64);
    confmask_obs::counter_add("sim.delta.pairs_recomputed", stats.pairs_recomputed as u64);
    confmask_obs::counter_add(
        "sim.delta.pairs_reused",
        (stats.pairs_total - stats.pairs_recomputed) as u64,
    );
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
        "sim.delta.identical_reuses",
        "sim.delta.rip_warm_starts",
        "sim.delta.bgp_reuses",
        "sim.delta.bgp_recomputes",
        "sim.delta.ospf_prefixes_recomputed",
        "sim.delta.ospf_prefixes_reused",
        "sim.delta.fibs_shared",
        "sim.delta.fibs_merged",
        "sim.delta.pairs_recomputed",
        "sim.delta.pairs_reused",
    ] {
        confmask_obs::counter_add(name, 0);
    }
    confmask_obs::gauge_set("sim.cache.entries", 0.0);
    confmask_obs::histogram_register("sim.delta.recompute_fraction_pct");
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_config::{parse_router, HostConfig};
    use confmask_sim::fault::{enumerate_single_link_failures, FailureScenario, Fault};
    use confmask_sim::simulate;

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

    fn assert_sims_equal(a: &Simulation, b: &Simulation) {
        assert_eq!(a.fibs.per_router.len(), b.fibs.per_router.len());
        for (fa, fb) in a.fibs.per_router.iter().zip(b.fibs.per_router.iter()) {
            assert_eq!(
                fa.entries().collect::<Vec<_>>(),
                fb.entries().collect::<Vec<_>>()
            );
        }
        assert_eq!(a.dataplane, b.dataplane);
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

    #[test]
    fn identical_perturbation_reuses_wholesale() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let (sim, stats) = engine.simulate_perturbed(&base, &cfgs).unwrap();
        assert!(stats.identical);
        assert_eq!(stats.recompute_fraction(), 0.0);
        assert_sims_equal(&sim, &base.sim);
    }

    #[test]
    fn a_network_without_bgp_counts_no_bgp_reuse_or_recompute() {
        confmask_obs::set_enabled(true);
        let counter = |name| confmask_obs::report().counter(name).unwrap_or(0);
        let sims = counter("sim.delta.sims");
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        for scenario in enumerate_single_link_failures(&cfgs) {
            let failed = scenario.apply(&cfgs).unwrap();
            let (_, stats) = engine.simulate_perturbed(&base, &failed).unwrap();
            assert_eq!(stats.bgp_reused, None, "{scenario}");
        }
        assert!(counter("sim.delta.sims") >= sims + 3);
        // No test in this crate simulates a BGP network, so neither
        // counter may move.
        assert_eq!(counter("sim.delta.bgp_reuses"), 0);
        assert_eq!(counter("sim.delta.bgp_recomputes"), 0);
    }

    #[test]
    fn every_single_link_failure_matches_cold_simulation() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        for scenario in enumerate_single_link_failures(&cfgs) {
            let failed = scenario.apply(&cfgs).unwrap();
            let cold = simulate(&failed).unwrap();
            let (deltaed, stats) = engine.simulate_perturbed(&base, &failed).unwrap();
            assert!(
                !stats.full_fallback,
                "{scenario}: shutdowns must not fall back"
            );
            assert_sims_equal(&deltaed, &cold);
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
        let failed = FailureScenario::single(Fault::LinkDown {
            a: "r1".into(),
            b: "r2".into(),
            added: false,
        })
        .apply(&cfgs)
        .unwrap();
        let (deltaed, stats) = engine.simulate_perturbed(&base, &failed).unwrap();
        assert!(!stats.full_fallback);
        assert_sims_equal(&deltaed, &simulate(&failed).unwrap());
        // Toward h4, r1 keeps its distance over r3 and only its own row
        // changes; toward h1, r2 loses its only shortest path, so that
        // prefix alone takes a fresh SPF.
        assert_eq!(
            (stats.ospf_prefixes_recomputed, stats.ospf_prefixes_total),
            (1, 2)
        );
    }

    #[test]
    fn router_down_only_recomputes_touched_state() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let scenario = FailureScenario::single(Fault::RouterDown {
            router: "r3".into(),
        });
        let failed = scenario.apply(&cfgs).unwrap();
        let cold = simulate(&failed).unwrap();
        let (deltaed, stats) = engine.simulate_perturbed(&base, &failed).unwrap();
        assert!(!stats.full_fallback);
        assert_sims_equal(&deltaed, &cold);
        // r3 carries no baseline traffic between h1 and h2 and hosts no
        // LAN: the h1↔h2 pairs reuse their cached traces.
        assert!(stats.pairs_recomputed < stats.pairs_total);
    }

    #[test]
    fn unchanged_router_fibs_are_shared_not_copied() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let failed = FailureScenario::single(Fault::LinkDown {
            a: "r1".into(),
            b: "r2".into(),
            added: false,
        })
        .apply(&cfgs)
        .unwrap();
        let (deltaed, stats) = engine.simulate_perturbed(&base, &failed).unwrap();
        assert_sims_equal(&deltaed, &simulate(&failed).unwrap());
        // r1 and r2 lose an interface and re-merge; r3 keeps its routes
        // to both LANs and shares the baseline's table.
        assert_eq!((stats.fibs_shared, stats.fibs_merged), (1, 2));
        let shared: Vec<bool> = (0..3)
            .map(|r| Arc::ptr_eq(&deltaed.fibs.per_router[r], &base.sim.fibs.per_router[r]))
            .collect();
        assert_eq!(shared, [false, false, true]);
    }

    #[test]
    fn unsupported_perturbations_fall_back_to_full_simulation() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        // A cost edit is not a shutdown: must fall back, and still match.
        let mut edited = cfgs.clone();
        edited.routers.get_mut("r1").unwrap().interfaces[0].ospf_cost = Some(3);
        let cold = simulate(&edited).unwrap();
        let (deltaed, stats) = engine.simulate_perturbed(&base, &edited).unwrap();
        assert!(stats.full_fallback);
        assert_eq!(stats.recompute_fraction(), 1.0);
        assert_sims_equal(&deltaed, &cold);
        // Un-shutdown (bring-up) is an addition: also a fallback.
        let down = FailureScenario::single(Fault::LinkDown {
            a: "r1".into(),
            b: "r2".into(),
            added: false,
        })
        .apply(&cfgs)
        .unwrap();
        let down_base = engine.converged(&down).unwrap();
        let (_, stats) = engine.simulate_perturbed(&down_base, &cfgs).unwrap();
        assert!(stats.full_fallback);
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
