//! Strategy-pluggable anonymization (DESIGN.md §15).
//!
//! ConfMask is evaluated head-to-head against NetHide in the paper, and
//! against NetCloak in follow-up work — three algorithms with genuinely
//! different privacy/utility/runtime trade-offs. This module puts all
//! three behind one [`Anonymizer`] trait so the CLI, the serve daemon,
//! and the benchmark harness can select a strategy by name and compare
//! apples to apples:
//!
//! | strategy   | exact paths | reachability | plausible topology | config-level sharing |
//! |------------|-------------|--------------|--------------------|----------------------|
//! | `confmask` | ✓           | ✓            | ✓                  | ✓                    |
//! | `nethide`  | ✗           | ✓            | ✗                  | ✗ (topology-level)   |
//! | `netcloak` | ✓           | ✓            | ✓                  | ✓                    |
//!
//! Each implementation reports its own [`Guarantees`] — callers that need
//! a specific invariant (say, exact path preservation for a debugging
//! workflow) can filter strategies by capability instead of hard-coding
//! names.

use crate::error::Error;
use crate::params::Params;
use crate::pipeline::{anonymize, Anonymized};
use confmask_config::patch::{LineLedger, Patcher};
use confmask_config::NetworkConfigs;
use confmask_net_types::PrefixAllocator;
use confmask_sim::DataPlane;
use confmask_topology::extract::extract_topology;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The anonymization strategies the workspace implements.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Strategy {
    /// The source paper's pipeline: fake links + route filters + fake
    /// hosts, exact path preservation (Definition 3.3).
    ConfMask,
    /// NetHide \[30\]: virtual topology served at the topology level;
    /// forwarding recomputed, so most exact paths are lost.
    NetHide,
    /// NetCloak (arXiv 2504.14959): dynamic topology expansion with
    /// generated cloak-router configs; preservation by construction.
    NetCloak,
}

impl Strategy {
    /// Every strategy, in presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::ConfMask, Strategy::NetHide, Strategy::NetCloak];

    /// Stable wire/CLI name of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::ConfMask => "confmask",
            Strategy::NetHide => "nethide",
            Strategy::NetCloak => "netcloak",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Strategy, String> {
        match s {
            "confmask" => Ok(Strategy::ConfMask),
            "nethide" => Ok(Strategy::NetHide),
            "netcloak" => Ok(Strategy::NetCloak),
            other => Err(format!(
                "unknown strategy '{other}' (expected confmask, nethide, or netcloak)"
            )),
        }
    }
}

/// What a strategy promises about its output — the capability metadata the
/// trait exposes so callers can select by guarantee instead of by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Guarantees {
    /// Every real host pair keeps its exact (multi)path set.
    pub exact_path_preservation: bool,
    /// Every real host pair that could reach each other still can.
    pub reachability_preservation: bool,
    /// Added elements carry complete, protocol-consistent configurations
    /// (an attacker reading the files cannot tell fake from real by
    /// structural inspection).
    pub plausible_topology: bool,
    /// The output is a shareable set of configuration files (vs a
    /// topology-level view served by a middlebox).
    pub config_level_sharing: bool,
}

/// The strategy-independent result: what every [`Anonymizer`] returns.
#[derive(Debug, Clone)]
pub struct AnonymizedNetwork {
    /// Which strategy produced this result.
    pub strategy: Strategy,
    /// The anonymized configurations (for NetHide, the materialized
    /// virtual topology — see [`NetHideStrategy`]).
    pub configs: NetworkConfigs,
    /// Added-lines accounting.
    pub ledger: LineLedger,
    /// Data plane of the original network.
    pub baseline_dataplane: DataPlane,
    /// Data plane the strategy reports for the anonymized network (for
    /// NetHide this is the *virtual* forwarding view, per the paper).
    pub dataplane: DataPlane,
    /// The real hosts of the input network.
    pub real_hosts: BTreeSet<String>,
    /// Fake routers added.
    pub fake_routers: usize,
    /// Fake links added.
    pub fake_links: usize,
    /// Fake hosts added.
    pub fake_hosts: usize,
    /// The producing strategy's guarantees.
    pub guarantees: Guarantees,
    /// Wall-clock time of the anonymization.
    pub wall: Duration,
    /// The full ConfMask pipeline result, when `strategy == ConfMask` —
    /// callers needing stage statistics or the degradation report reach
    /// through this instead of re-running.
    pub confmask: Option<Box<Anonymized>>,
}

impl AnonymizedNetwork {
    /// Whether every real host pair kept its exact path set.
    pub fn paths_preserved(&self) -> bool {
        self.dataplane
            .equivalent_on(&self.baseline_dataplane, &self.real_hosts)
    }

    /// Whether every real host pair reachable in the original network is
    /// still reachable — the invariant *all* strategies promise.
    pub fn reachability_preserved(&self) -> bool {
        self.real_hosts.iter().all(|s| {
            self.real_hosts.iter().all(|d| {
                s == d
                    || self.baseline_dataplane.between(s, d).is_none()
                    || self.dataplane.between(s, d).is_some()
            })
        })
    }

    /// Fraction of real host pairs whose exact path set is kept
    /// (the Figure 8 metric, computable for any strategy).
    pub fn kept_path_ratio(&self) -> f64 {
        let mut total = 0usize;
        let mut kept = 0usize;
        for s in &self.real_hosts {
            for d in &self.real_hosts {
                if s == d {
                    continue;
                }
                let before = self.baseline_dataplane.between(s, d);
                if before.is_none() {
                    continue;
                }
                total += 1;
                if self.dataplane.between(s, d) == before {
                    kept += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            kept as f64 / total as f64
        }
    }
}

/// A pluggable anonymization strategy.
pub trait Anonymizer {
    /// The strategy's identity.
    fn strategy(&self) -> Strategy;

    /// What this strategy promises about its output.
    fn guarantees(&self) -> Guarantees;

    /// Anonymizes `network` under `params`.
    fn anonymize(&self, network: &NetworkConfigs, params: &Params)
        -> Result<AnonymizedNetwork, Error>;
}

/// Returns the [`Anonymizer`] implementing `strategy`.
pub fn anonymizer_for(strategy: Strategy) -> &'static dyn Anonymizer {
    match strategy {
        Strategy::ConfMask => &ConfMaskStrategy,
        Strategy::NetHide => &NetHideStrategy,
        Strategy::NetCloak => &NetCloakStrategy,
    }
}

/// Registers every `anon.strategy.*` metric (and the `netcloak.*` set) at
/// zero, so reports enumerate the full key set whether or not a strategy
/// ran.
pub fn register_strategy_metrics() {
    for s in Strategy::ALL {
        confmask_obs::counter_add(runs_metric(s), 0);
        confmask_obs::counter_add(failures_metric(s), 0);
        confmask_obs::histogram_register(wall_metric(s));
    }
    confmask_netcloak::register_metrics();
}

fn runs_metric(s: Strategy) -> &'static str {
    match s {
        Strategy::ConfMask => "anon.strategy.confmask.runs",
        Strategy::NetHide => "anon.strategy.nethide.runs",
        Strategy::NetCloak => "anon.strategy.netcloak.runs",
    }
}

fn failures_metric(s: Strategy) -> &'static str {
    match s {
        Strategy::ConfMask => "anon.strategy.confmask.failures",
        Strategy::NetHide => "anon.strategy.nethide.failures",
        Strategy::NetCloak => "anon.strategy.netcloak.failures",
    }
}

fn wall_metric(s: Strategy) -> &'static str {
    match s {
        Strategy::ConfMask => "anon.strategy.confmask.wall_ms",
        Strategy::NetHide => "anon.strategy.nethide.wall_ms",
        Strategy::NetCloak => "anon.strategy.netcloak.wall_ms",
    }
}

fn record_run(s: Strategy, wall: Duration) {
    confmask_obs::counter_add(runs_metric(s), 1);
    confmask_obs::observe(wall_metric(s), wall.as_millis() as u64);
}

/// The source paper's pipeline behind the trait.
pub struct ConfMaskStrategy;

impl Anonymizer for ConfMaskStrategy {
    fn strategy(&self) -> Strategy {
        Strategy::ConfMask
    }

    fn guarantees(&self) -> Guarantees {
        Guarantees {
            exact_path_preservation: true,
            reachability_preservation: true,
            plausible_topology: true,
            config_level_sharing: true,
        }
    }

    fn anonymize(
        &self,
        network: &NetworkConfigs,
        params: &Params,
    ) -> Result<AnonymizedNetwork, Error> {
        let start = Instant::now();
        let r = anonymize(network, params).inspect_err(|_| {
            confmask_obs::counter_add(failures_metric(Strategy::ConfMask), 1);
        })?;
        let wall = start.elapsed();
        record_run(Strategy::ConfMask, wall);
        Ok(AnonymizedNetwork {
            strategy: Strategy::ConfMask,
            configs: r.configs.clone(),
            ledger: r.ledger,
            baseline_dataplane: r.baseline.sim.dataplane.clone(),
            dataplane: r.final_sim.dataplane.clone(),
            real_hosts: r.baseline.real_hosts.clone(),
            fake_routers: r.scale.fake_routers.len(),
            fake_links: r.fake_links.len(),
            fake_hosts: r.configs.hosts.len().saturating_sub(network.hosts.len()),
            guarantees: self.guarantees(),
            wall,
            confmask: Some(Box::new(r)),
        })
    }
}

/// The NetHide baseline behind the trait.
///
/// NetHide is a topology-level system — it serves a virtual forwarding
/// view rather than sharing files. To make its output comparable (and
/// re-parseable through the vendor codecs, which the conformance suite
/// requires of every strategy), this adapter *materializes* the virtual
/// links into configuration interfaces with default link-state costs —
/// exactly the "default cost" strawman of §3.2, which is why NetHide does
/// not preserve exact paths. The reported `dataplane` is NetHide's own
/// virtual single-shortest-path view, matching the Figures 8–9
/// comparison.
pub struct NetHideStrategy;

impl Anonymizer for NetHideStrategy {
    fn strategy(&self) -> Strategy {
        Strategy::NetHide
    }

    fn guarantees(&self) -> Guarantees {
        Guarantees {
            exact_path_preservation: false,
            reachability_preservation: true,
            plausible_topology: false,
            config_level_sharing: false,
        }
    }

    fn anonymize(
        &self,
        network: &NetworkConfigs,
        params: &Params,
    ) -> Result<AnonymizedNetwork, Error> {
        let start = Instant::now();
        let run = || -> Result<AnonymizedNetwork, Error> {
            let sim = confmask_sim::simulate(network)?;
            let topo = extract_topology(network);
            let nh = confmask_nethide::obfuscate(&topo, params.k_r, params.seed).map_err(
                |confmask_nethide::NetHideError::Anonymization(e)| Error::Topology(e),
            )?;

            let mut patcher = Patcher::new(network.clone());
            let mut alloc = PrefixAllocator::new(network.used_prefixes());
            for (a, b) in &nh.added_links {
                let (prefix, lo, hi) = alloc
                    .allocate_p2p()
                    .map_err(|e| Error::InvalidInput(format!("nethide link allocation: {e}")))?;
                patcher.add_interface(a, lo, 31, None, Some(format!("to-{b}")))?;
                patcher.add_interface(b, hi, 31, None, Some(format!("to-{a}")))?;
                patcher.enable_network(a, prefix, false)?;
                patcher.enable_network(b, prefix, false)?;
            }
            let (configs, ledger) = patcher.into_parts();

            Ok(AnonymizedNetwork {
                strategy: Strategy::NetHide,
                configs,
                ledger,
                baseline_dataplane: sim.dataplane,
                dataplane: nh.dataplane,
                real_hosts: network.hosts.keys().cloned().collect(),
                fake_routers: 0,
                fake_links: nh.added_links.len(),
                fake_hosts: 0,
                guarantees: self.guarantees(),
                wall: start.elapsed(),
                confmask: None,
            })
        };
        let out = run().inspect_err(|_| {
            confmask_obs::counter_add(failures_metric(Strategy::NetHide), 1);
        })?;
        record_run(Strategy::NetHide, out.wall);
        Ok(out)
    }
}

/// The NetCloak expansion behind the trait.
pub struct NetCloakStrategy;

impl Anonymizer for NetCloakStrategy {
    fn strategy(&self) -> Strategy {
        Strategy::NetCloak
    }

    fn guarantees(&self) -> Guarantees {
        Guarantees {
            exact_path_preservation: true,
            reachability_preservation: true,
            plausible_topology: true,
            config_level_sharing: true,
        }
    }

    fn anonymize(
        &self,
        network: &NetworkConfigs,
        params: &Params,
    ) -> Result<AnonymizedNetwork, Error> {
        let start = Instant::now();
        let r = confmask_netcloak::expand(network, params.k_r, params.seed)
            .map_err(|e| match e {
                confmask_netcloak::NetCloakError::Sim(e) => Error::Sim(e),
                confmask_netcloak::NetCloakError::Patch(e) => Error::Patch(e),
                confmask_netcloak::NetCloakError::Alloc(m)
                | confmask_netcloak::NetCloakError::Unsupported(m) => Error::InvalidInput(m),
                confmask_netcloak::NetCloakError::NotPreserved(m) => Error::EquivalenceViolated(m),
            })
            .inspect_err(|_| {
                confmask_obs::counter_add(failures_metric(Strategy::NetCloak), 1);
            })?;
        let wall = start.elapsed();
        record_run(Strategy::NetCloak, wall);
        Ok(AnonymizedNetwork {
            strategy: Strategy::NetCloak,
            configs: r.configs,
            ledger: r.ledger,
            baseline_dataplane: r.baseline_dataplane,
            dataplane: r.dataplane,
            real_hosts: r.real_hosts,
            fake_routers: r.cloak_routers.len(),
            fake_links: r.cloak_links.len(),
            fake_hosts: r.cloak_hosts.len(),
            guarantees: self.guarantees(),
            wall,
            confmask: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
        }
        assert!("netHide".parse::<Strategy>().is_err());
        assert!("".parse::<Strategy>().is_err());
    }

    #[test]
    fn registry_returns_matching_strategy() {
        for s in Strategy::ALL {
            assert_eq!(anonymizer_for(s).strategy(), s);
        }
    }

    #[test]
    fn guarantee_matrix_is_as_documented() {
        let g = anonymizer_for(Strategy::ConfMask).guarantees();
        assert!(g.exact_path_preservation && g.config_level_sharing);
        let g = anonymizer_for(Strategy::NetHide).guarantees();
        assert!(!g.exact_path_preservation && g.reachability_preservation);
        let g = anonymizer_for(Strategy::NetCloak).guarantees();
        assert!(g.exact_path_preservation && g.plausible_topology);
    }

    #[test]
    fn nethide_adapter_materializes_reparseable_configs() {
        let net = confmask_netgen::smallnets::example_network();
        let out = anonymizer_for(Strategy::NetHide)
            .anonymize(&net, &Params::new(3, 2))
            .unwrap();
        assert!(out.fake_links > 0);
        assert!(out.reachability_preserved());
        // The materialized configs are ordinary files that re-parse.
        for rc in out.configs.routers.values() {
            let text = rc.emit();
            let back = confmask_config::parse_router(&text).unwrap();
            assert_eq!(back.hostname, rc.hostname);
        }
    }

    #[test]
    fn netcloak_adapter_preserves_exact_paths() {
        let net = confmask_netgen::smallnets::example_network();
        let out = anonymizer_for(Strategy::NetCloak)
            .anonymize(&net, &Params::new(3, 2))
            .unwrap();
        assert!(out.paths_preserved());
        assert!(out.fake_routers >= 2);
        assert!((out.kept_path_ratio() - 1.0).abs() < 1e-12);
    }
}
