//! Preprocessing (Figure 3, leftmost stage): simulate the original network
//! and record the baselines every later stage compares against.

use crate::Error;
use confmask_config::NetworkConfigs;
use confmask_net_types::Asn;
use confmask_sim::Simulation;
use confmask_sim_delta::DeltaEngine;
use confmask_topology::{extract::extract_topology, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// The original network's simulated baseline.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// The original simulation (model, FIBs, data plane).
    pub sim: Simulation,
    /// The original topology graph.
    pub topo: Topology,
    /// Names of the real hosts (the set functional equivalence is judged
    /// on; fake hosts added later are excluded, Appendix A).
    pub real_hosts: BTreeSet<String>,
    /// Router name → ASN, for BGP networks.
    pub asn_of: BTreeMap<String, Asn>,
    /// Router-router adjacency of the *original* network, by name — the `E`
    /// that Algorithm 1's `(r̃, nxt) ∉ E` tests against.
    pub router_edges: BTreeSet<(String, String)>,
}

/// Simulates the input and builds the baseline.
pub fn preprocess(configs: &NetworkConfigs) -> Result<Baseline, Error> {
    let errors = confmask_config::validate(configs);
    if !errors.is_empty() {
        return Err(Error::InvalidInput(format!(
            "{} validation error(s), first: {}",
            errors.len(),
            errors[0]
        )));
    }
    // Converge through the per-process simulation cache: retry attempts
    // and repeat jobs on the same input skip the (expensive) baseline
    // simulation entirely, and the converged state feeds later delta
    // recomputation of fault scenarios.
    let sim = DeltaEngine::global().converged(configs)?.sim.clone();
    let topo = extract_topology(configs);
    let real_hosts = configs.hosts.keys().cloned().collect();
    let asn_of = configs
        .routers
        .iter()
        .filter_map(|(n, rc)| rc.bgp.as_ref().map(|b| (n.clone(), b.asn)))
        .collect();

    let mut router_edges = BTreeSet::new();
    for (a, b, _) in topo.edges() {
        use confmask_topology::NodeKind;
        if topo.kind(a) == NodeKind::Router && topo.kind(b) == NodeKind::Router {
            let (na, nb) = (topo.name(a).to_string(), topo.name(b).to_string());
            router_edges.insert((na.clone().min(nb.clone()), na.max(nb)));
        }
    }

    Ok(Baseline {
        sim,
        topo,
        real_hosts,
        asn_of,
        router_edges,
    })
}

impl Baseline {
    /// Whether the original network has a router-router link `a – b`.
    /// Answered from the topology by borrowed name, with no allocation:
    /// `router_edges` holds exactly its router-router edges.
    pub fn has_edge(&self, a: &str, b: &str) -> bool {
        use confmask_topology::NodeKind;
        match (self.topo.node(a), self.topo.node(b)) {
            (Some(x), Some(y)) => {
                self.topo.kind(x) == NodeKind::Router
                    && self.topo.kind(y) == NodeKind::Router
                    && self.topo.has_edge(x, y)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_netgen::smallnets::example_network;

    #[test]
    fn baseline_captures_example_network() {
        let net = example_network();
        let base = preprocess(&net).unwrap();
        assert_eq!(base.real_hosts.len(), 3);
        assert_eq!(base.router_edges.len(), 3);
        assert!(base.has_edge("r1", "r3"));
        assert!(base.has_edge("r3", "r1"));
        assert!(!base.has_edge("r1", "r4"));
        assert!(base.asn_of.is_empty());
        assert_eq!(base.sim.dataplane.len(), 6); // 3 hosts, ordered pairs
    }

    #[test]
    fn invalid_input_is_rejected() {
        let mut net = example_network();
        net.hosts.get_mut("h1").unwrap().gateway = "9.9.9.9".parse().unwrap();
        assert!(matches!(preprocess(&net), Err(Error::InvalidInput(_))));
    }

    #[test]
    fn bgp_asns_are_recorded() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::backbone());
        let base = preprocess(&net).unwrap();
        assert_eq!(base.asn_of.len(), 11);
    }
}
