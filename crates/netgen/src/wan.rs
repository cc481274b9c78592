//! Synthetic wide-area networks standing in for the TopologyZoo graphs
//! (nets D–F of Table 2).
//!
//! The original evaluation auto-generates configurations from TopologyZoo's
//! Bics, Columbus and USCarrier graphs. Those GraphML files are not
//! available offline, so we generate deterministic synthetic WANs with the
//! *published* router/host/edge counts: a random spanning tree (guaranteeing
//! connectivity) plus random mesh edges up to the published edge budget,
//! with hosts spread round-robin across routers. The evaluation metrics
//! (anonymity, utility, runtime scaling) depend on size, degree spread and
//! diameter, which this construction preserves; see DESIGN.md for the
//! substitution rationale.

use crate::synth::{IgpProtocol, TopoSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds a synthetic WAN spec.
///
/// * `routers` — number of routers;
/// * `hosts` — number of hosts (attached round-robin to shuffled routers);
/// * `total_edges` — the Table 2 `|E|`, which counts host links; the
///   router-router edge budget is `total_edges - hosts`;
/// * `seed` — generation seed (each named network uses a fixed one).
pub fn wan_spec(name: &str, routers: usize, hosts: usize, total_edges: usize, seed: u64) -> TopoSpec {
    assert!(total_edges >= hosts, "edge budget must cover host links");
    let router_edges = total_edges - hosts;
    assert!(
        router_edges >= routers - 1,
        "edge budget too small for a connected graph"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    let names: Vec<String> = (0..routers).map(|i| format!("{name}-r{i:03}")).collect();
    let mut spec = TopoSpec::new(name, names, IgpProtocol::Ospf);

    // Random spanning tree: attach each node to a random earlier node.
    let mut order: Vec<usize> = (0..routers).collect();
    order.shuffle(&mut rng);
    let mut edge_set = std::collections::BTreeSet::new();
    for i in 1..routers {
        let parent = order[rng.gen_range(0..i)];
        let child = order[i];
        let e = (parent.min(child), parent.max(child));
        edge_set.insert(e);
    }
    // Extra mesh edges until the budget is met.
    let mut guard = 0usize;
    while edge_set.len() < router_edges {
        let a = rng.gen_range(0..routers);
        let b = rng.gen_range(0..routers);
        if a != b {
            edge_set.insert((a.min(b), a.max(b)));
        }
        guard += 1;
        assert!(guard < router_edges * 1000, "edge sampling stuck");
    }
    spec.links = edge_set.into_iter().map(|(a, b)| (a, b, None)).collect();

    // Hosts: round-robin over a shuffled router order, so host placement is
    // spread but irregular like a real WAN.
    let mut placement: Vec<usize> = (0..routers).collect();
    placement.shuffle(&mut rng);
    for h in 0..hosts {
        let r = placement[h % routers];
        spec.hosts.push((format!("{name}-h{h:03}"), r));
    }
    spec
}

/// Net D: Bics-sized WAN (Table 2: R=49, H=98, E=162).
pub fn bics() -> TopoSpec {
    wan_spec("bics", 49, 98, 162, 0xB1C5)
}

/// Net E: Columbus-sized WAN (Table 2: R=86, H=68, E=169).
pub fn columbus() -> TopoSpec {
    wan_spec("columbus", 86, 68, 169, 0xC0_1B)
}

/// Net F: USCarrier-sized WAN (Table 2: R=161, H=58, E=378).
pub fn uscarrier() -> TopoSpec {
    wan_spec("uscarrier", 161, 58, 378, 0x05CA)
}

/// Net J (extended suite): a metro-scale WAN larger than any Table 2
/// TopologyZoo stand-in (R=220, H=80, E=580).
pub fn metro() -> TopoSpec {
    wan_spec("metro", 220, 80, 580, 0x3E70)
}

/// Net K (extended suite): a continent-scale WAN, the largest evaluation
/// network (R=320, H=120, E=860).
pub fn continent() -> TopoSpec {
    wan_spec("continent", 320, 120, 860, 0xC047)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize;

    #[test]
    fn sizes_match_table2() {
        for (spec, r, h, e) in [
            (bics(), 49, 98, 162),
            (columbus(), 86, 68, 169),
            (uscarrier(), 161, 58, 378),
        ] {
            assert_eq!(spec.routers.len(), r, "{}", spec.name);
            assert_eq!(spec.hosts.len(), h, "{}", spec.name);
            assert_eq!(spec.links.len() + spec.hosts.len(), e, "{}", spec.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = bics();
        let b = bics();
        assert_eq!(a.links, b.links);
        assert_eq!(a.hosts, b.hosts);
    }

    #[test]
    fn wan_is_connected_and_reachable() {
        // Use a small instance for speed; same generator code path.
        let spec = wan_spec("mini", 12, 6, 24, 7);
        let net = synthesize(&spec);
        let sim = confmask_sim::simulate(&net).unwrap();
        for ps in sim.dataplane.pairs() {
            assert!(ps.clean(), "unreachable {ps:?}");
        }
    }

    #[test]
    fn bics_simulates_clean() {
        let net = synthesize(&bics());
        let sim = confmask_sim::simulate(&net).unwrap();
        let bad = sim.dataplane.pairs().filter(|ps| !ps.clean()).count();
        assert_eq!(bad, 0);
    }
}
