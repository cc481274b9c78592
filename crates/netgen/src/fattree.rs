//! Fat-tree generators (nets G and H of Table 2).
//!
//! The wiring is chosen to match the paper's published sizes exactly:
//! FatTree-04 has `R=20, H=16, E=48` and FatTree-08 has `R=72, H=64,
//! E=320` (`E` counts host links). Both follow the rule: `k` pods of `k/2`
//! edge + `k/2` aggregation routers, a full edge↔agg bipartite graph inside
//! each pod, `k` core routers, and each aggregation router with local index
//! `j` uplinked to cores `[(j mod 2)·k/2, (j mod 2)·k/2 + k/2)`; two hosts
//! per edge router.

use crate::synth::{IgpProtocol, TopoSpec};

/// Builds a FatTree(k) specification (k even, ≥ 4).
pub fn fattree_spec(k: usize) -> TopoSpec {
    assert!(k >= 4 && k.is_multiple_of(2), "fat-tree requires even k >= 4");
    let half = k / 2;
    let mut routers = Vec::new();
    // Cores: indices [0, k)
    for c in 0..k {
        routers.push(format!("core{c}"));
    }
    // Per pod: aggs then edges.
    let agg_idx = |pod: usize, j: usize| k + pod * k + j;
    let edge_idx = |pod: usize, j: usize| k + pod * k + half + j;
    for pod in 0..k {
        for j in 0..half {
            routers.push(format!("agg{pod}-{j}"));
        }
        for j in 0..half {
            routers.push(format!("edge{pod}-{j}"));
        }
    }

    let mut spec = TopoSpec::new(format!("FatTree{k:02}"), routers, IgpProtocol::Ospf);

    for pod in 0..k {
        // edge ↔ agg full bipartite within the pod
        for e in 0..half {
            for a in 0..half {
                spec.links.push((edge_idx(pod, e), agg_idx(pod, a), None));
            }
        }
        // agg ↔ core uplinks
        for j in 0..half {
            let base = (j % 2) * half;
            for c in base..base + half {
                spec.links.push((agg_idx(pod, j), c, None));
            }
        }
        // two hosts per edge router
        for e in 0..half {
            for h in 0..2 {
                spec.hosts
                    .push((format!("h{pod}-{e}-{h}"), edge_idx(pod, e)));
            }
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize;

    #[test]
    fn fattree04_matches_table2() {
        let spec = fattree_spec(4);
        assert_eq!(spec.routers.len(), 20); // R
        assert_eq!(spec.hosts.len(), 16); // H
        assert_eq!(spec.links.len() + spec.hosts.len(), 48); // E incl. host links
    }

    #[test]
    fn fattree08_matches_table2() {
        let spec = fattree_spec(8);
        assert_eq!(spec.routers.len(), 72);
        assert_eq!(spec.hosts.len(), 64);
        assert_eq!(spec.links.len() + spec.hosts.len(), 320);
    }

    #[test]
    fn fattree_is_fully_reachable() {
        let net = synthesize(&fattree_spec(4));
        let sim = confmask_sim::simulate(&net).unwrap();
        for ps in sim.dataplane.pairs() {
            assert!(ps.clean(), "unreachable pair in fat-tree");
        }
    }

    #[test]
    fn fattree_has_ecmp_between_pods() {
        let net = synthesize(&fattree_spec(4));
        let sim = confmask_sim::simulate(&net).unwrap();
        // Hosts in different pods have multiple equal-cost paths.
        let ps = sim.dataplane.between("h0-0-0", "h1-0-0").unwrap();
        assert!(ps.path_count() >= 2, "expected ECMP, got {ps:?}");
    }

    #[test]
    fn degrees_are_uniform_within_layers() {
        let net = synthesize(&fattree_spec(4));
        let topo = confmask_topology::extract::extract_topology(&net);
        // FatTree-04 layers: cores deg 4, aggs deg 4, edges deg 2 (router
        // degree); min same-degree is large by symmetry.
        let k_d = confmask_topology::metrics::min_same_degree(&topo);
        assert!(k_d >= 4, "fat-tree symmetry gives high k_d, got {k_d}");
    }
}
