//! The two strawman route-equivalence baselines of §4.3, used by the
//! evaluation (Figures 10 and 16).
//!
//! * **Strawman 1** — "simply dropping all incoming host prefixes on every
//!   fake interface": one shot, no iteration. Fast, correct, but every fake
//!   attachment point carries the *same* deny-list of every host prefix — a
//!   unified pattern an adversary can use to identify the fake interfaces
//!   (and it injects far more filter lines, Figure 10 R).
//! * **Strawman 2** — traceroute-driven: per iteration, compare
//!   `traceroute(h_a, h_b)` against the original for every host pair, find
//!   the first wrong hop *closest to the destination*, and filter the
//!   destination prefix there. Fixes one hop per pair per iteration
//!   (Figure 4c), so it needs many more simulations than Algorithm 1 —
//!   the paper measures it 8–100× slower end to end.

use crate::preprocess::Baseline;
use crate::route_equiv::{deny_next_hop, EquivOutcome};
use crate::topo_anon::FakeLink;
use crate::Error;
use confmask_config::patch::Patcher;
use confmask_sim::{simulate, NextHop};
use std::collections::BTreeSet;

/// Strawman 1: deny every original host prefix at every fake attachment
/// point, in one pass.
pub fn strawman1(
    patcher: &mut Patcher,
    base: &Baseline,
    _fake_links: &[FakeLink],
) -> Result<EquivOutcome, Error> {
    let mut out = EquivOutcome::default();
    let host_prefixes: Vec<_> = base
        .sim
        .net
        .destinations
        .iter()
        .map(|(p, _)| *p)
        .collect();

    // Collect fake attachment points from the patched configs: added
    // interfaces on router-router links, and added BGP neighbors.
    let routers: Vec<String> = patcher.network().routers.keys().cloned().collect();
    for rname in routers {
        let rc = patcher.network().routers[&rname].clone();
        // Added point-to-point interfaces (fake links are /31s; fake host
        // LANs do not exist yet at this stage, but be conservative and
        // only take /31s).
        let fake_ifaces: Vec<String> = rc
            .interfaces
            .iter()
            .filter(|i| i.added && i.address.map(|(_, l)| l) == Some(31))
            .map(|i| i.name.clone())
            .collect();
        for iface in fake_ifaces {
            let list = format!("RejAll-{iface}");
            for p in &host_prefixes {
                if patcher.ensure_deny_entry(&rname, &list, *p)? {
                    out.filters_added += 1;
                }
            }
            patcher.bind_igp_filter(&rname, &list, &iface)?;
        }
        let fake_neighbors: Vec<_> = rc
            .bgp
            .iter()
            .flat_map(|b| b.neighbors.iter())
            .filter(|n| n.added)
            .map(|n| n.addr)
            .collect();
        for addr in fake_neighbors {
            let list = format!("RejAll-{addr}");
            for p in &host_prefixes {
                if patcher.ensure_deny_entry(&rname, &list, *p)? {
                    out.filters_added += 1;
                }
            }
            patcher.bind_bgp_filter(&rname, &list, addr)?;
        }
    }

    out.iterations = 1;
    out.sim_calls = 1; // the verification sim in the pipeline
    Ok(out)
}

/// Strawman 2: traceroute-and-patch until the data plane matches.
pub fn strawman2(
    patcher: &mut Patcher,
    base: &Baseline,
    fake_links: &[FakeLink],
) -> Result<EquivOutcome, Error> {
    let mut out = EquivOutcome::default();
    // S2 converges much more slowly than Algorithm 1; give it a generous
    // but finite budget.
    let bound = 10 * (fake_links.len() + 5);

    for iter in 0..bound {
        out.iterations = iter + 1;
        // S2 needs full traceroutes, i.e. the data plane, every iteration.
        let sim = simulate(patcher.network())?;
        out.sim_calls += 1;

        let mut changes = 0;
        for new_ps in sim.dataplane.pairs() {
            let (src, dst) = (new_ps.src, new_ps.dst);
            if !base.real_hosts.contains(src) || !base.real_hosts.contains(dst) {
                continue;
            }
            let orig_ps = base
                .sim
                .dataplane
                .between(src, dst)
                .expect("pair exists in the original");
            if new_ps == orig_ps {
                continue;
            }
            // First new path that is not an original path.
            let orig_paths: Vec<Vec<&str>> = orig_ps.paths().collect();
            let Some(bad) = new_ps.paths().find(|p| !orig_paths.contains(p)) else {
                continue; // paths lost rather than added: upstream fix pending
            };
            let dst_prefix = sim
                .net
                .host(sim.net.host_id(dst).expect("host exists"))
                .prefix;
            // Walk backward from the first wrong hop toward the source
            // until we find a hop whose next hop is not an original next
            // hop of that router — filtering there cannot break any
            // pair's correct routing. (The paper's description assumes the
            // first wrong hop is that hop; when the divergence merely
            // *transits* an original link, the real culprit is upstream.)
            let start = first_wrong_hop_index(&bad, &orig_paths);
            for i in (1..=start).rev() {
                let (r_i, r_next) = (bad[i], bad[i + 1]);
                if sim.net.router_id(r_next).is_none() {
                    continue; // r_next is the destination host
                }
                let orig_rid = base.sim.net.router_id(r_i).expect("router exists");
                let orig_next: BTreeSet<String> = base
                    .sim
                    .fibs
                    .of(orig_rid)
                    .entry(&dst_prefix)
                    .map(|e| {
                        e.next_hops
                            .iter()
                            .filter_map(|nh| nh.router())
                            .map(|r| base.sim.net.router(r).name.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                if orig_next.contains(r_next) {
                    continue;
                }
                // Find the FIB next hop of r_i toward r_next and deny it.
                let rid = sim.net.router_id(r_i).expect("router exists");
                if let Some(entry) = sim.fibs.of(rid).entry(&dst_prefix) {
                    let hop = entry.next_hops.iter().find(|nh| {
                        nh.router()
                            .map(|r| sim.net.router(r).name == r_next)
                            .unwrap_or(false)
                    });
                    if let Some(nh @ NextHop::Forward { .. }) = hop {
                        if deny_next_hop(patcher, &sim.net, r_i, nh, dst_prefix)? {
                            changes += 1;
                            out.filters_added += 1;
                            break;
                        }
                    }
                }
            }
        }
        if changes == 0 {
            return Ok(out);
        }
    }
    Err(Error::EquivalenceDiverged { iterations: bound })
}

/// Index `i` of the first wrong hop `r_i = path[i]` closest to the
/// destination: walking backward, the first node of `path` that diverges
/// from every original path's suffix.
fn first_wrong_hop_index<S: PartialEq>(path: &[S], originals: &[Vec<S>]) -> usize {
    // Longest suffix of `path` that is a suffix of some original path.
    let len = path.len();
    let mut k = 1; // the destination host always matches
    'grow: while k < len {
        let suffix = &path[len - (k + 1)..];
        for orig in originals {
            if orig.len() >= suffix.len() && orig[orig.len() - suffix.len()..] == *suffix {
                k += 1;
                continue 'grow;
            }
        }
        break;
    }
    len.saturating_sub(k + 1)
}

/// Convenience wrapper returning `(r_i, r_{i+1})` names (used in tests and
/// mirroring the paper's Figure 4 narration).
#[cfg(test)]
fn first_wrong_hop(path: &[String], originals: &[Vec<String>]) -> Option<(String, String)> {
    let i = first_wrong_hop_index(path, originals);
    if i == 0 || i + 1 >= path.len() {
        return None;
    }
    Some((path[i].clone(), path[i + 1].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use crate::topo_anon::anonymize_topology;
    use confmask_net_types::PrefixAllocator;
    use confmask_netgen::smallnets::example_network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Patcher, crate::preprocess::Baseline, Vec<FakeLink>) {
        let net = example_network();
        let base = preprocess(&net).unwrap();
        let mut patcher = Patcher::new(net.clone());
        let mut alloc = PrefixAllocator::new(net.used_prefixes());
        let mut rng = StdRng::seed_from_u64(seed);
        let links = anonymize_topology(&mut patcher, &mut alloc, &base, 4, &mut rng).unwrap();
        (patcher, base, links)
    }

    #[test]
    fn strawman1_restores_data_plane_in_one_shot() {
        let (mut patcher, base, links) = setup(2);
        let out = strawman1(&mut patcher, &base, &links).unwrap();
        assert_eq!(out.iterations, 1);
        let sim = simulate(patcher.network()).unwrap();
        assert!(sim
            .dataplane
            .equivalent_on(&base.sim.dataplane, &base.real_hosts));
    }

    #[test]
    fn strawman1_injects_unified_pattern() {
        let (mut patcher, base, links) = setup(2);
        strawman1(&mut patcher, &base, &links).unwrap();
        // Every fake interface carries a deny entry for EVERY host prefix —
        // the de-anonymizable pattern §4.3 describes.
        let n_hosts = base.real_hosts.len();
        for rc in patcher.network().routers.values() {
            for pl in rc.prefix_lists.iter().filter(|p| p.name.starts_with("RejAll-")) {
                assert_eq!(pl.entries.len(), n_hosts, "{}: {}", rc.hostname, pl.name);
            }
        }
    }

    #[test]
    fn strawman2_restores_data_plane() {
        let (mut patcher, base, links) = setup(2);
        let out = strawman2(&mut patcher, &base, &links).unwrap();
        let sim = simulate(patcher.network()).unwrap();
        assert!(sim
            .dataplane
            .equivalent_on(&base.sim.dataplane, &base.real_hosts));
        assert!(out.sim_calls >= 1);
    }

    #[test]
    fn strawman2_adds_fewer_filter_lines_than_strawman1() {
        let (mut p1, base, links) = setup(2);
        let (mut p2, _, _) = setup(2);
        let o1 = strawman1(&mut p1, &base, &links).unwrap();
        let o2 = strawman2(&mut p2, &base, &links).unwrap();
        assert!(
            o2.filters_added <= o1.filters_added,
            "S2 is conservative ({} vs {})",
            o2.filters_added,
            o1.filters_added
        );
    }

    #[test]
    fn first_wrong_hop_matches_paper_example() {
        // Fig 4b: new (h1, r1, r5, h5) vs original (h1, r1, r2, r3, r4, r5, h5):
        // r1 is the first different hop closest to h5 → filter on (r1, r5).
        let new_path: Vec<String> = ["h1", "r1", "r5", "h5"].iter().map(|s| s.to_string()).collect();
        let orig: Vec<Vec<String>> = vec![["h1", "r1", "r2", "r3", "r4", "r5", "h5"]
            .iter()
            .map(|s| s.to_string())
            .collect()];
        let (r_i, r_next) = first_wrong_hop(&new_path, &orig).unwrap();
        assert_eq!((r_i.as_str(), r_next.as_str()), ("r1", "r5"));
    }

    #[test]
    fn first_wrong_hop_none_for_matching_path() {
        let p: Vec<String> = ["h1", "r1", "h2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(first_wrong_hop(&p, std::slice::from_ref(&p)), None);
    }
}
