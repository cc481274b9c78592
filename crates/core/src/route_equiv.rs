//! Step 2.1 — route equivalence (Algorithm 1, §5.2).
//!
//! After topology anonymization the data plane may have drifted: fake links
//! create new equal-cost candidates (link-state), shortcuts (distance
//! vector) and shorter AS paths (BGP). Algorithm 1 restores the original
//! data plane by *local table lookups*: each iteration scans **every**
//! routing-table entry `⟨r̃, h̃_d, nxt⟩` of the intermediate network and,
//! whenever the next hop is not an original next hop **and** the link
//! `(r̃, nxt)` is not an original link, adds an inbound route filter on `r̃`
//! denying `h̃_d` from `nxt`. Re-simulation follows, because routers choose
//! next hops without a global view (and BGP re-equilibrates, §4.3); the
//! iteration count is bounded by the number of fake links (§5.4). The
//! re-simulation is a warm refresh of the filtered routers, which on
//! OSPF-only networks recomputes just their RIBs (DESIGN.md §17).
//!
//! Filters use one prefix list per attachment point (`Rej-<iface>` /
//! `Rej-<neighbor>`), so a list bound at one point never leaks route
//! suppression to another.

use crate::preprocess::Baseline;
use crate::Error;
use confmask_config::patch::Patcher;
use confmask_net_types::{Ipv4Prefix, RouterId};
use confmask_sim::{Fibs, NextHop, SimNetwork};
use confmask_sim_delta::WarmControlPlane;
use std::collections::BTreeSet;

/// Outcome of the route-equivalence stage.
#[derive(Debug, Clone, Default)]
pub struct EquivOutcome {
    /// Iterations of the fixpoint loop (the paper's convergence metric).
    pub iterations: usize,
    /// Control-plane solves performed, warm refreshes and cold builds
    /// alike (one per fixpoint iteration).
    pub sim_calls: usize,
    /// Filters added.
    pub filters_added: usize,
}

/// Name of the per-attachment-point reject list.
pub(crate) fn reject_list_name(point: &str) -> String {
    format!("Rej-{point}")
}

/// Adds a deny filter for `prefix` on router `router` at the attachment
/// point implied by `nh` (IGP interface or BGP session). Returns `true` if
/// anything new was added.
pub(crate) fn deny_next_hop(
    patcher: &mut Patcher,
    net: &SimNetwork,
    router: &str,
    nh: &NextHop,
    prefix: Ipv4Prefix,
) -> Result<bool, Error> {
    let NextHop::Forward {
        via_iface,
        session_peer,
        ..
    } = nh
    else {
        return Ok(false);
    };
    let rid = net.router_id(router).expect("router exists in its own sim");
    let mut added = false;
    match session_peer {
        Some(peer_addr) => {
            let list = reject_list_name(&peer_addr.to_string());
            added |= patcher.ensure_deny_entry(router, &list, prefix)?;
            patcher.bind_bgp_filter(router, &list, *peer_addr)?;
        }
        None => {
            let iface_name = net.router(rid).ifaces[*via_iface].name.clone();
            let list = reject_list_name(&iface_name);
            added |= patcher.ensure_deny_entry(router, &list, prefix)?;
            patcher.bind_igp_filter(router, &list, &iface_name)?;
        }
    }
    Ok(added)
}

/// Runs Algorithm 1 until the control plane agrees with the original on
/// every original-host destination, bounded by `fake_link_count + 5`
/// iterations.
pub fn enforce_route_equivalence(
    patcher: &mut Patcher,
    base: &Baseline,
    fake_link_count: usize,
) -> Result<EquivOutcome, Error> {
    enforce_route_equivalence_with_budget(patcher, base, fake_link_count, 0)
}

/// [`enforce_route_equivalence`] with `extra_budget` additional iterations
/// on top of the `fake_link_count + 5` bound — the escalation lever the
/// self-healing pipeline pulls on retry after
/// [`Error::EquivalenceDiverged`].
pub fn enforce_route_equivalence_with_budget(
    patcher: &mut Patcher,
    base: &Baseline,
    fake_link_count: usize,
    extra_budget: usize,
) -> Result<EquivOutcome, Error> {
    let bound = fake_link_count + 5 + extra_budget;
    let mut out = EquivOutcome::default();
    // The first iteration solves the control plane cold; later ones
    // refresh only the routers the previous scan filtered.
    let mut cp = WarmControlPlane::new(patcher.network())?;
    let mut touched: Vec<RouterId> = Vec::new();

    for iter in 0..bound {
        out.iterations = iter + 1;
        confmask_obs::counter_add("core.route_equiv.iterations", 1);
        if iter > 0 {
            cp.refresh(patcher.network(), &touched)?;
        }
        out.sim_calls += 1;

        let (changes, filtered) = scan_and_filter(patcher, base, cp.net(), cp.fibs())?;
        touched = filtered;
        out.filters_added += changes;
        confmask_obs::counter_add("core.route_equiv.filters_added", changes as u64);
        if changes == 0 {
            confmask_obs::debug!(
                "core.route_equiv",
                "fixpoint after {} iteration(s), {} filter(s) added",
                out.iterations,
                out.filters_added
            );
            return Ok(out);
        }
    }
    Err(Error::EquivalenceDiverged { iterations: bound })
}

/// One Algorithm 1 iteration body: scan all routing-table entries, filter
/// wrong next hops on fake links. Returns the number of filters added and
/// the routers that received filter edits.
fn scan_and_filter(
    patcher: &mut Patcher,
    base: &Baseline,
    net: &SimNetwork,
    fibs: &Fibs,
) -> Result<(usize, Vec<RouterId>), Error> {
    let mut pending: Vec<(RouterId, NextHop, Ipv4Prefix)> = Vec::new();

    // Algorithm 1's destinations range over the *original* hosts; fake
    // hosts (e.g. the liveness hosts of fake routers from scale
    // obfuscation) are handled by Algorithm 2 instead.
    let base_prefixes: std::collections::BTreeSet<Ipv4Prefix> = base
        .sim
        .net
        .destinations
        .iter()
        .map(|(p, _)| *p)
        .collect();

    for (rid, router) in net.routers_iter() {
        // Routers absent from the original network (fake routers from
        // scale obfuscation) have no ⟨r̃, h̃_d⟩ baseline to enforce: their
        // routes toward real destinations are legitimate new state, and
        // real traffic is kept out of them by the filters on the *real*
        // routers' sides.
        let Some(orid) = base.sim.net.router_id(&router.name) else {
            continue;
        };
        for (prefix, _hosts) in net.destinations.iter() {
            if !base_prefixes.contains(prefix) {
                continue;
            }
            let Some(entry) = fibs.of(rid).entry(prefix) else {
                continue;
            };
            // Original next hops for ⟨r̃, h̃_d⟩ — DP[r̃, h̃_d] in Algorithm 1.
            // Router ids are stable across simulations of the same router
            // set, but we defensively map through names.
            let orig_next: BTreeSet<String> = base
                .sim
                .fibs
                .of(orid)
                .entry(prefix)
                .map(|e| {
                    e.next_hops
                        .iter()
                        .filter_map(|nh| nh.router())
                        .map(|r| base.sim.net.router(r).name.clone())
                        .collect()
                })
                .unwrap_or_default();

            for nh in entry.next_hops {
                let Some(nxt) = nh.router() else { continue };
                let nxt_name = &net.router(nxt).name;
                if orig_next.contains(nxt_name) {
                    continue; // nxt ∈ DP[r̃, h̃_d]
                }
                if base.has_edge(&router.name, nxt_name) {
                    continue; // (r̃, nxt) ∈ E — original link, leave it
                }
                pending.push((rid, *nh, *prefix));
            }
        }
    }

    let mut changes = 0;
    let mut filtered = BTreeSet::new();
    for (rid, nh, prefix) in pending {
        if deny_next_hop(patcher, net, &net.router(rid).name, &nh, prefix)? {
            changes += 1;
        }
        filtered.insert(rid);
    }
    Ok((changes, filtered.into_iter().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use crate::topo_anon::anonymize_topology;
    use confmask_net_types::PrefixAllocator;
    use confmask_netgen::smallnets::example_network;
    use confmask_sim::simulate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn anonymize_topo_then_fix(
        net: &confmask_config::NetworkConfigs,
        k_r: usize,
        seed: u64,
    ) -> (Patcher, crate::preprocess::Baseline, EquivOutcome) {
        let base = preprocess(net).unwrap();
        let mut patcher = Patcher::new(net.clone());
        let mut alloc = PrefixAllocator::new(net.used_prefixes());
        let mut rng = StdRng::seed_from_u64(seed);
        let links = anonymize_topology(&mut patcher, &mut alloc, &base, k_r, &mut rng).unwrap();
        let outcome = enforce_route_equivalence(&mut patcher, &base, links.len()).unwrap();
        (patcher, base, outcome)
    }

    #[test]
    fn example_network_data_plane_restored_exactly() {
        let net = example_network();
        let (patcher, base, outcome) = anonymize_topo_then_fix(&net, 4, 3);
        assert!(outcome.iterations >= 1);
        let after = simulate(patcher.network()).unwrap();
        assert!(
            after
                .dataplane
                .equivalent_on(&base.sim.dataplane, &base.real_hosts),
            "data plane must match the original exactly"
        );
        // The h1 → h4 path in particular is byte-identical (the §3.2 example).
        assert_eq!(
            after.dataplane.between("h1", "h4"),
            base.sim.dataplane.between("h1", "h4"),
        );
    }

    #[test]
    fn bgp_network_data_plane_restored() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::backbone());
        let (patcher, base, _) = anonymize_topo_then_fix(&net, 4, 9);
        let after = simulate(patcher.network()).unwrap();
        assert!(after
            .dataplane
            .equivalent_on(&base.sim.dataplane, &base.real_hosts));
    }

    #[test]
    fn no_fake_links_means_no_filters() {
        let net = example_network();
        let base = preprocess(&net).unwrap();
        let mut patcher = Patcher::new(net.clone());
        let outcome = enforce_route_equivalence(&mut patcher, &base, 0).unwrap();
        assert_eq!(outcome.filters_added, 0);
        assert_eq!(outcome.iterations, 1);
        assert_eq!(patcher.ledger().filter_lines, 0);
    }

    #[test]
    fn filters_land_only_on_added_attachment_points() {
        let net = example_network();
        let (patcher, _base, _) = anonymize_topo_then_fix(&net, 4, 5);
        // Every distribute-list binding added must reference an added
        // interface or an added BGP neighbor.
        for rc in patcher.network().routers.values() {
            let added_ifaces: BTreeSet<&str> = rc
                .interfaces
                .iter()
                .filter(|i| i.added)
                .map(|i| i.name.as_str())
                .collect();
            for d in rc.ospf.iter().flat_map(|o| o.distribute_lists.iter()) {
                if let confmask_config::DistributeListBinding::Interface {
                    interface, added, ..
                } = d
                {
                    assert!(*added);
                    assert!(
                        added_ifaces.contains(interface.as_str()),
                        "{}: filter bound to original interface {interface}",
                        rc.hostname
                    );
                }
            }
        }
    }

    #[test]
    fn iteration_count_bounded_by_fake_links() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
        let base = preprocess(&net).unwrap();
        let mut patcher = Patcher::new(net.clone());
        let mut alloc = PrefixAllocator::new(net.used_prefixes());
        let mut rng = StdRng::seed_from_u64(11);
        let links = anonymize_topology(&mut patcher, &mut alloc, &base, 6, &mut rng).unwrap();
        let outcome = enforce_route_equivalence(&mut patcher, &base, links.len()).unwrap();
        assert!(
            outcome.iterations <= links.len() + 5,
            "{} iterations for {} fake links",
            outcome.iterations,
            links.len()
        );
    }
}
