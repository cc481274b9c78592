//! Step 2.2 — route anonymization (Algorithm 2, §5.3).
//!
//! To reach k-route anonymity (Definition 3.2), ConfMask adds `k_H − 1`
//! fake hosts per real host, attached to the *same ingress router* and
//! numbered out of address space the original network never uses. The fake
//! hosts alone multiply the host connections per (ingress, egress) router
//! pair; a randomized filtering pass (noise coefficient `p`) then perturbs
//! the fake hosts' routes so the filters added for route equivalence do not
//! single out the *real* routes ("the adversary cannot infer that the
//! routes influenced by distribute-lists are valid routes", §5.3).
//! Filters that would break reachability are rolled back (lines 5–7 of
//! Algorithm 2) — fake hosts must stay reachable or they would be trivially
//! identifiable.

use crate::preprocess::Baseline;
use crate::route_equiv::deny_next_hop;
use crate::Error;
use confmask_config::patch::Patcher;
use confmask_net_types::{HostId, Ipv4Addr, Ipv4Prefix, PrefixAllocator, RouterId};
use confmask_sim::dataplane::reachable_hosts_from_router;
use confmask_sim::NextHop;
use confmask_sim_delta::WarmControlPlane;
use rand::Rng;
use std::collections::BTreeSet;

/// Outcome of the route-anonymization stage.
#[derive(Debug, Clone, Default)]
pub struct RouteAnonOutcome {
    /// Names of the fake hosts created.
    pub fake_hosts: Vec<String>,
    /// Randomized filters added (net of rollbacks).
    pub filters_kept: usize,
    /// Filters rolled back because they broke reachability.
    pub filters_rolled_back: usize,
    /// Control-plane solves performed, warm refreshes and cold builds
    /// alike (one per re-simulation of the paper's Algorithm 2).
    pub sim_calls: usize,
}

/// Runs Algorithm 2: create fake hosts, then add randomized filters while
/// preserving reachability.
pub fn anonymize_routes<R: Rng>(
    patcher: &mut Patcher,
    alloc: &mut PrefixAllocator,
    base: &Baseline,
    k_h: usize,
    noise_p: f64,
    rng: &mut R,
) -> Result<RouteAnonOutcome, Error> {
    let mut out = RouteAnonOutcome::default();

    // --- Fake host creation -------------------------------------------------
    // Each real host gets k_H − 1 copies on its ingress router ("same
    // configuration as the original host except for hostname and IP").
    let originals: Vec<(String, String, bool)> = base
        .real_hosts
        .iter()
        .filter_map(|hname| {
            let hid = base.sim.net.host_id(hname)?;
            let (rid, _) = base.sim.net.host(hid).attachment?;
            let router = base.sim.net.router(rid);
            Some((hname.clone(), router.name.clone(), router.asn.is_some()))
        })
        .collect();

    for (hname, router, has_bgp) in &originals {
        for i in 1..k_h {
            let lan = alloc
                .allocate(24)
                .map_err(|e| Error::InvalidInput(format!("address space exhausted: {e}")))?;
            let fake_name = format!("{hname}-fake{i}");
            patcher.add_fake_host(router, &fake_name, lan, *has_bgp)?;
            out.fake_hosts.push(fake_name);
        }
    }
    if out.fake_hosts.is_empty() {
        return Ok(out);
    }

    // --- Randomized filtering (lines 1–7 of Algorithm 2) --------------------
    // One warm control plane for the whole loop: a round edits only r̃'s
    // filters, so only r̃'s RIB is refreshed (DESIGN.md §17).
    let mut cp = WarmControlPlane::new(patcher.network())?;
    out.sim_calls += 1;

    // Fake-host LAN prefixes and the hosts on them.
    let fake_hosts: Vec<(HostId, Ipv4Prefix, Ipv4Addr)> = cp
        .net()
        .hosts_iter()
        .filter(|(_, h)| h.added)
        .map(|(hid, h)| (hid, h.prefix, h.addr))
        .collect();
    let fake_prefixes: BTreeSet<Ipv4Prefix> = fake_hosts.iter().map(|&(_, p, _)| p).collect();

    for rid in (0..cp.net().router_count() as u32).map(RouterId) {
        let rname = cp.net().router(rid).name.clone();

        // Randomly deny fake-host FIB entries.
        let mut added_this_round: Vec<(Ipv4Prefix, NextHop)> = Vec::new();
        let entries: Vec<(Ipv4Prefix, Vec<NextHop>)> = cp
            .fibs()
            .of(rid)
            .entries()
            .filter(|e| fake_prefixes.contains(&e.prefix))
            .map(|e| (e.prefix, e.next_hops.to_vec()))
            .collect();
        for (prefix, next_hops) in entries {
            for nh in next_hops {
                if matches!(nh, NextHop::Deliver { .. }) {
                    continue; // the ingress router delivers directly
                }
                if rng.gen::<f64>() < noise_p
                    && deny_next_hop(patcher, cp.net(), &rname, &nh, prefix)?
                {
                    added_this_round.push((prefix, nh));
                }
            }
        }
        if added_this_round.is_empty() {
            continue;
        }

        // DstH_old[r̃] vs DstH_new[r̃], scoped to the fake hosts the round's
        // filters can affect: those whose address a filtered prefix covers.
        // A deny entry matches only prefixes inside it and every protocol
        // routes prefixes independently, so no other host's lookups change.
        let scope: Vec<HostId> = fake_hosts
            .iter()
            .filter(|(_, _, addr)| added_this_round.iter().any(|(p, _)| p.contains_addr(*addr)))
            .map(|&(hid, _, _)| hid)
            .collect();
        let old_reach = reachable_hosts_from_router(cp.net(), cp.fibs(), rid, &scope);
        cp.refresh(patcher.network(), &[rid])?;
        out.sim_calls += 1;
        let new_reach = reachable_hosts_from_router(cp.net(), cp.fibs(), rid, &scope);

        // Roll back filters that broke reachability.
        let lost: BTreeSet<Ipv4Prefix> = old_reach
            .difference(&new_reach)
            .map(|h| cp.net().host(*h).prefix)
            .collect();
        let mut rolled_back = 0;
        for (prefix, nh) in &added_this_round {
            if lost.contains(prefix) {
                remove_filter(patcher, cp.net(), &rname, nh, *prefix)?;
                rolled_back += 1;
            }
        }
        out.filters_rolled_back += rolled_back;
        out.filters_kept += added_this_round.len() - rolled_back;

        if rolled_back > 0 {
            cp.refresh(patcher.network(), &[rid])?;
            out.sim_calls += 1;
        }
    }

    Ok(out)
}

/// Undoes a filter added by [`deny_next_hop`] (Algorithm 2 line 7).
fn remove_filter(
    patcher: &mut Patcher,
    net: &confmask_sim::SimNetwork,
    router: &str,
    nh: &NextHop,
    prefix: Ipv4Prefix,
) -> Result<(), Error> {
    let NextHop::Forward {
        via_iface,
        session_peer,
        ..
    } = nh
    else {
        return Ok(());
    };
    let rid = net.router_id(router).expect("router exists");
    let point = match session_peer {
        Some(addr) => addr.to_string(),
        None => net.router(rid).ifaces[*via_iface].name.clone(),
    };
    let list = crate::route_equiv::reject_list_name(&point);
    patcher.remove_added_deny_entry(router, &list, prefix)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use confmask_netgen::smallnets::example_network;
    use confmask_sim::simulate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(k_h: usize, noise_p: f64, seed: u64) -> (Patcher, crate::preprocess::Baseline, RouteAnonOutcome) {
        let net = example_network();
        let base = preprocess(&net).unwrap();
        let mut patcher = Patcher::new(net.clone());
        let mut alloc = PrefixAllocator::new(net.used_prefixes());
        let mut rng = StdRng::seed_from_u64(seed);
        let out =
            anonymize_routes(&mut patcher, &mut alloc, &base, k_h, noise_p, &mut rng).unwrap();
        (patcher, base, out)
    }

    #[test]
    fn creates_k_minus_one_fakes_per_host() {
        let (patcher, base, out) = run(3, 0.0, 1);
        assert_eq!(out.fake_hosts.len(), base.real_hosts.len() * 2);
        assert_eq!(
            patcher.network().hosts.len(),
            base.real_hosts.len() * 3
        );
        // Fake hosts attach to the same ingress router as their original.
        let sim = simulate(patcher.network()).unwrap();
        for hname in &base.real_hosts {
            let orig = sim.net.host(sim.net.host_id(hname).unwrap());
            for i in 1..3 {
                let fake = sim
                    .net
                    .host(sim.net.host_id(&format!("{hname}-fake{i}")).unwrap());
                assert_eq!(
                    orig.attachment.map(|(r, _)| r),
                    fake.attachment.map(|(r, _)| r),
                    "{hname}-fake{i} shares the ingress router"
                );
            }
        }
    }

    #[test]
    fn k_h_1_adds_nothing() {
        let (patcher, base, out) = run(1, 0.5, 1);
        assert!(out.fake_hosts.is_empty());
        assert_eq!(patcher.network().hosts.len(), base.real_hosts.len());
    }

    #[test]
    fn reachability_is_preserved_even_with_high_noise() {
        let (patcher, _base, out) = run(2, 0.9, 7);
        let sim = simulate(patcher.network()).unwrap();
        for ps in sim.dataplane.pairs() {
            assert!(ps.clean(), "{ps:?} must stay reachable");
        }
        // With p=0.9 some filters were attempted; rollbacks are plausible.
        assert!(out.filters_kept + out.filters_rolled_back > 0);
    }

    #[test]
    fn real_paths_untouched_by_fake_host_filters() {
        let (patcher, base, _) = run(2, 0.9, 13);
        let sim = simulate(patcher.network()).unwrap();
        assert!(
            sim.dataplane
                .equivalent_on(&base.sim.dataplane, &base.real_hosts),
            "Algorithm 2 only touches fake-host prefixes"
        );
    }

    #[test]
    fn fake_lans_disjoint_from_original_space() {
        let net = example_network();
        let originals = net.used_prefixes();
        let (patcher, _, _) = run(4, 0.1, 3);
        for h in patcher.network().hosts.values().filter(|h| h.added) {
            let p = h.prefix().unwrap();
            for orig in &originals {
                assert!(!orig.overlaps(&p));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (p1, _, _) = run(2, 0.3, 42);
        let (p2, _, _) = run(2, 0.3, 42);
        assert_eq!(p1.network(), p2.network());
        assert_eq!(p1.ledger(), p2.ledger());
    }
}
