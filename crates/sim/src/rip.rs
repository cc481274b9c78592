//! RIP: distance-vector routing (synchronous Bellman–Ford to a fixpoint).
//!
//! Semantics:
//!
//! * hop-count metric, infinity at 16 (classic RIP);
//! * an inbound `distribute-list` drops the advertisement *on arrival*, so
//!   the filtered neighbor is excluded from the distance computation and the
//!   route falls back to the next-best neighbor — the distance-vector
//!   behaviour the SFE conditions of §5.1 describe ("no additional routing
//!   paths will be accepted", with graceful fallback);
//! * equal-metric neighbors form an ECMP set.
//!
//! Rows and distances share OSPF's flat, destination-indexed layout
//! ([`IgpRoutes`], and [`RipDist`] one destination-major array; DESIGN.md
//! §5).

use crate::network::{Peer, SimNetwork};
use crate::rows::{Dists, IgpRoutes, Rows};
use confmask_net_types::RouterId;

/// RIP's infinity metric.
pub const RIP_INFINITY: u32 = 16;

/// Converged per-destination distance vectors: `dist.get(d)[router]` is the
/// hop count from the router to destination `d` ([`RIP_INFINITY`] =
/// unreachable). A destination with no advertiser has no vector. The
/// incremental engine caches these to warm-start the Bellman–Ford fixpoint
/// after a failure.
pub type RipDist = Dists<u32>;

/// Computes RIP routes plus the converged distance vectors, optionally
/// warm-starting the Bellman–Ford iteration from a previously converged
/// state.
///
/// **Warm-start soundness** (why the result is byte-identical to a cold
/// run): the synchronous update `T(x)[u] = min over allowed neighbors v of
/// (x[v] + 1)`, with advertisers pinned at 1 and values capped at
/// [`RIP_INFINITY`], is monotone. Warm-starting is only sound when the
/// network changed by *removing* adjacencies or advertisers (administrative
/// shutdowns), because then `T_new(x) ≥ T_old(x)` pointwise, so the old
/// fixpoint `x₀ = T_old(x₀) ≤ T_new(x₀)` and the iterates climb
/// monotonically. They converge to a fixpoint of `T_new`, and `T_new` has a
/// *unique* fixpoint: in any fixpoint, a router with value `m < 16` heads a
/// strictly descending chain of allowed adjacencies ending at an advertiser
/// (non-advertisers always have value ≥ 2), which exhibits a real filtered
/// path of length `m`; induction over the true distance then pins every
/// value. Hence the warm iteration lands exactly where the cold one does.
/// The caller (the delta engine) is responsible for the removal-only
/// precondition; a cold run (`warm = None`) needs no precondition.
pub fn compute_with_state(net: &SimNetwork, warm: Option<&RipDist>) -> (IgpRoutes, RipDist) {
    let n = net.router_count();
    // Without a RIP-active interface no prefix has an advertiser, so the
    // fixpoint would run no round and find no route.
    if !net
        .routers
        .iter()
        .any(|r| r.ifaces.iter().any(|i| i.rip_active))
    {
        confmask_obs::counter_add("sim.rip.rounds", 0);
        return (IgpRoutes::empty(n), RipDist::default());
    }

    // RIP adjacency: both interfaces rip-active.
    let mut adj: Vec<Vec<(usize, RouterId)>> = vec![Vec::new(); n];
    for (rid, r) in net.routers_iter() {
        for (ii, iface) in r.ifaces.iter().enumerate() {
            if !iface.rip_active {
                continue;
            }
            for peer in &iface.peers {
                if let Peer::Router { router, iface: pi } = peer {
                    if net.router(*router).ifaces[*pi].rip_active {
                        adj[rid.0 as usize].push((ii, *router));
                    }
                }
            }
        }
    }

    let mut rows: Vec<Option<Rows>> = Vec::with_capacity(net.destinations.len());
    let mut dists = RipDist::with_capacity(n, net.destinations.len());
    let mut total_rounds = 0u64;
    let (mut dist, mut prev) = (vec![RIP_INFINITY; n], vec![RIP_INFINITY; n]);
    let mut advertiser = vec![false; n];
    for (d, (prefix, _hosts)) in net.destinations.iter().enumerate() {
        dist.fill(RIP_INFINITY);
        advertiser.fill(false);
        // Advertisers: connected + rip-active on the prefix; metric 1.
        for (rid, r) in net.routers_iter() {
            if r.ifaces.iter().any(|i| i.rip_active && i.prefix == *prefix) {
                dist[rid.0 as usize] = 1;
                advertiser[rid.0 as usize] = true;
            }
        }
        if dist.iter().all(|&d| d == RIP_INFINITY) {
            rows.push(None);
            dists.push(None);
            continue;
        }
        // Warm start: seed non-advertisers from the previous fixpoint (a
        // lower bound on the new one under removal-only perturbations).
        // A destination without a warm vector had no advertisers before,
        // so its previous values were all infinity — the cold seed.
        if let Some(w) = warm.and_then(|w| w.get(d)).filter(|w| w.len() == n) {
            for u in 0..n {
                if !advertiser[u] {
                    dist[u] = w[u];
                }
            }
        }
        // Cold runs converge from above within `n` rounds (classic
        // Bellman–Ford); warm runs climb from below, gaining at least one
        // unit somewhere per non-converged round, so `16n` bounds them.
        let max_rounds = if warm.is_some() {
            n * RIP_INFINITY as usize + 1
        } else {
            n
        };

        // Synchronous Bellman–Ford. An inbound filter on the iface toward a
        // neighbor drops that neighbor's advertisements for this prefix.
        for _round in 0..max_rounds {
            total_rounds += 1;
            let mut changed = false;
            prev.copy_from_slice(&dist);
            for (rid, r) in net.routers_iter() {
                let u = rid.0 as usize;
                // Connected metric (1) never changes.
                if r.ifaces.iter().any(|i| i.rip_active && i.prefix == *prefix) {
                    continue;
                }
                let mut best = RIP_INFINITY;
                for &(ii, v) in &adj[u] {
                    if r.ifaces[ii].igp_denies(prefix) {
                        continue;
                    }
                    let cand = prev[v.0 as usize].saturating_add(1).min(RIP_INFINITY);
                    best = best.min(cand);
                }
                if best != dist[u] {
                    dist[u] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Row `u` of this destination's rows is router `u`'s ECMP set; a
        // router out of reach, or with the prefix connected (its connected
        // route wins anyway), has none.
        let mut row = Rows::with_capacity(n, n);
        for (rid, r) in net.routers_iter() {
            let u = rid.0 as usize;
            if dist[u] >= RIP_INFINITY || r.ifaces.iter().any(|i| i.prefix == *prefix) {
                row.push([]);
                continue;
            }
            row.push_set(adj[u].iter().copied().filter(|&(ii, v)| {
                !r.ifaces[ii].igp_denies(prefix) && dist[v.0 as usize].saturating_add(1) == dist[u]
            }));
        }
        rows.push(Some(row));
        dists.push(Some(&dist));
    }
    confmask_obs::counter_add("sim.rip.rounds", total_rounds);
    (IgpRoutes::from_destinations(n, &rows), dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::Hop;
    use confmask_net_types::Ipv4Prefix;

    /// Router `r`'s row toward the destination `lan`.
    fn row<'a>(
        net: &SimNetwork,
        routes: &'a IgpRoutes,
        r: RouterId,
        lan: &Ipv4Prefix,
    ) -> &'a [Hop] {
        routes
            .of(r)
            .row(net.destination_index(lan).expect("a destination"))
    }
    use confmask_config::{parse_router, HostConfig, NetworkConfigs, RouterConfig};

    fn rip_router(name: &str, links: &[(&str, u8)], lan: Option<&str>) -> RouterConfig {
        let mut text = format!("hostname {name}\n!\n");
        for (i, (addr, len)) in links.iter().enumerate() {
            let mask = confmask_net_types::Ipv4Prefix::new(addr.parse().unwrap(), *len)
                .unwrap()
                .subnet_mask();
            text.push_str(&format!(
                "interface Ethernet0/{i}\n ip address {addr} {mask}\n!\n"
            ));
        }
        if let Some(lan) = lan {
            text.push_str(&format!(
                "interface Ethernet0/9\n ip address {lan} 255.255.255.0\n!\n"
            ));
        }
        text.push_str("router rip\n version 2\n network 0.0.0.0 0.0.0.0\n!\n");
        let mut rc = parse_router(&text).unwrap();
        // `network 0.0.0.0/0` — enable everywhere.
        rc.rip.as_mut().unwrap().networks[0].prefix = "0.0.0.0/0".parse().unwrap();
        rc
    }

    /// Line: r1 - r2 - r3, LANs on r1 and r3.
    fn line() -> NetworkConfigs {
        let r1 = rip_router("r1", &[("10.0.12.0", 31)], Some("10.1.1.1"));
        let r2 = rip_router("r2", &[("10.0.12.1", 31), ("10.0.23.0", 31)], None);
        let r3 = rip_router("r3", &[("10.0.23.1", 31)], Some("10.1.3.1"));
        let h1 = HostConfig {
            hostname: "h1".into(),
            iface_name: "eth0".into(),
            address: ("10.1.1.100".parse().unwrap(), 24),
            gateway: "10.1.1.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        let h3 = HostConfig {
            hostname: "h3".into(),
            iface_name: "eth0".into(),
            address: ("10.1.3.100".parse().unwrap(), 24),
            gateway: "10.1.3.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        NetworkConfigs::new([r1, r2, r3], [h1, h3])
    }

    #[test]
    fn hop_count_routing() {
        let net = SimNetwork::build(&line()).unwrap();
        let routes = compute_with_state(&net, None).0;
        let r1 = net.router_id("r1").unwrap();
        let r2 = net.router_id("r2").unwrap();
        let lan3: Ipv4Prefix = "10.1.3.0/24".parse().unwrap();
        assert_eq!(row(&net, &routes, r1, &lan3), &[(0, r2)]);
    }

    #[test]
    fn filter_falls_back_to_longer_path() {
        // Square: r1-r2-r4 and r1-r3-r4 (equal hops) + filter one way at r1.
        let r1 = rip_router(
            "r1",
            &[("10.0.12.0", 31), ("10.0.13.0", 31)],
            Some("10.1.1.1"),
        );
        let r2 = rip_router("r2", &[("10.0.12.1", 31), ("10.0.24.0", 31)], None);
        let r3 = rip_router("r3", &[("10.0.13.1", 31), ("10.0.34.0", 31)], None);
        let r4 = rip_router(
            "r4",
            &[("10.0.24.1", 31), ("10.0.34.1", 31)],
            Some("10.1.4.1"),
        );
        let h4 = HostConfig {
            hostname: "h4".into(),
            iface_name: "eth0".into(),
            address: ("10.1.4.100".parse().unwrap(), 24),
            gateway: "10.1.4.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        let mut cfgs = NetworkConfigs::new([r1, r2, r3, r4], [h4]);
        {
            let r1 = cfgs.routers.get_mut("r1").unwrap();
            r1.prefix_lists.push(confmask_config::PrefixList {
                name: "F".into(),
                entries: vec![confmask_config::PrefixListEntry {
                    seq: 5,
                    action: confmask_config::FilterAction::Deny,
                    prefix: "10.1.4.0/24".parse().unwrap(),
                    added: false,
                }],
            });
            r1.rip.as_mut().unwrap().distribute_lists.push(
                confmask_config::DistributeListBinding::Interface {
                    list: "F".into(),
                    interface: "Ethernet0/0".into(),
                    added: false,
                },
            );
        }
        let net = SimNetwork::build(&cfgs).unwrap();
        let routes = compute_with_state(&net, None).0;
        let r1 = net.router_id("r1").unwrap();
        let r3 = net.router_id("r3").unwrap();
        let lan4: Ipv4Prefix = "10.1.4.0/24".parse().unwrap();
        let hops = row(&net, &routes, r1, &lan4);
        assert_eq!(hops.len(), 1, "fallback to the unfiltered arm: {hops:?}");
        assert_eq!(hops[0].1, r3);
    }

    #[test]
    fn paths_beyond_infinity_are_unreachable() {
        // Chain of 18 routers: the far LAN is > 15 hops away.
        let mut routers = Vec::new();
        for i in 0..18u32 {
            let mut links: Vec<(String, u8)> = Vec::new();
            if i > 0 {
                links.push((format!("10.0.{}.1", i - 1), 31));
            }
            if i < 17 {
                links.push((format!("10.0.{i}.0"), 31));
            }
            let links_ref: Vec<(&str, u8)> = links.iter().map(|(a, l)| (a.as_str(), *l)).collect();
            let lan = if i == 17 { Some("10.9.9.1") } else { None };
            routers.push(rip_router(&format!("r{i:02}"), &links_ref, lan));
        }
        let h = HostConfig {
            hostname: "h".into(),
            iface_name: "eth0".into(),
            address: ("10.9.9.100".parse().unwrap(), 24),
            gateway: "10.9.9.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        let cfgs = NetworkConfigs::new(routers, [h]);
        let net = SimNetwork::build(&cfgs).unwrap();
        let routes = compute_with_state(&net, None).0;
        let far: Ipv4Prefix = "10.9.9.0/24".parse().unwrap();
        let r00 = net.router_id("r00").unwrap();
        let r10 = net.router_id("r10").unwrap();
        assert!(
            row(&net, &routes, r00, &far).is_empty(),
            "17 hops > infinity"
        );
        assert!(!row(&net, &routes, r10, &far).is_empty(), "7 hops is fine");
    }
}
