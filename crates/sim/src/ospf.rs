//! OSPF: link-state shortest-path-first routing with ECMP.
//!
//! Semantics (matching what ConfMask's algorithms rely on, §5.1/§5.2):
//!
//! * Adjacency requires OSPF to be active (covered by a `network` statement)
//!   on **both** ends of a link.
//! * The cost of a path is the sum of *outgoing* interface costs, plus the
//!   advertising router's LAN-interface cost (Cisco semantics).
//! * A `distribute-list ... in <iface>` does **not** change the link-state
//!   computation (LSAs flood regardless); it only removes candidate
//!   next-hops through that interface at RIB-installation time. Filtering
//!   an equal-cost candidate therefore leaves the other candidates intact —
//!   this is exactly the "equal-cost fake edge is rejected" behaviour of the
//!   link-state SFE conditions.
//!
//! Results are flat tables indexed by destination, a destination's index
//! being its position in [`SimNetwork::destinations`] (DESIGN.md §5): each
//! router's candidate rows are one [`Rows`] table ([`IgpRoutes`]), and the
//! distances one destination-major array ([`OspfDist`]). An SPF run builds
//! one destination's rows for every router at once; the tables are
//! transposed from those, so a converged control plane costs a few
//! allocations per router, not one per (router, destination).

use crate::network::{Peer, RouterNode, SimNetwork};
use crate::rows::{Dists, IgpRoutes, Rows};
use confmask_net_types::{Ipv4Prefix, RouterId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Converged per-destination distance vectors: `dist.get(d)[router]` is the
/// cost from the router to destination `d` (`u64::MAX` = unreachable). A
/// destination with no advertiser has no vector. The incremental engine
/// keeps these to decide whether a failed edge lies on any shortest-path
/// DAG.
pub type OspfDist = Dists<u64>;

/// One directed OSPF adjacency out of a router: `(iface_idx, neighbor,
/// neighbor_iface, cost_of_our_iface)`.
type OspfEdge = (usize, RouterId, usize, u32);

/// Directed OSPF adjacency of every router.
fn adjacency(net: &SimNetwork) -> Vec<Vec<OspfEdge>> {
    net.routers_iter()
        .map(|(rid, _)| router_adjacency(net, rid))
        .collect()
}

/// Directed OSPF adjacency out of one router: both ends of a link must be
/// OSPF-active.
fn router_adjacency(net: &SimNetwork, rid: RouterId) -> Vec<OspfEdge> {
    let mut edges = Vec::new();
    for (ii, iface) in net.router(rid).ifaces.iter().enumerate() {
        if !iface.ospf_active {
            continue;
        }
        for peer in &iface.peers {
            if let Peer::Router { router, iface: pi } = peer {
                if net.router(*router).ifaces[*pi].ospf_active {
                    edges.push((ii, *router, *pi, iface.cost));
                }
            }
        }
    }
    edges
}

/// Computes OSPF candidate next-hops plus the converged distance vectors
/// toward every destination (the state the incremental planner caches),
/// both indexed by destination. Destinations are independent, so the
/// per-destination multi-source Dijkstras fan out over the shared executor
/// on larger networks.
pub fn compute_with_state(net: &SimNetwork) -> (IgpRoutes, OspfDist) {
    let all: Vec<usize> = (0..net.destinations.len()).collect();
    compute_subset(net, &all)
}

/// Computes OSPF candidate next-hops and distances toward a *subset* of
/// the destinations, `dests` (indices into [`SimNetwork::destinations`]):
/// row `k` of each router's table, and vector `k`, are toward `dests[k]`.
/// The incremental engine calls this with only the destinations whose
/// shortest-path DAGs a failure touched; per-destination results are
/// independent, so each row and vector is byte-identical to the same
/// destination's in a full [`compute_with_state`] run.
pub fn compute_subset(net: &SimNetwork, dests: &[usize]) -> (IgpRoutes, OspfDist) {
    // One multi-source Dijkstra per destination (counted here, not in
    // `compute_one`, so the tally is independent of the thread fan-out).
    confmask_obs::counter_add("sim.ospf.spf_runs", dests.len() as u64);
    let n = net.router_count();
    if dests.is_empty() {
        return (IgpRoutes::empty(n), OspfDist::default());
    }
    let adj = adjacency(net);

    // Reverse adjacency for the multi-source Dijkstra toward a prefix:
    // rev[v] = [(u, cost(u→v))] for each forward edge u→v.
    let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (u, edges) in adj.iter().enumerate() {
        for &(_ii, v, _pi, cost) in edges {
            rev[v.0 as usize].push((u, cost));
        }
    }

    // Per-destination SPFs are independent: fan out over the shared
    // executor (dynamic chunk claiming, no static split, no hard-coded
    // worker cap) and merge by position, so the result is byte-identical
    // to a sequential run at any worker count. Small subsets stay inline —
    // the delta engine calls this with a handful of touched destinations
    // per scenario and the spawn cost would dominate.
    let spf = |&d: &usize| compute_one(net, &adj, &rev, &net.destinations[d].0);
    let per_dest: Vec<PrefixSpf> = if dests.len() >= 32 {
        confmask_exec::par_map(dests, spf)
    } else {
        dests.iter().map(spf).collect()
    };

    let mut dists = OspfDist::with_capacity(n, dests.len());
    let mut rows = Vec::with_capacity(dests.len());
    for spf in per_dest {
        let (row, dist) = spf.unzip();
        dists.push(dist.as_deref());
        rows.push(row);
    }
    (IgpRoutes::from_destinations(n, &rows), dists)
}

/// One destination's SPF result: every router's candidate row (row `u` is
/// router `u`'s) plus the distance vector, or `None` when the destination
/// has no advertiser.
type PrefixSpf = Option<(Rows, Vec<u64>)>;

/// The multi-source Dijkstra for a single destination prefix.
fn compute_one(
    net: &SimNetwork,
    adj: &[Vec<OspfEdge>],
    rev: &[Vec<(usize, u32)>],
    prefix: &Ipv4Prefix,
) -> PrefixSpf {
    let n = net.router_count();
    // Advertisers: routers with an OSPF-active interface exactly on the
    // prefix; seed cost is that interface's cost.
    let mut dist = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    for (rid, r) in net.routers_iter() {
        for iface in &r.ifaces {
            if iface.ospf_active && iface.prefix == *prefix {
                let seed = u64::from(iface.cost);
                if seed < dist[rid.0 as usize] {
                    dist[rid.0 as usize] = seed;
                    heap.push(Reverse((seed, rid.0 as usize)));
                }
            }
        }
    }
    if heap.is_empty() {
        return None;
    }
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for &(u, cost) in &rev[v] {
            let nd = d.saturating_add(u64::from(cost));
            if nd < dist[u] {
                dist[u] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }

    let mut rows = Rows::with_capacity(n, n);
    for (rid, r) in net.routers_iter() {
        let u = rid.0 as usize;
        candidate_hops(r, &adj[u], &dist, u, prefix, &mut rows);
    }
    Some((rows, dist))
}

/// Whether `prefix`'s converged distance vector `dist` over `net` survives
/// taking the interfaces `failed` (`(router, interface)` indices of `net`)
/// down, which removes every OSPF edge with a failed end. `None` when some
/// distance can change, so the prefix needs a fresh SPF; otherwise the
/// routers that lose a *tight* edge (`dist[u] == cost + dist[v]`), whose
/// candidate rows must be recomputed ([`candidate_rows`]). Every other
/// router keeps its tight edges, hence its row.
///
/// **Why it is exact.** Removing edges can only raise distances. A router
/// that loses a tight edge keeps its distance when it still has a
/// *witness*: a surviving seed interface on the prefix at cost `dist[u]`,
/// or a surviving tight edge of positive cost. Then every router with a
/// finite distance keeps a surviving tight path to a seed, by induction
/// on (distance, depth in the old shortest-path tree): a router that lost
/// no tight edge keeps its tree edge, whose end is no farther and one
/// level shallower; a router that lost one has a witness strictly closer.
/// So `dist` is still the least fixpoint the SPF computes. Failed
/// interfaces on the prefix itself change the seeds; callers treat such
/// prefixes as changed before asking.
pub fn distances_survive_removal(
    net: &SimNetwork,
    prefix: &Ipv4Prefix,
    dist: &[u64],
    failed: &[(usize, usize)],
) -> Option<Vec<usize>> {
    let down = |r: usize, i: usize| failed.contains(&(r, i));
    let tight = |u: usize, cost: u32, v: usize| {
        dist[v] != u64::MAX && dist[u] == u64::from(cost).saturating_add(dist[v])
    };
    let witness = |u: usize| {
        net.routers[u].ifaces.iter().enumerate().any(|(j, f)| {
            if !f.ospf_active || down(u, j) {
                return false;
            }
            if f.prefix == *prefix && u64::from(f.cost) == dist[u] {
                return true;
            }
            f.cost > 0
                && f.peers.iter().any(|p| match *p {
                    Peer::Router { router, iface } => {
                        let x = router.0 as usize;
                        net.routers[x].ifaces[iface].ospf_active
                            && !down(x, iface)
                            && tight(u, f.cost, x)
                    }
                    Peer::Host(_) => false,
                })
        })
    };
    let mut touched: Vec<usize> = Vec::new();
    for &(r, bi) in failed {
        let iface = &net.routers[r].ifaces[bi];
        if !iface.ospf_active {
            continue;
        }
        for peer in &iface.peers {
            let Peer::Router { router, iface: pi } = *peer else {
                continue;
            };
            let v = router.0 as usize;
            let peer_iface = &net.routers[v].ifaces[pi];
            if !peer_iface.ospf_active {
                continue;
            }
            for (u, cost, w) in [(r, iface.cost, v), (v, peer_iface.cost, r)] {
                if tight(u, cost, w) && !touched.contains(&u) {
                    if !witness(u) {
                        return None;
                    }
                    touched.push(u);
                }
            }
        }
    }
    Some(touched)
}

/// Router `r`'s candidate rows on `net` toward the destinations `dests`
/// (indices into [`SimNetwork::destinations`]), in that order, against
/// their converged distances `dists`: the candidate-hop rule over `r`'s
/// adjacency, which is built once. Row `k` is toward `dests[k]`, empty
/// where `r` has no candidate or the destination no advertiser.
pub fn candidate_rows(net: &SimNetwork, r: RouterId, dists: &OspfDist, dests: &[usize]) -> Rows {
    let (router, adj) = (net.router(r), router_adjacency(net, r));
    let mut rows = Rows::with_capacity(dests.len(), dests.len());
    for &d in dests {
        match dists.get(d) {
            Some(dist) => {
                let prefix = &net.destinations[d].0;
                candidate_hops(router, &adj, dist, r.0 as usize, prefix, &mut rows);
            }
            None => rows.push([]),
        }
    }
    rows
}

/// The candidate-hop rule: pushes router `u`'s OSPF row toward `prefix`
/// onto `rows`, given the prefix's converged distance vector and `u`'s
/// out-edges. An edge `u → v` is a candidate when `cost + dist[v] ==
/// dist[u]` and no inbound IGP filter on its interface denies `prefix`;
/// the row is sorted and deduplicated. Empty when `u` cannot reach the
/// prefix or advertises it (advertisers use their connected route).
///
/// The filters enter here and nowhere else — the distance vector does not
/// depend on them — which is what lets the incremental planner of
/// `confmask-sim-delta` re-apply one router's edited filters against
/// cached distances ([`candidate_rows`]). The cold SPF and the planner
/// both call this, so they cannot disagree on the rule.
fn candidate_hops(
    r: &RouterNode,
    adj_u: &[OspfEdge],
    dist: &[u64],
    u: usize,
    prefix: &Ipv4Prefix,
    rows: &mut Rows,
) {
    if dist[u] == u64::MAX || r.ifaces.iter().any(|i| i.prefix == *prefix) {
        rows.push([]);
        return;
    }
    rows.push_set(
        adj_u
            .iter()
            .filter(|&&(ii, v, _pi, cost)| {
                let dv = dist[v.0 as usize];
                dv != u64::MAX
                    && u64::from(cost).saturating_add(dv) == dist[u]
                    && !r.ifaces[ii].igp_denies(prefix)
            })
            .map(|&(ii, v, _, _)| (ii, v)),
    );
}

/// Router-to-router IGP shortest paths (used for iBGP egress resolution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterPaths {
    /// `dist[a][b]` = IGP cost from router `a` to router `b`
    /// (`u64::MAX` = unreachable).
    pub dist: Vec<Vec<u64>>,
    /// `next_hops[a][b]` = ECMP first hops `(iface, neighbor)` from `a`
    /// toward `b`.
    pub next_hops: Vec<Vec<Vec<(usize, RouterId)>>>,
}

/// Computes router-to-router IGP paths over intra-AS IGP adjacencies.
///
/// OSPF adjacencies are used when present; RIP adjacencies (hop cost 1) are
/// included for RIP-only networks. Links crossing AS boundaries are excluded
/// — inter-AS reachability is BGP's job.
pub fn router_paths(net: &SimNetwork) -> RouterPaths {
    let n = net.router_count();
    confmask_obs::counter_add("sim.ospf.spf_runs", n as u64);
    // Build a combined IGP adjacency.
    let mut adj: Vec<Vec<(usize, RouterId, u32)>> = vec![Vec::new(); n];
    for (rid, r) in net.routers_iter() {
        for (ii, iface) in r.ifaces.iter().enumerate() {
            for peer in &iface.peers {
                let Peer::Router { router, iface: pi } = peer else {
                    continue;
                };
                let peer_iface = &net.router(*router).ifaces[*pi];
                // Same-AS requirement (None == None counts as same).
                if r.asn != net.router(*router).asn {
                    continue;
                }
                let ospf = iface.ospf_active && peer_iface.ospf_active;
                let rip = iface.rip_active && peer_iface.rip_active;
                if ospf {
                    adj[rid.0 as usize].push((ii, *router, iface.cost));
                } else if rip {
                    adj[rid.0 as usize].push((ii, *router, 1));
                }
            }
        }
    }

    let mut dist = vec![vec![u64::MAX; n]; n];
    let mut next_hops = vec![vec![Vec::new(); n]; n];
    for src in 0..n {
        let d = &mut dist[src];
        d[src] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((du, u))) = heap.pop() {
            if du > d[u] {
                continue;
            }
            for &(_ii, v, cost) in &adj[u] {
                let nd = du.saturating_add(u64::from(cost));
                if nd < d[v.0 as usize] {
                    d[v.0 as usize] = nd;
                    heap.push(Reverse((nd, v.0 as usize)));
                }
            }
        }
        // First hops: neighbor v of src with cost(src→v) + dist[v→dst] == dist[src→dst].
        // Requires dist from each neighbor; compute after all Dijkstras.
    }
    // Second pass for first hops now that all dist rows exist.
    for src in 0..n {
        for dst in 0..n {
            if src == dst || dist[src][dst] == u64::MAX {
                continue;
            }
            let mut hops = Vec::new();
            for &(ii, v, cost) in &adj[src] {
                let via = u64::from(cost).saturating_add(dist[v.0 as usize][dst]);
                if via == dist[src][dst] {
                    hops.push((ii, v));
                }
            }
            hops.sort();
            hops.dedup();
            next_hops[src][dst] = hops;
        }
    }

    RouterPaths { dist, next_hops }
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
    use confmask_config::{parse_router, HostConfig, NetworkConfigs};

    /// Diamond: r1 —(1)— r2 —(1)— r4 and r1 —(10)— r3 —(10)— r4,
    /// host LANs on r1 and r4.
    fn diamond() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.12.0 255.255.255.254\n ip ospf cost 1\n!\ninterface Ethernet0/1\n ip address 10.0.13.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.12.1 255.255.255.254\n ip ospf cost 1\n!\ninterface Ethernet0/1\n ip address 10.0.24.0 255.255.255.254\n ip ospf cost 1\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let r3 = parse_router(
            "hostname r3\n!\ninterface Ethernet0/0\n ip address 10.0.13.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.34.0 255.255.255.254\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let r4 = parse_router(
            "hostname r4\n!\ninterface Ethernet0/0\n ip address 10.0.24.1 255.255.255.254\n ip ospf cost 1\n!\ninterface Ethernet0/1\n ip address 10.0.34.1 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.4.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let h1 = HostConfig {
            hostname: "h1".into(),
            iface_name: "eth0".into(),
            address: ("10.1.1.100".parse().unwrap(), 24),
            gateway: "10.1.1.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        let h4 = HostConfig {
            hostname: "h4".into(),
            iface_name: "eth0".into(),
            address: ("10.1.4.100".parse().unwrap(), 24),
            gateway: "10.1.4.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        NetworkConfigs::new([r1, r2, r3, r4], [h1, h4])
    }

    #[test]
    fn picks_cheapest_path() {
        let net = SimNetwork::build(&diamond()).unwrap();
        let routes = compute_with_state(&net).0;
        let r1 = net.router_id("r1").unwrap();
        let r2 = net.router_id("r2").unwrap();
        let lan4: Ipv4Prefix = "10.1.4.0/24".parse().unwrap();
        let hops = row(&net, &routes, r1, &lan4);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].1, r2);
    }

    #[test]
    fn equal_costs_give_ecmp() {
        // Raise the cheap path's cost so both sides cost the same:
        // r1→r2→r4 costs 1+1, r1→r3→r4 costs 10+10; set r1→r2 to 19? No —
        // instead drop explicit costs so every hop costs the default 10.
        let mut cfgs = diamond();
        for rc in cfgs.routers.values_mut() {
            for i in rc.interfaces.iter_mut() {
                i.ospf_cost = None;
            }
        }
        let net = SimNetwork::build(&cfgs).unwrap();
        let routes = compute_with_state(&net).0;
        let r1 = net.router_id("r1").unwrap();
        let lan4: Ipv4Prefix = "10.1.4.0/24".parse().unwrap();
        let hops = row(&net, &routes, r1, &lan4);
        assert_eq!(hops.len(), 2, "both diamond arms are equal-cost: {hops:?}");
    }

    #[test]
    fn filter_removes_candidate_without_recompute() {
        let mut cfgs = diamond();
        for rc in cfgs.routers.values_mut() {
            for i in rc.interfaces.iter_mut() {
                i.ospf_cost = None;
            }
        }
        // Deny the r4 LAN on r1's interface toward r2.
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
            r1.ospf.as_mut().unwrap().distribute_lists.push(
                confmask_config::DistributeListBinding::Interface {
                    list: "F".into(),
                    interface: "Ethernet0/0".into(),
                    added: false,
                },
            );
        }
        let net = SimNetwork::build(&cfgs).unwrap();
        let routes = compute_with_state(&net).0;
        let r1 = net.router_id("r1").unwrap();
        let r3 = net.router_id("r3").unwrap();
        let lan4: Ipv4Prefix = "10.1.4.0/24".parse().unwrap();
        let hops = row(&net, &routes, r1, &lan4);
        assert_eq!(hops.len(), 1, "only the unfiltered ECMP member remains");
        assert_eq!(hops[0].1, r3);
    }

    #[test]
    fn filtering_all_candidates_removes_the_route() {
        let mut cfgs = diamond();
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
            // The cheap path's only candidate is via Ethernet0/0 (cost 1 side).
            r1.ospf.as_mut().unwrap().distribute_lists.push(
                confmask_config::DistributeListBinding::Interface {
                    list: "F".into(),
                    interface: "Ethernet0/0".into(),
                    added: false,
                },
            );
        }
        let net = SimNetwork::build(&cfgs).unwrap();
        let routes = compute_with_state(&net).0;
        let r1 = net.router_id("r1").unwrap();
        let lan4: Ipv4Prefix = "10.1.4.0/24".parse().unwrap();
        // Link-state: cost structure unchanged; sole min-cost candidate
        // filtered ⇒ no OSPF route (no silent fallback to pricier paths).
        assert!(row(&net, &routes, r1, &lan4).is_empty());
    }

    #[test]
    fn router_paths_symmetric_diamond() {
        let net = SimNetwork::build(&diamond()).unwrap();
        let rp = router_paths(&net);
        let r1 = net.router_id("r1").unwrap().0 as usize;
        let r4 = net.router_id("r4").unwrap().0 as usize;
        assert_eq!(rp.dist[r1][r4], 2); // via the cost-1 links
        assert_eq!(rp.next_hops[r1][r4].len(), 1);
    }

    #[test]
    fn advertiser_needs_active_interface() {
        let mut cfgs = diamond();
        // Withdraw the r4 LAN from OSPF: network statements no longer cover it.
        let r4 = cfgs.routers.get_mut("r4").unwrap();
        r4.ospf.as_mut().unwrap().networks = vec![confmask_config::NetworkStatement {
            prefix: "10.0.0.0/16".parse().unwrap(),
            area: 0,
            added: false,
        }];
        let net = SimNetwork::build(&cfgs).unwrap();
        let routes = compute_with_state(&net).0;
        let r1 = net.router_id("r1").unwrap();
        let lan4: Ipv4Prefix = "10.1.4.0/24".parse().unwrap();
        assert!(row(&net, &routes, r1, &lan4).is_empty());
    }
}
