//! A brute-force reference forwarding model for small OSPF networks,
//! computed from a [`TopoSpec`]'s graph and link costs alone: all-pairs
//! shortest distances by Floyd–Warshall, then every equal-cost shortest
//! router path between each pair of hosts' routers. It shares no code with
//! the simulator's SPF, FIBs or data plane, so a differential against them
//! can catch a bug both sides of the simulator's own differentials share.
//!
//! Scope: single-area OSPF over point-to-point links, one `/24` LAN per
//! host (what `random_spec(rng, 0)` generates), and inbound
//! distribute-list filters ([`RefNet::with_filters`]). No static routes,
//! RIP or BGP.

use confmask_config::DEFAULT_OSPF_COST;
use confmask_net_types::Ipv4Prefix;
use confmask_netgen::TopoSpec;
use std::collections::{BTreeMap, BTreeSet};

const UNREACHABLE: u64 = u64::MAX;

/// What the reference says about one ordered host pair: its router paths
/// by name, `[src host, routers…, dst host]`, and whether some walk ends
/// in a blackhole: the destination's router is unreachable, or a walk
/// reaches a router whose filters left it no candidate. A pair can hold
/// both paths and a blackhole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPair {
    /// Every equal-cost shortest path that arrives.
    pub paths: BTreeSet<Vec<String>>,
    /// Some walk drops the traffic.
    pub blackhole: bool,
}

/// The graph of a spec: router names, undirected weighted links, and each
/// host's router.
#[derive(Debug, Clone)]
pub struct RefNet {
    routers: Vec<String>,
    /// `(a, b, cost)`, both directions at `cost`.
    links: Vec<(usize, usize, u64)>,
    hosts: Vec<(String, usize)>,
    /// Each host's LAN prefix, in `hosts` order; empty without filters.
    lans: Vec<Ipv4Prefix>,
    /// Inbound denies `(router, neighbour, deny)`: `router` takes no
    /// candidate hop toward `neighbour` for a destination LAN `deny`
    /// contains.
    denies: Vec<(usize, usize, Ipv4Prefix)>,
}

impl RefNet {
    /// Reads the spec's routers, links (an unset cost is the OSPF default)
    /// and host placement.
    pub fn from_spec(spec: &TopoSpec) -> Self {
        assert!(spec.asn_of.is_none(), "the reference models pure OSPF only");
        RefNet {
            routers: spec.routers.clone(),
            links: spec
                .links
                .iter()
                .map(|&(a, b, cost)| (a, b, u64::from(cost.unwrap_or(DEFAULT_OSPF_COST))))
                .collect(),
            hosts: spec.hosts.clone(),
            lans: Vec::new(),
            denies: Vec::new(),
        }
    }

    /// The network with inbound route filters. `lans` gives every host's
    /// LAN prefix by host name; each `(router, neighbour, deny)` is a deny
    /// entry bound to `router`'s interface toward `neighbour`, which drops
    /// that candidate hop toward every destination LAN `deny` equals or
    /// covers. Filters are RIB-local: distances stay those of the whole
    /// graph, and a denied hop drops out of that router's candidates only.
    pub fn with_filters(
        &self,
        lans: &BTreeMap<String, Ipv4Prefix>,
        denies: &[(String, String, Ipv4Prefix)],
    ) -> Self {
        let index = |name: &str| {
            self.routers
                .iter()
                .position(|r| r == name)
                .expect("filters sit on the spec's routers")
        };
        RefNet {
            lans: self.hosts.iter().map(|(h, _)| lans[h]).collect(),
            denies: denies
                .iter()
                .map(|(r, v, deny)| (index(r), index(v), *deny))
                .collect(),
            ..self.clone()
        }
    }

    /// The links as router-name pairs, in spec order.
    pub fn link_names(&self) -> Vec<(String, String)> {
        self.links
            .iter()
            .map(|&(a, b, _)| (self.routers[a].clone(), self.routers[b].clone()))
            .collect()
    }

    /// The network with the `i`-th link removed.
    pub fn without_link(&self, i: usize) -> Self {
        let mut out = self.clone();
        out.links.remove(i);
        out
    }

    /// Shortest distances between every pair of routers.
    fn distances(&self) -> Vec<Vec<u64>> {
        let n = self.routers.len();
        let mut d = vec![vec![UNREACHABLE; n]; n];
        for (u, row) in d.iter_mut().enumerate() {
            row[u] = 0;
        }
        for &(a, b, c) in &self.links {
            d[a][b] = d[a][b].min(c);
            d[b][a] = d[b][a].min(c);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if d[i][k] != UNREACHABLE && d[k][j] != UNREACHABLE {
                        d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
                    }
                }
            }
        }
        d
    }

    /// Every ordered pair of distinct hosts, by name, with what the
    /// reference forwards between them.
    pub fn pairs(&self) -> Vec<((String, String), RefPair)> {
        let d = self.distances();
        let mut out = Vec::new();
        for (s, rs) in &self.hosts {
            for (ti, (t, rt)) in self.hosts.iter().enumerate() {
                if s == t {
                    continue;
                }
                let mut paths = BTreeSet::new();
                let mut blackhole = d[*rs][*rt] == UNREACHABLE;
                if !blackhole {
                    let lan = self.lans.get(ti);
                    let mut walk = vec![*rs];
                    self.shortest_walks(&d, (*rt, lan), &mut walk, &mut |w| match w {
                        Some(w) => {
                            let mut path = vec![s.clone()];
                            path.extend(w.iter().map(|&r| self.routers[r].clone()));
                            path.push(t.clone());
                            paths.insert(path);
                        }
                        None => blackhole = true,
                    });
                }
                out.push(((s.clone(), t.clone()), RefPair { paths, blackhole }));
            }
        }
        out
    }

    /// Extends `walk` along every link that keeps it on a shortest path to
    /// the router `dst.0` (`cost + d[v][dst] == d[u][dst]`) and that no
    /// deny at its router drops for the LAN `dst.1`, reporting each walk
    /// that arrives (`Some`) and each that reaches a router with no such
    /// link left (`None`).
    fn shortest_walks(
        &self,
        d: &[Vec<u64>],
        dst: (usize, Option<&Ipv4Prefix>),
        walk: &mut Vec<usize>,
        found: &mut dyn FnMut(Option<&[usize]>),
    ) {
        let (t, lan) = dst;
        let u = *walk.last().expect("walks start at the source router");
        if u == t {
            found(Some(walk));
            return;
        }
        let denied = |v: usize| {
            lan.is_some_and(|lan| {
                self.denies
                    .iter()
                    .any(|&(r, n, deny)| (r, n) == (u, v) && deny.contains(lan))
            })
        };
        let mut stuck = true;
        for &(a, b, c) in &self.links {
            for (x, y) in [(a, b), (b, a)] {
                if x == u && d[y][t] != UNREACHABLE && c + d[y][t] == d[u][t] && !denied(y) {
                    stuck = false;
                    walk.push(y);
                    self.shortest_walks(d, dst, walk, found);
                    walk.pop();
                }
            }
        }
        if stuck {
            found(None);
        }
    }
}
