//! A brute-force reference forwarding model for small OSPF networks,
//! computed from a [`TopoSpec`]'s graph and link costs alone: all-pairs
//! shortest distances by Floyd–Warshall, then every equal-cost shortest
//! router path between each pair of hosts' routers. It shares no code with
//! the simulator's SPF, FIBs or data plane, so a differential against them
//! can catch a bug both sides of the simulator's own differentials share.
//!
//! Scope: single-area OSPF over point-to-point links, one `/24` LAN per
//! host (what `random_spec(rng, 0)` generates). No filters, static routes,
//! RIP or BGP.

use confmask_config::DEFAULT_OSPF_COST;
use confmask_netgen::TopoSpec;
use std::collections::BTreeSet;

const UNREACHABLE: u64 = u64::MAX;

/// What the reference says about one ordered host pair: its router paths
/// by name, `[src host, routers…, dst host]`, or a blackhole when the
/// destination's router is unreachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPair {
    /// Every equal-cost shortest path.
    pub paths: BTreeSet<Vec<String>>,
    /// No path exists.
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
            for (t, rt) in &self.hosts {
                if s == t {
                    continue;
                }
                let mut paths = BTreeSet::new();
                if d[*rs][*rt] != UNREACHABLE {
                    let mut walk = vec![*rs];
                    self.shortest_walks(&d, *rt, &mut walk, &mut |w| {
                        let mut path = vec![s.clone()];
                        path.extend(w.iter().map(|&r| self.routers[r].clone()));
                        path.push(t.clone());
                        paths.insert(path);
                    });
                }
                let blackhole = paths.is_empty();
                out.push(((s.clone(), t.clone()), RefPair { paths, blackhole }));
            }
        }
        out
    }

    /// Extends `walk` along every link that keeps it on a shortest path to
    /// `dst` (`cost + d[v][dst] == d[u][dst]`), reporting each walk that
    /// arrives.
    fn shortest_walks(
        &self,
        d: &[Vec<u64>],
        dst: usize,
        walk: &mut Vec<usize>,
        found: &mut dyn FnMut(&[usize]),
    ) {
        let u = *walk.last().expect("walks start at the source router");
        if u == dst {
            found(walk);
            return;
        }
        for &(a, b, c) in &self.links {
            for (x, y) in [(a, b), (b, a)] {
                if x == u && d[y][dst] != UNREACHABLE && c + d[y][dst] == d[u][dst] {
                    walk.push(y);
                    self.shortest_walks(d, dst, walk, found);
                    walk.pop();
                }
            }
        }
    }
}
