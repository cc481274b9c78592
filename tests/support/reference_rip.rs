//! A brute-force reference forwarding model for small RIP networks,
//! computed from a [`TopoSpec`]'s graph alone: per destination router, a
//! breadth-first hop count (the LAN's router advertises at metric 1, each
//! link adds 1, metric 16 is infinity), then every walk that steps to a
//! neighbour one metric lower (ECMP over equal-hop neighbours). It shares
//! no code with the simulator's Bellman–Ford, FIBs or data plane.
//!
//! Scope: RIP over point-to-point links, one `/24` LAN per host (what
//! `random_spec(rng, 1)` generates). No filters, OSPF or BGP. Pairs are
//! answered as [`RefPair`]s, so this model sits next to
//! `reference_ospf.rs` in the test that includes both.

use super::reference_ospf::RefPair;
use confmask_netgen::{IgpProtocol, TopoSpec};
use std::collections::{BTreeSet, VecDeque};

/// RIP's infinity metric: a router at this metric or more has no route.
const INFINITY: u32 = 16;

/// The graph of a RIP spec: router names, undirected links, and each
/// host's router.
#[derive(Debug, Clone)]
pub struct RipRef {
    routers: Vec<String>,
    links: Vec<(usize, usize)>,
    hosts: Vec<(String, usize)>,
}

impl RipRef {
    /// Reads the spec's routers, links (costs do not matter to RIP) and
    /// host placement.
    pub fn from_spec(spec: &TopoSpec) -> Self {
        assert!(
            spec.igp == IgpProtocol::Rip && spec.asn_of.is_none(),
            "the reference models pure RIP only"
        );
        RipRef {
            routers: spec.routers.clone(),
            links: spec.links.iter().map(|&(a, b, _)| (a, b)).collect(),
            hosts: spec.hosts.clone(),
        }
    }

    /// The links as router-name pairs, in spec order.
    pub fn link_names(&self) -> Vec<(String, String)> {
        self.links
            .iter()
            .map(|&(a, b)| (self.routers[a].clone(), self.routers[b].clone()))
            .collect()
    }

    /// The network with the `i`-th link removed.
    pub fn without_link(&self, i: usize) -> Self {
        let mut out = self.clone();
        out.links.remove(i);
        out
    }

    fn neighbours(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.links.iter().filter_map(move |&(a, b)| {
            if a == u {
                Some(b)
            } else if b == u {
                Some(a)
            } else {
                None
            }
        })
    }

    /// Every router's metric toward a LAN on router `advertiser`: 1 there,
    /// one more per link by breadth-first search, capped at [`INFINITY`].
    fn metrics(&self, advertiser: usize) -> Vec<u32> {
        let mut metric = vec![INFINITY; self.routers.len()];
        metric[advertiser] = 1;
        let mut queue = VecDeque::from([advertiser]);
        while let Some(u) = queue.pop_front() {
            let next = metric[u] + 1;
            if next >= INFINITY {
                continue;
            }
            for v in self.neighbours(u) {
                if metric[v] == INFINITY {
                    metric[v] = next;
                    queue.push_back(v);
                }
            }
        }
        metric
    }

    /// Every ordered pair of distinct hosts, by name, with what the
    /// reference forwards between them.
    pub fn pairs(&self) -> Vec<((String, String), RefPair)> {
        let mut out = Vec::new();
        for (t, rt) in &self.hosts {
            let metric = self.metrics(*rt);
            for (s, rs) in &self.hosts {
                if s == t {
                    continue;
                }
                let mut paths = BTreeSet::new();
                let mut blackhole = metric[*rs] >= INFINITY;
                if !blackhole {
                    let mut walk = vec![*rs];
                    self.walks(&metric, &mut walk, &mut |w| match w {
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
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Extends `walk` to every neighbour one metric closer to the
    /// advertiser, reporting each walk that reaches it (`Some`) and each
    /// that reaches a router with no such neighbour (`None`).
    fn walks(
        &self,
        metric: &[u32],
        walk: &mut Vec<usize>,
        found: &mut dyn FnMut(Option<&[usize]>),
    ) {
        let u = *walk.last().expect("walks start at the source router");
        if metric[u] == 1 {
            found(Some(walk));
            return;
        }
        let mut stuck = true;
        for v in self.neighbours(u) {
            if metric[v] + 1 == metric[u] {
                stuck = false;
                walk.push(v);
                self.walks(metric, walk, found);
                walk.pop();
            }
        }
        if stuck {
            found(None);
        }
    }
}
