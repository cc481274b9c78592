//! Forwarding tables: RIB merge by administrative distance and
//! longest-prefix-match lookup.

use crate::bgp;
use crate::network::SimNetwork;
use crate::ospf;
use crate::rip;
use confmask_net_types::{Ipv4Addr, Ipv4Prefix, RouterId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which protocol supplied a route (Cisco administrative distances).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum RouteSource {
    /// Directly connected network.
    Connected,
    /// Static route (`ip route ...`).
    Static,
    /// Learned over an eBGP session.
    Ebgp,
    /// OSPF intra-domain route.
    Ospf,
    /// RIP route.
    Rip,
    /// Learned via iBGP (resolved through the IGP toward the egress).
    Ibgp,
}

/// Administrative distance (lower wins), following Cisco defaults.
pub type AdminDistance = u8;

impl RouteSource {
    /// The Cisco default administrative distance of this source.
    pub fn admin_distance(self) -> AdminDistance {
        match self {
            RouteSource::Connected => 0,
            RouteSource::Static => 1,
            RouteSource::Ebgp => 20,
            RouteSource::Ospf => 110,
            RouteSource::Rip => 120,
            RouteSource::Ibgp => 200,
        }
    }
}

/// One forwarding next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NextHop {
    /// The destination prefix is directly connected: deliver on `iface`.
    Deliver {
        /// Index of the LAN interface.
        iface: usize,
    },
    /// Forward to an adjacent router.
    Forward {
        /// Outgoing interface index on this router.
        via_iface: usize,
        /// The adjacent router.
        router: RouterId,
        /// For eBGP-learned routes, the session peer address (where an
        /// inbound filter would be attached).
        session_peer: Option<Ipv4Addr>,
    },
}

impl NextHop {
    /// The adjacent router, when forwarding (not delivering).
    pub fn router(&self) -> Option<RouterId> {
        match self {
            NextHop::Forward { router, .. } => Some(*router),
            NextHop::Deliver { .. } => None,
        }
    }
}

/// A FIB entry: the winning route for one destination prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Protocol that won the RIB race.
    pub source: RouteSource,
    /// ECMP next-hop set (non-empty).
    pub next_hops: Vec<NextHop>,
}

/// One router's forwarding table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fib {
    entries: BTreeMap<Ipv4Prefix, FibEntry>,
    /// Bit `l` is set when some entry has prefix length `l` (0–32).
    lens: u64,
}

impl Fib {
    /// Inserts an entry (replacing any entry at the same prefix).
    pub fn insert(&mut self, entry: FibEntry) {
        debug_assert!(
            Ipv4Prefix::new(entry.prefix.network(), entry.prefix.len())
                .is_ok_and(|p| p == entry.prefix),
            "FIB keys are canonical prefixes"
        );
        self.lens |= 1 << entry.prefix.len();
        self.entries.insert(entry.prefix, entry);
    }

    /// Longest-prefix-match lookup: probes the prefix lengths present,
    /// longest first, and returns the first exact-key hit.
    ///
    /// This is the longest matching entry because `Ipv4Prefix::new`
    /// clears the host bits, so at each length exactly one key can contain
    /// `addr` — the probe key itself.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&FibEntry> {
        let mut lens = self.lens;
        while lens != 0 {
            let len = 63 - lens.leading_zeros();
            lens &= !(1 << len);
            let key = Ipv4Prefix::new(addr, len as u8).expect("prefix lengths are at most 32");
            if let Some(entry) = self.entries.get(&key) {
                return Some(entry);
            }
        }
        None
    }

    /// Exact-prefix entry.
    pub fn entry(&self, prefix: &Ipv4Prefix) -> Option<&FibEntry> {
        self.entries.get(prefix)
    }

    /// All entries, ordered by prefix.
    pub fn entries(&self) -> impl Iterator<Item = &FibEntry> {
        self.entries.values()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// All routers' forwarding tables, indexed by [`RouterId`].
///
/// Each table sits behind an [`Arc`], so cloning a [`Fibs`] (and hence a
/// `Simulation`) and reusing an unchanged router's table in a delta
/// simulation cost a reference-count bump, not a deep copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fibs {
    /// Per-router tables.
    pub per_router: Vec<Arc<Fib>>,
}

impl Fibs {
    /// The FIB of a router.
    pub fn of(&self, r: RouterId) -> &Fib {
        &self.per_router[r.0 as usize]
    }
}

/// Where [`merge_router_fib`] reads one router's OSPF rows from: per
/// prefix, the router's candidate hops `(interface, neighbour)` in the
/// merged model's interface numbering, in row order.
///
/// A router's own table is a source as it stands. The incremental engine
/// passes a source that reads the rows it recomputed and renumbers the
/// cached rows of everything else as they are read, so no merged table is
/// ever assembled for the merge to read.
pub trait OspfRows {
    /// The row toward `prefix`, or `None` when the router has none.
    fn row(
        &self,
        prefix: &Ipv4Prefix,
    ) -> Option<impl ExactSizeIterator<Item = (usize, RouterId)> + '_>;
}

impl OspfRows for BTreeMap<Ipv4Prefix, Vec<(usize, RouterId)>> {
    fn row(
        &self,
        prefix: &Ipv4Prefix,
    ) -> Option<impl ExactSizeIterator<Item = (usize, RouterId)> + '_> {
        self.get(prefix).map(|hops| hops.iter().copied())
    }
}

/// Merges per-protocol RIB contributions into FIBs by administrative
/// distance. This is the *only* merge implementation: cold builds merge
/// every router here, and the warm control plane and the incremental
/// engine re-merge single routers through [`merge_router_fib`] (the
/// engine reading its OSPF rows through its own [`OspfRows`] source), so
/// cold, delta and warm simulations go through byte-identical merge logic.
pub fn merge_fibs(
    net: &SimNetwork,
    ospf_routes: &ospf::IgpRoutes,
    rip_routes: &rip::RipRoutes,
    bgp_routes: &[BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
) -> Fibs {
    Fibs {
        per_router: net
            .routers_iter()
            .map(|(rid, _)| {
                Arc::new(merge_router_fib(
                    net,
                    rid,
                    &ospf_routes[rid.0 as usize],
                    rip_routes,
                    bgp_routes,
                ))
            })
            .collect(),
    }
}

/// Merges one router's RIB contributions into its FIB — the per-router
/// body of [`merge_fibs`], exposed so the incremental engine can merge
/// only the routers a perturbation touched (and share the rest). `ospf`
/// is this router's OSPF rows; the RIP and BGP tables are every router's.
pub fn merge_router_fib(
    net: &SimNetwork,
    rid: RouterId,
    ospf: &impl OspfRows,
    rip_routes: &rip::RipRoutes,
    bgp_routes: &[BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
) -> Fib {
    let mut fib = Fib::default();
    let router = net.router(rid);
    let r = rid.0 as usize;
    // Static routes install at their own prefixes (longest-prefix match
    // then decides against dynamic routes; at equal prefixes, AD 1 wins
    // over everything but Connected). Unresolvable next hops are
    // ignored, like a real RIB.
    for sr in &router.static_routes {
        let resolved = router.ifaces.iter().enumerate().find_map(|(ii, iface)| {
            if !iface.prefix.contains_addr(sr.next_hop) {
                return None;
            }
            iface.peers.iter().find_map(|p| match p {
                crate::network::Peer::Router {
                    router: peer,
                    iface: pi,
                } => (net.router(*peer).ifaces[*pi].addr == sr.next_hop).then_some((ii, *peer)),
                crate::network::Peer::Host(_) => None,
            })
        });
        if let Some((via_iface, peer)) = resolved {
            let connected_same = router.ifaces.iter().any(|i| i.prefix == sr.prefix);
            if !connected_same {
                fib.insert(FibEntry {
                    prefix: sr.prefix,
                    source: RouteSource::Static,
                    next_hops: vec![NextHop::Forward {
                        via_iface,
                        router: peer,
                        session_peer: None,
                    }],
                });
            }
        }
    }
    for (prefix, _hosts) in net.destinations.iter() {
        // 1. Connected.
        if let Some(iface) = router.ifaces.iter().position(|i| i.prefix == *prefix) {
            fib.insert(FibEntry {
                prefix: *prefix,
                source: RouteSource::Connected,
                next_hops: vec![NextHop::Deliver { iface }],
            });
            continue;
        }
        // 1b. Static at the exact destination prefix (AD 1).
        if fib
            .entry(prefix)
            .is_some_and(|e| e.source == RouteSource::Static)
        {
            continue;
        }
        // 2. eBGP (AD 20).
        if let Some(b) = bgp_routes[r].get(prefix) {
            if b.source == RouteSource::Ebgp && !b.next_hops.is_empty() {
                fib.insert(FibEntry {
                    prefix: *prefix,
                    source: RouteSource::Ebgp,
                    next_hops: b
                        .next_hops
                        .iter()
                        .map(|&(via_iface, router)| NextHop::Forward {
                            via_iface,
                            router,
                            session_peer: b.session_peer,
                        })
                        .collect(),
                });
                continue;
            }
        }
        // 3. OSPF (AD 110).
        if let Some(hops) = ospf.row(prefix) {
            if hops.len() != 0 {
                fib.insert(FibEntry {
                    prefix: *prefix,
                    source: RouteSource::Ospf,
                    next_hops: hops
                        .map(|(via_iface, router)| NextHop::Forward {
                            via_iface,
                            router,
                            session_peer: None,
                        })
                        .collect(),
                });
                continue;
            }
        }
        // 4. RIP (AD 120).
        if let Some(hops) = rip_routes[r].get(prefix) {
            if !hops.is_empty() {
                fib.insert(FibEntry {
                    prefix: *prefix,
                    source: RouteSource::Rip,
                    next_hops: hops
                        .iter()
                        .map(|&(via_iface, router)| NextHop::Forward {
                            via_iface,
                            router,
                            session_peer: None,
                        })
                        .collect(),
                });
                continue;
            }
        }
        // 5. iBGP (AD 200).
        if let Some(b) = bgp_routes[r].get(prefix) {
            if b.source == RouteSource::Ibgp && !b.next_hops.is_empty() {
                fib.insert(FibEntry {
                    prefix: *prefix,
                    source: RouteSource::Ibgp,
                    next_hops: b
                        .next_hops
                        .iter()
                        .map(|&(via_iface, router)| NextHop::Forward {
                            via_iface,
                            router,
                            session_peer: None,
                        })
                        .collect(),
                });
            }
        }
    }

    fib
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut fib = Fib::default();
        fib.insert(FibEntry {
            prefix: p("10.0.0.0/8"),
            source: RouteSource::Ospf,
            next_hops: vec![NextHop::Deliver { iface: 0 }],
        });
        fib.insert(FibEntry {
            prefix: p("10.1.0.0/16"),
            source: RouteSource::Ospf,
            next_hops: vec![NextHop::Deliver { iface: 1 }],
        });
        let hit = fib.lookup("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(hit.prefix, p("10.1.0.0/16"));
        let hit = fib.lookup("10.2.2.3".parse().unwrap()).unwrap();
        assert_eq!(hit.prefix, p("10.0.0.0/8"));
        assert!(fib.lookup("11.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn lpm_reaches_default_and_host_routes() {
        let mut fib = Fib::default();
        for (prefix, iface) in [("0.0.0.0/0", 0), ("10.1.0.0/16", 1), ("10.1.2.3/32", 2)] {
            fib.insert(FibEntry {
                prefix: p(prefix),
                source: RouteSource::Static,
                next_hops: vec![NextHop::Deliver { iface }],
            });
        }
        let at = |addr: &str| fib.lookup(addr.parse().unwrap()).unwrap().prefix;
        assert_eq!(at("10.1.2.3"), p("10.1.2.3/32"));
        assert_eq!(at("10.1.2.4"), p("10.1.0.0/16"));
        assert_eq!(at("255.255.255.255"), p("0.0.0.0/0"));
        assert_eq!(at("0.0.0.0"), p("0.0.0.0/0"));
    }

    #[test]
    fn admin_distances_are_ordered() {
        assert!(RouteSource::Connected.admin_distance() < RouteSource::Ebgp.admin_distance());
        assert!(RouteSource::Ebgp.admin_distance() < RouteSource::Ospf.admin_distance());
        assert!(RouteSource::Ospf.admin_distance() < RouteSource::Rip.admin_distance());
        assert!(RouteSource::Rip.admin_distance() < RouteSource::Ibgp.admin_distance());
    }
}
