//! Forwarding tables: RIB merge by administrative distance and
//! longest-prefix-match lookup.
//!
//! A [`Fib`] is one flat, prefix-sorted table (DESIGN.md §5): an entry
//! array whose entries each own a span of one shared next-hop vector. A
//! [`FibBuilder`] assembles one, and [`PrefixMerge::merge_prefix`] is the
//! one rule that decides an entry.

use crate::bgp;
use crate::network::{RouterNode, SimNetwork};
use crate::rows::{Footprint, IgpRoutes, Rows};
use confmask_net_types::{HostId, Ipv4Addr, Ipv4Prefix, RouterId};
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

    /// This hop with its interface index passed through `iface` (a
    /// renumbering); `None` when `iface` maps the index to nothing.
    pub fn renumbered(self, iface: impl FnOnce(usize) -> Option<usize>) -> Option<NextHop> {
        Some(match self {
            NextHop::Deliver { iface: i } => NextHop::Deliver { iface: iface(i)? },
            NextHop::Forward {
                via_iface,
                router,
                session_peer,
            } => NextHop::Forward {
                via_iface: iface(via_iface)?,
                router,
                session_peer,
            },
        })
    }
}

/// A FIB entry: the winning route for one destination prefix, borrowed
/// from its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibEntry<'a> {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Protocol that won the RIB race.
    pub source: RouteSource,
    /// ECMP next-hop set (non-empty).
    pub next_hops: &'a [NextHop],
}

/// One entry of a [`Fib`]: its key, its source and where its next hops
/// end in the table's shared hop vector (they start at the previous
/// entry's end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    prefix: Ipv4Prefix,
    source: RouteSource,
    end: u32,
}

/// One router's forwarding table: one prefix-sorted entry array whose
/// entries each own a span of one shared next-hop vector, so a table is
/// two allocations however many entries it has. The layout is canonical
/// (unique keys, ascending, hop spans in entry order), so two tables are
/// equal exactly when their entries are. Build one with [`FibBuilder`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fib {
    slots: Vec<Slot>,
    hops: Vec<NextHop>,
    /// Bit `l` is set when some entry has prefix length `l` (0–32).
    lens: u64,
}

impl Fib {
    fn at(&self, i: usize) -> FibEntry<'_> {
        let start = if i == 0 { 0 } else { self.slots[i - 1].end };
        let slot = &self.slots[i];
        FibEntry {
            prefix: slot.prefix,
            source: slot.source,
            next_hops: &self.hops[start as usize..slot.end as usize],
        }
    }

    fn find(&self, prefix: &Ipv4Prefix) -> Option<usize> {
        self.slots.binary_search_by(|s| s.prefix.cmp(prefix)).ok()
    }

    /// Longest-prefix-match lookup: probes the prefix lengths present,
    /// longest first, and returns the first exact-key hit.
    ///
    /// This is the longest matching entry because `Ipv4Prefix::new`
    /// clears the host bits, so at each length exactly one key can contain
    /// `addr` — the probe key itself.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<FibEntry<'_>> {
        let mut lens = self.lens;
        while lens != 0 {
            let len = 63 - lens.leading_zeros();
            lens &= !(1 << len);
            let key = Ipv4Prefix::new(addr, len as u8).expect("prefix lengths are at most 32");
            if let Some(i) = self.find(&key) {
                return Some(self.at(i));
            }
        }
        None
    }

    /// Exact-prefix entry.
    pub fn entry(&self, prefix: &Ipv4Prefix) -> Option<FibEntry<'_>> {
        self.find(prefix).map(|i| self.at(i))
    }

    /// All entries, ordered by prefix.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = FibEntry<'_>> {
        (0..self.slots.len()).map(|i| self.at(i))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// A copy of this table with the entries at `owned` (ascending)
    /// replaced: `merge` pushes the `k`-th owned prefix's new entry, or
    /// none, when called with `k`, and every other entry is copied with its
    /// next hops passed through `renumber`. `None` when `renumber` rejects
    /// a hop of a copied entry.
    pub fn patched(
        &self,
        owned: &[Ipv4Prefix],
        renumber: impl Fn(NextHop) -> Option<NextHop>,
        mut merge: impl FnMut(&mut FibBuilder, usize),
    ) -> Option<Fib> {
        debug_assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned keys ascend");
        let mut out = FibBuilder::with_capacity(self.len() + owned.len(), self.hops.len());
        let mut owned = owned.iter().enumerate().peekable();
        let mut start = 0;
        for slot in &self.slots {
            let mut replaced = false;
            while let Some((k, p)) = owned.next_if(|(_, p)| **p <= slot.prefix) {
                merge(&mut out, k);
                replaced = *p == slot.prefix;
            }
            let hops = &self.hops[start as usize..slot.end as usize];
            start = slot.end;
            if replaced {
                continue;
            }
            for &hop in hops {
                out.hops.push(renumber(hop)?);
            }
            out.push_slot(slot.prefix, slot.source);
        }
        for (k, _) in owned {
            merge(&mut out, k);
        }
        Some(out.build())
    }
}

/// Assembles a [`Fib`]. Entries may be pushed in any order; at a prefix
/// pushed more than once the last push wins.
#[derive(Debug, Default)]
pub struct FibBuilder {
    slots: Vec<Slot>,
    hops: Vec<NextHop>,
    /// Some push did not come strictly after the one before it.
    unsorted: bool,
}

impl FibBuilder {
    /// A builder with room for `entries` entries and `hops` next hops.
    pub fn with_capacity(entries: usize, hops: usize) -> Self {
        FibBuilder {
            slots: Vec::with_capacity(entries),
            hops: Vec::with_capacity(hops),
            unsorted: false,
        }
    }

    /// Adds the entry `prefix → next_hops`, won by `source`.
    pub fn push(
        &mut self,
        prefix: Ipv4Prefix,
        source: RouteSource,
        next_hops: impl IntoIterator<Item = NextHop>,
    ) {
        self.hops.extend(next_hops);
        self.push_slot(prefix, source);
    }

    /// Closes an entry over the hops pushed since the previous one.
    fn push_slot(&mut self, prefix: Ipv4Prefix, source: RouteSource) {
        debug_assert!(
            Ipv4Prefix::new(prefix.network(), prefix.len()).is_ok_and(|p| p == prefix),
            "FIB keys are canonical prefixes"
        );
        self.unsorted |= self.slots.last().is_some_and(|s| s.prefix >= prefix);
        self.slots.push(Slot {
            prefix,
            source,
            end: u32::try_from(self.hops.len()).expect("a FIB holds fewer than 2^32 next hops"),
        });
    }

    /// The table: entries sorted by prefix, the last push at each prefix
    /// kept.
    pub fn build(self) -> Fib {
        let FibBuilder {
            slots,
            hops,
            unsorted,
        } = self;
        let (slots, hops) = if unsorted {
            // A stable sort keeps pushes at one prefix in push order, so
            // the last of each run is the one that wins.
            let mut order: Vec<usize> = (0..slots.len()).collect();
            order.sort_by_key(|&i| slots[i].prefix);
            let mut sorted = FibBuilder::with_capacity(slots.len(), hops.len());
            for (k, &i) in order.iter().enumerate() {
                if order
                    .get(k + 1)
                    .is_some_and(|&j| slots[j].prefix == slots[i].prefix)
                {
                    continue;
                }
                let start = if i == 0 { 0 } else { slots[i - 1].end };
                sorted
                    .hops
                    .extend_from_slice(&hops[start as usize..slots[i].end as usize]);
                sorted.push_slot(slots[i].prefix, slots[i].source);
            }
            (sorted.slots, sorted.hops)
        } else {
            (slots, hops)
        };
        let lens = slots.iter().fold(0, |m, s| m | 1 << s.prefix.len());
        Fib { slots, hops, lens }
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

    /// The heap these tables own, each table's `Arc` block included.
    pub fn footprint(&self) -> Footprint {
        Footprint::of_vec(&self.per_router)
            + self
                .per_router
                .iter()
                .map(|fib| {
                    Footprint::of_arc(&**fib)
                        + Footprint::of_vec(&fib.slots)
                        + Footprint::of_vec(&fib.hops)
                })
                .sum()
    }
}

/// Where [`PrefixMerge`] reads one router's OSPF rows from: per
/// destination index, the router's candidate hops `(interface,
/// neighbour)` in the merged model's interface numbering, in row order
/// (none when the router has no row).
///
/// A router's own table is a source as it stands. The incremental engine
/// passes a source that reads the rows it recomputed and renumbers the
/// cached rows of everything else as they are read, so no merged table is
/// ever assembled for the merge to read.
pub trait OspfRows {
    /// The row toward destination `d`.
    fn row(&self, d: usize) -> impl ExactSizeIterator<Item = (usize, RouterId)> + '_;
}

impl OspfRows for Rows {
    fn row(&self, d: usize) -> impl ExactSizeIterator<Item = (usize, RouterId)> + '_ {
        Rows::row(self, d).iter().copied()
    }
}

/// Merges per-protocol RIB contributions into FIBs by administrative
/// distance, one [`merge_router_fib`] per router.
pub fn merge_fibs(
    net: &SimNetwork,
    ospf_routes: &IgpRoutes,
    rip_routes: &IgpRoutes,
    bgp_routes: &[BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
) -> Fibs {
    Fibs {
        per_router: net
            .routers_iter()
            .map(|(rid, _)| {
                Arc::new(merge_router_fib(
                    net,
                    rid,
                    ospf_routes.of(rid),
                    rip_routes,
                    bgp_routes,
                ))
            })
            .collect(),
    }
}

/// Merges one router's RIB contributions into its FIB: its static routes,
/// then [`PrefixMerge::merge_prefix`] at every destination prefix that no
/// static route claims. `ospf` is this router's OSPF rows; the RIP and BGP
/// tables are every router's. Cold builds merge every router here, and the
/// incremental planner re-merges the routers an edit (a filter edit or a
/// shutdown) may have changed here or, prefix by prefix, through
/// [`Fib::patched`].
pub fn merge_router_fib(
    net: &SimNetwork,
    rid: RouterId,
    ospf: &impl OspfRows,
    rip_routes: &IgpRoutes,
    bgp_routes: &[BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
) -> Fib {
    let router = net.router(rid);
    let mut fib = FibBuilder::with_capacity(
        net.destinations.len() + router.static_routes.len(),
        net.destinations.len(),
    );
    // Static routes install at their own prefixes (longest-prefix match
    // then decides against dynamic routes; at equal prefixes, AD 1 wins
    // over everything but Connected, and a static route at a connected
    // prefix is not installed). Unresolvable next hops are ignored, like a
    // real RIB.
    let mut statics: Vec<Ipv4Prefix> = Vec::new();
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
                fib.push(
                    sr.prefix,
                    RouteSource::Static,
                    [NextHop::Forward {
                        via_iface,
                        router: peer,
                        session_peer: None,
                    }],
                );
                statics.push(sr.prefix);
            }
        }
    }
    let merge = PrefixMerge::new(net, rid, ospf, rip_routes, bgp_routes);
    for (d, (prefix, _hosts)) in net.destinations.iter().enumerate() {
        if !statics.contains(prefix) {
            merge.merge_prefix(&mut fib, d);
        }
    }
    fib.build()
}

/// One router's RIB contributions, and the per-prefix rule that merges
/// them by administrative distance. This is the *only* merge rule: cold
/// builds and the incremental planner both reach it, so cold and
/// incremental simulations go through byte-identical merge logic.
pub struct PrefixMerge<'a, O> {
    router: &'a RouterNode,
    destinations: &'a [(Ipv4Prefix, Vec<HostId>)],
    ospf: &'a O,
    rip: &'a Rows,
    bgp: &'a BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>,
}

impl<'a, O: OspfRows> PrefixMerge<'a, O> {
    /// Router `rid`'s inputs: its OSPF rows `ospf`, and its rows of every
    /// router's RIP and BGP tables.
    pub fn new(
        net: &'a SimNetwork,
        rid: RouterId,
        ospf: &'a O,
        rip_routes: &'a IgpRoutes,
        bgp_routes: &'a [BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
    ) -> Self {
        PrefixMerge {
            router: net.router(rid),
            destinations: &net.destinations,
            ospf,
            rip: rip_routes.of(rid),
            bgp: &bgp_routes[rid.0 as usize],
        }
    }

    /// Pushes the winning route toward destination `d` (an index into
    /// [`SimNetwork::destinations`]), if any protocol has one, onto `fib`:
    /// connected, then eBGP, OSPF, RIP and iBGP (a static route at the
    /// destination's prefix is the caller's to honour).
    pub fn merge_prefix(&self, fib: &mut FibBuilder, d: usize) {
        let prefix = &self.destinations[d].0;
        let forward = |&(via_iface, router): &(usize, RouterId), session_peer| NextHop::Forward {
            via_iface,
            router,
            session_peer,
        };
        // 1. Connected.
        if let Some(iface) = self.router.ifaces.iter().position(|i| i.prefix == *prefix) {
            fib.push(
                *prefix,
                RouteSource::Connected,
                [NextHop::Deliver { iface }],
            );
            return;
        }
        let bgp = self.bgp.get(prefix).filter(|b| !b.next_hops.is_empty());
        // 2. eBGP (AD 20).
        if let Some(b) = bgp.filter(|b| b.source == RouteSource::Ebgp) {
            let hops = b.next_hops.iter().map(|h| forward(h, b.session_peer));
            fib.push(*prefix, RouteSource::Ebgp, hops);
            return;
        }
        // 3. OSPF (AD 110).
        let hops = self.ospf.row(d);
        if hops.len() != 0 {
            fib.push(*prefix, RouteSource::Ospf, hops.map(|h| forward(&h, None)));
            return;
        }
        // 4. RIP (AD 120).
        let hops = self.rip.row(d);
        if !hops.is_empty() {
            fib.push(
                *prefix,
                RouteSource::Rip,
                hops.iter().map(|h| forward(h, None)),
            );
            return;
        }
        // 5. iBGP (AD 200).
        if let Some(b) = bgp.filter(|b| b.source == RouteSource::Ibgp) {
            let hops = b.next_hops.iter().map(|h| forward(h, None));
            fib.push(*prefix, RouteSource::Ibgp, hops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut fib = FibBuilder::default();
        fib.push(
            p("10.1.0.0/16"),
            RouteSource::Ospf,
            [NextHop::Deliver { iface: 1 }],
        );
        fib.push(
            p("10.0.0.0/8"),
            RouteSource::Ospf,
            [NextHop::Deliver { iface: 0 }],
        );
        let fib = fib.build();
        let hit = fib.lookup("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(hit.prefix, p("10.1.0.0/16"));
        let hit = fib.lookup("10.2.2.3".parse().unwrap()).unwrap();
        assert_eq!(hit.prefix, p("10.0.0.0/8"));
        assert!(fib.lookup("11.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn lpm_reaches_default_and_host_routes() {
        let mut fib = FibBuilder::default();
        for (prefix, iface) in [("0.0.0.0/0", 0), ("10.1.0.0/16", 1), ("10.1.2.3/32", 2)] {
            fib.push(p(prefix), RouteSource::Static, [NextHop::Deliver { iface }]);
        }
        let fib = fib.build();
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
