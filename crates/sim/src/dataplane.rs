//! Data-plane extraction: host-to-host forwarding paths, traceroute,
//! reachability, loop and black-hole detection.
//!
//! The data plane `DP` of §3.1 is "the collection of all host-to-host
//! routing paths in the network"; each path is a node sequence
//! `(h_s, r_1, …, r_n, h_d)`. Paths are enumerated by walking FIBs with
//! ECMP branching, which is exactly what Batfish's traceroute question does
//! for the original prototype.
//!
//! Paths are held as router ids ([`PathSet`]), shared between the pairs
//! behind one gateway, and read as names only through [`Pair::paths`].

use crate::error::SimError;
use crate::fib::{Fibs, NextHop};
use crate::network::{HostNode, SimNetwork};
use confmask_net_types::{HostId, RouterId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cap on enumerated paths per host pair (ECMP explosion guard; far above
/// anything the evaluation networks produce).
pub const MAX_PATHS_PER_PAIR: usize = 256;

/// A fixed-width bitset over the pair indices of an interned host-pair
/// table: one bit per ordered host pair, packed 64 per word. The streaming
/// fault sweep uses it as the violated-pair bitmap of a scenario digest —
/// a network with 3 000 pairs costs 376 bytes per retained scenario
/// instead of a `BTreeMap` keyed by `(String, String)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairBits {
    bits: Vec<u64>,
    len: usize,
}

impl PairBits {
    /// An all-zero bitset over `len` pair indices.
    pub fn new(len: usize) -> Self {
        PairBits {
            bits: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of pair indices covered (bit capacity, not popcount).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset covers zero pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "pair index {i} out of range {}", self.len);
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i` (`false` when out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            })
        })
    }

    /// The packed words, least-significant pair first (canonical encoding).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Heap bytes retained by this bitset.
    pub fn retained_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }
}

/// The forwarding behaviour between one (src, dst) host pair, over router
/// ids.
///
/// Every path is a span into one flat hop vector: the routers
/// `r_1, …, r_n` between the two hosts, whose endpoints the pair implies.
/// A span of length zero is the same-LAN direct path (`[h_s, h_d]`). Ids
/// index the router table of the network or [`DataPlane`] the set belongs
/// to (`RouterId`s follow hostname order, [`SimNetwork::build`]), so a set
/// reads as names only through its data plane ([`Pair::paths`]) and is
/// compared with another network's through a [`NameJoin`].
///
/// `==` compares the flags and the id paths in order, which is name
/// equality for two sets over the same router table.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    /// Flat hop storage: router ids of every span, back to back.
    hops: Vec<RouterId>,
    /// One `(start, len)` span into `hops` per path.
    spans: Vec<(u32, u32)>,
    /// Some branch dropped traffic (no FIB entry / undeliverable).
    pub blackhole: bool,
    /// Some branch entered a forwarding loop.
    pub has_loop: bool,
}

impl PartialEq for PathSet {
    fn eq(&self, other: &Self) -> bool {
        NameJoin::IDENTITY.same(self, other)
    }
}

impl Eq for PathSet {}

impl PathSet {
    /// No path and a black hole: what an unattached source reaches, and
    /// what a pair missing from a data plane reads as.
    pub fn blackholed() -> PathSet {
        PathSet {
            blackhole: true,
            ..PathSet::default()
        }
    }

    /// The one direct path between two hosts on a LAN segment: a single
    /// zero-length span.
    pub fn direct() -> PathSet {
        let mut ps = PathSet::default();
        ps.push_path(&[]);
        ps
    }

    /// Fully reachable: at least one path and no anomalous branch.
    pub fn clean(&self) -> bool {
        !self.spans.is_empty() && !self.blackhole && !self.has_loop
    }

    /// Number of paths.
    pub fn path_count(&self) -> usize {
        self.spans.len()
    }

    /// The set's [`PathShape`].
    pub fn shape(&self) -> PathShape {
        PathShape {
            paths: self.spans.len(),
            hops: self.hops.len(),
            blackhole: self.blackhole,
            has_loop: self.has_loop,
        }
    }

    /// Iterates the paths as router-id slices (host endpoints excluded),
    /// in the set's order.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &[RouterId]> {
        self.spans
            .iter()
            .map(|&(start, len)| &self.hops[start as usize..(start + len) as usize])
    }

    /// Resets the set for the next pair, keeping the allocations.
    fn clear(&mut self) {
        self.hops.clear();
        self.spans.clear();
        self.blackhole = false;
        self.has_loop = false;
    }

    fn push_path(&mut self, walk: &[RouterId]) {
        let start = self.hops.len() as u32;
        self.hops.extend_from_slice(walk);
        self.spans.push((start, walk.len() as u32));
    }

    /// Sorts spans by hop sequence and drops duplicates. Ids follow
    /// hostname order, so this is the name order of the paths.
    fn sort_dedup(&mut self) {
        let PathSet { hops, spans, .. } = self;
        let seg = |&(start, len): &(u32, u32)| &hops[start as usize..(start + len) as usize];
        spans.sort_by(|a, b| seg(a).cmp(seg(b)));
        spans.dedup_by(|a, b| seg(a) == seg(b));
    }
}

/// What two equal path sets agree on without reading a hop: the path and
/// hop counts and the two flags. Two sets of different shapes differ, under
/// any [`NameJoin`]; two of one shape may still differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathShape {
    /// Number of paths.
    pub paths: usize,
    /// Hops summed over the paths.
    pub hops: usize,
    /// Some branch dropped traffic.
    pub blackhole: bool,
    /// Some branch entered a forwarding loop.
    pub has_loop: bool,
}

/// The join by name of one name-sorted table (routers or hosts) onto
/// another: for each id of the first, the id of the same name in the
/// second. It is computed once per pair of tables, and is the identity
/// when the tables are equal, so same-table comparisons stay slice
/// compares.
///
/// Both tables are sorted, so the join is monotone: it keeps the relative
/// order of ids. Two path sets that hold the same names therefore hold
/// them in the same order on both sides, and comparing them span by span
/// after mapping each hop is exactly comparing their name paths.
#[derive(Debug, Clone)]
pub struct NameJoin {
    /// `None` for equal tables; else per id of the first table, its id in
    /// the second or [`NameJoin::MISSING`].
    map: Option<Vec<u32>>,
}

impl NameJoin {
    const IDENTITY: NameJoin = NameJoin { map: None };
    const MISSING: u32 = u32::MAX;

    /// The join of `from` onto `to`; both must be sorted.
    pub fn new(from: &[String], to: &[String]) -> NameJoin {
        if std::ptr::eq(from, to) || from == to {
            return NameJoin::IDENTITY;
        }
        let mut map = Vec::with_capacity(from.len());
        let mut j = 0;
        for name in from {
            while j < to.len() && to[j] < *name {
                j += 1;
            }
            map.push(if to.get(j) == Some(name) {
                j as u32
            } else {
                NameJoin::MISSING
            });
        }
        NameJoin { map: Some(map) }
    }

    /// Whether the two tables are equal.
    pub fn is_identity(&self) -> bool {
        self.map.is_none()
    }

    /// The id in the second table of the first table's id `i`, if that
    /// name exists there.
    pub fn get(&self, i: u32) -> Option<u32> {
        match &self.map {
            None => Some(i),
            Some(map) => Some(map[i as usize]).filter(|&j| j != NameJoin::MISSING),
        }
    }

    /// Whether `a` (ids of the first table) and `b` (ids of the second)
    /// are the same path set by name: equal flags and equal paths in order.
    pub fn same(&self, a: &PathSet, b: &PathSet) -> bool {
        if a.blackhole != b.blackhole || a.has_loop != b.has_loop || a.spans.len() != b.spans.len()
        {
            return false;
        }
        match &self.map {
            None => a.paths().eq(b.paths()),
            Some(map) => a.paths().zip(b.paths()).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(y).all(|(r, s)| map[r.0 as usize] == s.0)
            }),
        }
    }
}

/// An ordered host pair by index into a [`DataPlane`]'s host table.
pub type HostPair = (u32, u32);

/// All host-to-host forwarding paths (the paper's `DP`).
///
/// A data plane holds a name-sorted host table, a router-name table in
/// [`RouterId`] order (also name-sorted), and its pairs keyed by host
/// index in (src, dst) order, which is name order. Path sets are
/// [`Arc`]-shared: extraction hands every source behind one gateway the
/// same set toward a destination, and cloning, restricting or splicing a
/// data plane shares tables and sets instead of copying them.
///
/// Names are resolved only at the edges ([`DataPlane::pairs`],
/// [`DataPlane::between`], [`Pair::paths`]). Comparisons keep name
/// semantics across networks: `==` and [`DataPlane::equivalent_on`] join
/// the two host and router tables by name once ([`NameJoin`]) and then
/// compare ids.
#[derive(Debug, Clone, Default)]
pub struct DataPlane {
    hosts: Arc<[String]>,
    routers: Arc<[String]>,
    pairs: Arc<[(HostPair, Arc<PathSet>)]>,
}

impl PartialEq for DataPlane {
    fn eq(&self, other: &Self) -> bool {
        self.same_pairs(other, None)
    }
}

impl Eq for DataPlane {}

impl DataPlane {
    /// The host table, sorted by name. It may name hosts that no pair of
    /// a restricted data plane involves.
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// The router table: the name of each [`RouterId`] its path sets use.
    pub fn routers(&self) -> &[String] {
        &self.routers
    }

    /// The path set between two hosts, with their names.
    pub fn between(&self, src: &str, dst: &str) -> Option<Pair<'_>> {
        let i = self.index_of(src, dst)?;
        Some(self.pair(&self.pairs[i]))
    }

    /// The shared handle for a pair, found without allocating — lets
    /// callers reuse a path set in another data plane over the same
    /// router table for the cost of a reference-count bump.
    pub fn shared_between(&self, src: &str, dst: &str) -> Option<&Arc<PathSet>> {
        self.index_of(src, dst).map(|i| &self.pairs[i].1)
    }

    /// Iterates every pair in (src, dst) name order.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = Pair<'_>> {
        self.pairs.iter().map(|e| self.pair(e))
    }

    /// The pairs by host index, in (src, dst) order: the id-level view the
    /// incremental engine works on.
    pub fn entries(&self) -> &[(HostPair, Arc<PathSet>)] {
        &self.pairs
    }

    /// Number of host pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs exist.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The data plane restricted to pairs whose endpoints are both in
    /// `hosts` — used to compare an anonymized network with the original on
    /// the *real* hosts only (fake hosts are outside the equivalence
    /// mapping, Appendix A). Tables and path sets are shared.
    pub fn restricted_to(&self, hosts: &BTreeSet<String>) -> DataPlane {
        let keep = self.host_mask(hosts);
        DataPlane {
            hosts: Arc::clone(&self.hosts),
            routers: Arc::clone(&self.routers),
            pairs: self
                .pairs
                .iter()
                .filter(|(key, _)| kept(&keep, *key))
                .cloned()
                .collect(),
        }
    }

    /// Exact route equivalence on a host subset: identical path sets for
    /// every pair (Definition 3.3's *route equivalence*). Both pair lists
    /// are walked in place, so nothing is copied.
    pub fn equivalent_on(&self, other: &DataPlane, hosts: &BTreeSet<String>) -> bool {
        self.same_pairs(other, Some(hosts))
    }

    /// Whether the pairs of both data planes with both endpoints in `on`
    /// (all pairs for `None`) are the same by name, pair by pair.
    fn same_pairs(&self, other: &DataPlane, on: Option<&BTreeSet<String>>) -> bool {
        let (keep_a, keep_b) = match on {
            Some(hosts) => (self.host_mask(hosts), other.host_mask(hosts)),
            None => (Vec::new(), Vec::new()),
        };
        let hosts = NameJoin::new(&self.hosts, &other.hosts);
        let routers = NameJoin::new(&self.routers, &other.routers);
        let mut a = self.pairs.iter().filter(|(key, _)| kept(&keep_a, *key));
        let mut b = other.pairs.iter().filter(|(key, _)| kept(&keep_b, *key));
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(((sa, da), pa)), Some(((sb, db), pb))) => {
                    if hosts.get(*sa) != Some(*sb) || hosts.get(*da) != Some(*db) {
                        return false;
                    }
                    let shared = routers.is_identity() && Arc::ptr_eq(pa, pb);
                    if !shared && !routers.same(pa, pb) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }

    /// Per host index: whether its name is in `hosts`.
    fn host_mask(&self, hosts: &BTreeSet<String>) -> Vec<bool> {
        self.hosts.iter().map(|h| hosts.contains(h)).collect()
    }

    fn index_of(&self, src: &str, dst: &str) -> Option<usize> {
        let host = |name: &str| {
            self.hosts
                .binary_search_by(|h| h.as_str().cmp(name))
                .ok()
                .map(|i| i as u32)
        };
        let key = (host(src)?, host(dst)?);
        self.pairs.binary_search_by_key(&key, |e| e.0).ok()
    }

    fn pair<'a>(&'a self, ((s, d), set): &'a (HostPair, Arc<PathSet>)) -> Pair<'a> {
        Pair {
            src: &self.hosts[*s as usize],
            dst: &self.hosts[*d as usize],
            set,
            routers: &self.routers,
        }
    }
}

/// Whether a pair survives a host mask (an empty mask keeps every pair).
fn kept(mask: &[bool], (s, d): HostPair) -> bool {
    mask.is_empty() || (mask[s as usize] && mask[d as usize])
}

/// One pair of a [`DataPlane`]: its host names and shared path set, read
/// as names through [`Pair::paths`].
///
/// `==` compares by name: the same hosts and the same name paths and
/// flags, whichever router tables the two sides use.
#[derive(Clone, Copy)]
pub struct Pair<'a> {
    /// Source host.
    pub src: &'a str,
    /// Destination host.
    pub dst: &'a str,
    /// The path set, over the data plane's router table.
    pub set: &'a Arc<PathSet>,
    routers: &'a [String],
}

impl<'a> Pair<'a> {
    /// Fully reachable: at least one path and no anomalous branch.
    pub fn clean(&self) -> bool {
        self.set.clean()
    }

    /// Some branch dropped traffic.
    pub fn blackhole(&self) -> bool {
        self.set.blackhole
    }

    /// Some branch entered a forwarding loop.
    pub fn has_loop(&self) -> bool {
        self.set.has_loop
    }

    /// Number of paths.
    pub fn path_count(&self) -> usize {
        self.set.path_count()
    }

    /// The paths by name, each `[h_s, r_1, …, r_n, h_d]`, in the set's
    /// order: the one place a data plane resolves router ids to names.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = Vec<&'a str>> + 'a {
        let (src, dst, routers) = (self.src, self.dst, self.routers);
        let set: &'a PathSet = self.set;
        set.paths().map(move |hops| {
            let mut path = Vec::with_capacity(hops.len() + 2);
            path.push(src);
            path.extend(hops.iter().map(|r| routers[r.0 as usize].as_str()));
            path.push(dst);
            path
        })
    }
}

impl PartialEq for Pair<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&**self.set, &**other.set);
        if self.src != other.src
            || self.dst != other.dst
            || a.blackhole != b.blackhole
            || a.has_loop != b.has_loop
            || a.path_count() != b.path_count()
        {
            return false;
        }
        if std::ptr::eq(self.routers, other.routers) {
            return a == b;
        }
        a.paths().zip(b.paths()).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(r, s)| self.routers[r.0 as usize] == other.routers[s.0 as usize])
        })
    }
}

impl std::fmt::Debug for Pair<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pair")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("paths", &self.paths().collect::<Vec<_>>())
            .field("blackhole", &self.blackhole())
            .field("has_loop", &self.has_loop())
            .finish()
    }
}

/// Builds a [`DataPlane`] from name paths, for producers that have no
/// [`SimNetwork`]: NetHide's virtual topology and tests.
#[derive(Debug, Default)]
pub struct DataPlaneBuilder {
    pairs: BTreeMap<(String, String), NamedSet>,
}

/// One pair of a [`DataPlaneBuilder`]: the interior router names of each
/// path, and the flags.
#[derive(Debug)]
struct NamedSet {
    paths: Vec<Vec<String>>,
    blackhole: bool,
    has_loop: bool,
}

impl DataPlaneBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a pair. Each path is `[h_s, r_1, …, r_n, h_d]` by
    /// name; paths keep the given order.
    ///
    /// # Panics
    /// If a path does not run from `src` to `dst`.
    pub fn insert<P, S>(
        &mut self,
        src: &str,
        dst: &str,
        paths: P,
        blackhole: bool,
        has_loop: bool,
    ) -> &mut Self
    where
        P: IntoIterator,
        P::Item: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let interiors = paths
            .into_iter()
            .map(|path| {
                let names: Vec<String> = path.into_iter().map(|n| n.as_ref().to_string()).collect();
                assert!(
                    names.len() >= 2 && names[0] == src && names[names.len() - 1] == dst,
                    "path {names:?} does not run from {src} to {dst}"
                );
                names[1..names.len() - 1].to_vec()
            })
            .collect();
        let set = NamedSet {
            paths: interiors,
            blackhole,
            has_loop,
        };
        self.pairs.insert((src.to_string(), dst.to_string()), set);
        self
    }

    /// The data plane: hosts are the pairs' endpoints, routers the names
    /// on their paths.
    pub fn build(self) -> DataPlane {
        fn table<'a>(names: impl Iterator<Item = &'a String>) -> BTreeMap<&'a str, u32> {
            let mut table: BTreeMap<&str, u32> = names.map(|n| (n.as_str(), 0)).collect();
            for (i, id) in table.values_mut().enumerate() {
                *id = i as u32;
            }
            table
        }
        let hosts = table(self.pairs.keys().flat_map(|(s, d)| [s, d]));
        let routers = table(
            self.pairs
                .values()
                .flat_map(|set| set.paths.iter().flatten()),
        );
        let pairs = self
            .pairs
            .iter()
            .map(|((s, d), named)| {
                let mut set = PathSet {
                    blackhole: named.blackhole,
                    has_loop: named.has_loop,
                    ..PathSet::default()
                };
                for path in &named.paths {
                    let walk: Vec<RouterId> =
                        path.iter().map(|r| RouterId(routers[r.as_str()])).collect();
                    set.push_path(&walk);
                }
                ((hosts[s.as_str()], hosts[d.as_str()]), Arc::new(set))
            })
            .collect();
        DataPlane {
            hosts: hosts.keys().map(|h| h.to_string()).collect(),
            routers: routers.keys().map(|r| r.to_string()).collect(),
            pairs,
        }
    }
}

/// Extracts the complete data plane: every ordered host pair.
///
/// Extraction runs per destination, not per pair, through one
/// [`DestTracer`] per destination: a destination's FIB entry is looked up
/// once at every router its traffic can reach, which gives the
/// destination's next-hop graph over router ids. Every source behind one
/// gateway has the same paths toward the destination, so the graph yields
/// one shared path set per (gateway, destination); all same-LAN pairs
/// share one direct set, and all pairs with an unattached source one
/// black-holed set. The per-pair DFS of [`trace`] runs only for a pair
/// whose gateway the graph cannot answer exactly: one that reaches a
/// forwarding loop or the [`MAX_PATHS_PER_PAIR`] cap, where the DFS's
/// result depends on its visiting order. Such a pair keeps its own set.
/// Everywhere else the two agree exactly (see [`DestTracer`]).
///
/// Destinations are independent, so they fan out over the shared
/// executor, and their path sets are allocated on the workers. Hosts are
/// name-sorted once, so pairs come out in (src, dst) name order. The
/// result is byte-identical at any worker count.
///
/// A panic inside the fan-out is contained: every sibling worker is still
/// joined and the first payload surfaces as [`SimError::TracePanic`]
/// instead of aborting the process.
pub fn extract_dataplane(net: &SimNetwork, fibs: &Fibs) -> Result<DataPlane, SimError> {
    let (dataplane, stats) = extract(net, fibs)?;
    confmask_obs::counter_add("sim.dataplane.destinations", stats.destinations);
    confmask_obs::counter_add("sim.dataplane.dag_nodes", stats.dag_nodes);
    confmask_obs::counter_add("sim.dataplane.dfs_fallbacks", stats.dfs_fallbacks);
    confmask_obs::counter_add("sim.dataplane.path_sets", stats.path_sets);
    Ok(dataplane)
}

/// Work counts of one extraction.
#[derive(Debug, Clone, Copy)]
struct ExtractStats {
    /// Destination hosts resolved.
    destinations: u64,
    /// Routers resolved, summed over destinations.
    dag_nodes: u64,
    /// Pairs decided by the per-pair DFS.
    dfs_fallbacks: u64,
    /// Distinct path sets allocated.
    path_sets: u64,
}

fn extract(net: &SimNetwork, fibs: &Fibs) -> Result<(DataPlane, ExtractStats), SimError> {
    let mut hosts: Vec<HostId> = net.hosts_iter().map(|(id, _)| id).collect();
    hosts.sort_by(|a, b| net.host(*a).name.cmp(&net.host(*b).name));

    // Per destination: its tracer's work counts and every other source's
    // reach, in source order.
    let dests = confmask_exec::try_par_map(&hosts, |&dst| {
        let mut tracer = DestTracer::new(net, fibs, dst);
        let reach: Vec<Option<Reach>> = hosts
            .iter()
            .map(|&src| (src != dst).then(|| tracer.reach(src)))
            .collect();
        (tracer.stats(), reach)
    })
    .map_err(|p| SimError::TracePanic(p.message()))?;
    let used = |want: fn(&Reach) -> bool| {
        dests
            .iter()
            .flat_map(|(_, reach)| reach.iter().flatten())
            .any(want)
    };
    let shared = |used: bool, set: fn() -> PathSet| used.then(|| Arc::new(set()));
    let direct = shared(used(|r| matches!(r, Reach::SameLan)), PathSet::direct);
    let unattached = shared(
        used(|r| matches!(r, Reach::Unattached)),
        PathSet::blackholed,
    );
    let stats = ExtractStats {
        destinations: dests.len() as u64,
        dag_nodes: dests.iter().map(|(t, _)| t.dag_nodes).sum(),
        dfs_fallbacks: dests.iter().map(|(t, _)| t.dfs_fallbacks).sum(),
        path_sets: dests.iter().map(|(t, _)| t.path_sets).sum::<u64>()
            + u64::from(direct.is_some())
            + u64::from(unattached.is_some()),
    };

    // Pairs in (src, dst) index order == (src, dst) name order.
    let n = hosts.len();
    let mut columns: Vec<_> = dests.into_iter().map(|(_, r)| r.into_iter()).collect();
    let mut pairs = Vec::with_capacity(n * n.saturating_sub(1));
    for s in 0..n {
        for (d, column) in columns.iter_mut().enumerate() {
            let Some(reach) = column.next().expect("one slot per source") else {
                continue;
            };
            let set = match reach {
                Reach::Unattached => unattached.clone(),
                Reach::SameLan => direct.clone(),
                Reach::Paths(set) => Some(set),
            };
            pairs.push(((s as u32, d as u32), set.expect("a used shared set exists")));
        }
    }
    let name = |&h: &HostId| net.host(h).name.clone();
    let dataplane = DataPlane {
        hosts: hosts.iter().map(name).collect(),
        routers: net.routers.iter().map(|r| r.name.clone()).collect(),
        pairs: pairs.into(),
    };
    Ok((dataplane, stats))
}

/// Where the per-pair DFS for `src → dst` starts.
enum Start {
    /// The source's gateway resolves to no router: a black hole.
    Unattached,
    /// Both hosts share a LAN segment: direct delivery.
    SameLan,
    /// The walk starts at this router.
    Gateway(RouterId),
}

fn start(src: &HostNode, dst: &HostNode) -> Start {
    match src.attachment {
        None => Start::Unattached,
        Some(_) if src.prefix == dst.prefix && src.attachment == dst.attachment => Start::SameLan,
        Some((gw, _)) => Start::Gateway(gw),
    }
}

/// What one source reaches toward a [`DestTracer`]'s destination.
#[derive(Debug, Clone)]
pub enum Reach {
    /// The source is unattached: a black hole without a walk
    /// ([`PathSet::blackholed`]).
    Unattached,
    /// The source shares the destination's LAN segment: one direct,
    /// zero-length path.
    SameLan,
    /// The paths from the source's gateway: the gateway's shared set when
    /// the graph answers it exactly, the pair's own per-pair DFS result
    /// otherwise.
    Paths(Arc<PathSet>),
}

/// Work counts of one [`DestTracer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerStats {
    /// Routers resolved (one FIB lookup each).
    pub dag_nodes: u64,
    /// Pairs decided by the per-pair DFS.
    pub dfs_fallbacks: u64,
    /// Path sets allocated: gateway sets plus per-pair DFS results.
    pub path_sets: u64,
}

/// DFS colour of a [`DagNode`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Visit {
    #[default]
    New,
    OnStack,
    Done,
}

/// One router's memoized answer toward one destination: what the per-pair
/// DFS would report for a walk starting at this router.
#[derive(Debug, Clone, Copy, Default)]
struct DagNode {
    visit: Visit,
    /// Walks the DFS would push from here, with multiplicity (duplicate
    /// next hops count twice), clamped at [`MAX_PATHS_PER_PAIR`].
    count: usize,
    /// Some router reachable from here has no route or delivers on an
    /// interface the destination is not attached to.
    blackhole: bool,
    /// A cycle is reachable from here, or `count` reached the cap: the DFS
    /// result depends on its visiting order, so pairs starting here take
    /// the per-pair DFS.
    inexact: bool,
    /// This router delivers to the destination's attachment.
    delivers: bool,
    /// The sorted, distinct forward next hops: a span into [`DestTracer::succ`].
    succ: (u32, u32),
    /// Distinct paths from here, and their hops in total: the exact size
    /// of an exact router's path set.
    paths: u32,
    hops: u32,
}

/// One destination's forwarding, resolved on demand: the next-hop graph
/// over router ids, grown from the gateways of the sources asked about,
/// with one FIB lookup per (router, destination) and one shared path set
/// per (gateway, destination). Extraction asks about every source; a fault
/// sweep asks only about the pairs a failure may have changed.
///
/// **Why it is exact.** The FIB lookup at a router depends only on the
/// (router, destination) pair, so every per-pair DFS toward this
/// destination walks the same graph. From a router with no reachable
/// cycle, the DFS never meets a router already on its walk, and with fewer
/// than [`MAX_PATHS_PER_PAIR`] pushes its cap never fires. It then visits
/// every reachable router and pushes every path of the graph, so its
/// black-hole flag is the OR over the reachable routers and its sorted,
/// deduplicated paths are the graph's paths. Walking the sorted distinct
/// successors, with a delivering router's own path first, enumerates
/// exactly that list in that order. The answer depends on the gateway
/// alone, which is why its sources can share one set, and it does not
/// depend on which gateways were resolved before, which is why resolving
/// on demand gives what resolving every gateway gives.
pub struct DestTracer<'a> {
    net: &'a SimNetwork,
    fibs: &'a Fibs,
    dst: HostId,
    nodes: Vec<DagNode>,
    succ: Vec<u32>,
    /// Reused buffer for sorting one router's next hops.
    scratch: Vec<RouterId>,
    /// Per router: its shared path set once some source's gateway asked.
    by_gateway: Vec<Option<Arc<PathSet>>>,
    /// Reused buffer for the walk that enumerates a gateway's paths.
    walk: Vec<RouterId>,
    stats: TracerStats,
}

impl<'a> DestTracer<'a> {
    /// A tracer toward `dst` that has resolved nothing yet.
    pub fn new(net: &'a SimNetwork, fibs: &'a Fibs, dst: HostId) -> DestTracer<'a> {
        DestTracer {
            net,
            fibs,
            dst,
            nodes: vec![DagNode::default(); net.router_count()],
            succ: Vec::new(),
            scratch: Vec::new(),
            by_gateway: vec![None; net.router_count()],
            walk: Vec::new(),
            stats: TracerStats::default(),
        }
    }

    /// What `src` (not the destination itself) reaches: exactly what
    /// [`trace`] gives for `src → dst`, resolving the routers its gateway
    /// reaches that no earlier call resolved.
    pub fn reach(&mut self, src: HostId) -> Reach {
        let dst = self.net.host(self.dst);
        match start(self.net.host(src), dst) {
            Start::Unattached => Reach::Unattached,
            Start::SameLan => Reach::SameLan,
            Start::Gateway(gw) => {
                let g = gw.0 as usize;
                if self.nodes[g].visit == Visit::New {
                    self.resolve(g);
                }
                if self.nodes[g].inexact {
                    self.stats.dfs_fallbacks += 1;
                    self.stats.path_sets += 1;
                    Reach::Paths(Arc::new(trace(self.net, self.fibs, src, self.dst)))
                } else {
                    Reach::Paths(self.gateway_set(gw))
                }
            }
        }
    }

    /// The shape of the set [`DestTracer::reach`] gives `src` when `src`
    /// sits behind an exact gateway, read off the gateway's resolved entry
    /// without building the set; `None` for an unattached source, a
    /// same-LAN source and an inexact gateway. Resolves what `reach` would.
    pub fn exact_shape(&mut self, src: HostId) -> Option<PathShape> {
        let Start::Gateway(gw) = start(self.net.host(src), self.net.host(self.dst)) else {
            return None;
        };
        let g = gw.0 as usize;
        if self.nodes[g].visit == Visit::New {
            self.resolve(g);
        }
        let node = &self.nodes[g];
        (!node.inexact).then_some(PathShape {
            paths: node.paths as usize,
            hops: node.hops as usize,
            blackhole: node.blackhole,
            has_loop: false,
        })
    }

    /// The work done so far.
    pub fn stats(&self) -> TracerStats {
        self.stats
    }

    /// Memoized DFS: fills `nodes[r]` from one FIB lookup and its
    /// successors' entries.
    fn resolve(&mut self, r: usize) {
        self.nodes[r].visit = Visit::OnStack;
        let mut node = DagNode {
            visit: Visit::Done,
            ..DagNode::default()
        };
        let dst = self.net.host(self.dst);
        match self.fibs.of(RouterId(r as u32)).lookup(dst.addr) {
            None => node.blackhole = true,
            Some(entry) => {
                for nh in entry.next_hops {
                    match *nh {
                        NextHop::Deliver { iface } => {
                            if dst.attachment == Some((RouterId(r as u32), iface)) {
                                node.delivers = true;
                                node.count = (node.count + 1).min(MAX_PATHS_PER_PAIR);
                            } else {
                                node.blackhole = true;
                            }
                        }
                        NextHop::Forward { router, .. } => {
                            let x = router.0 as usize;
                            match self.nodes[x].visit {
                                Visit::OnStack => {
                                    node.inexact = true;
                                    continue;
                                }
                                Visit::New => self.resolve(x),
                                Visit::Done => {}
                            }
                            let child = self.nodes[x];
                            node.count = (node.count + child.count).min(MAX_PATHS_PER_PAIR);
                            node.blackhole |= child.blackhole;
                            node.inexact |= child.inexact;
                        }
                    }
                }
                let next = &mut self.scratch;
                next.clear();
                next.extend(entry.next_hops.iter().filter_map(|nh| nh.router()));
                next.sort_unstable();
                next.dedup();
                let start = self.succ.len() as u32;
                self.succ.extend(next.iter().map(|x| x.0));
                node.succ = (start, self.succ.len() as u32);
                node.paths = u32::from(node.delivers);
                node.hops = node.paths;
                for x in next.iter() {
                    let child = &self.nodes[x.0 as usize];
                    node.paths = node.paths.saturating_add(child.paths);
                    node.hops = node
                        .hops
                        .saturating_add(child.hops.saturating_add(child.paths));
                }
            }
        }
        node.inexact |= node.count >= MAX_PATHS_PER_PAIR;
        self.nodes[r] = node;
        self.stats.dag_nodes += 1;
    }

    /// The shared path set of every source behind exact gateway `gw`.
    fn gateway_set(&mut self, gw: RouterId) -> Arc<PathSet> {
        if let Some(set) = &self.by_gateway[gw.0 as usize] {
            return Arc::clone(set);
        }
        let node = self.nodes[gw.0 as usize];
        let mut set = PathSet {
            hops: Vec::with_capacity(node.hops as usize),
            spans: Vec::with_capacity(node.paths as usize),
            blackhole: node.blackhole,
            has_loop: false,
        };
        let mut walk = std::mem::take(&mut self.walk);
        self.paths_from(gw.0, &mut walk, &mut |walk| set.push_path(walk));
        self.walk = walk;
        debug_assert_eq!(
            (set.hops.len(), set.spans.len()),
            (node.hops as usize, node.paths as usize),
            "an exact router's path set is sized exactly"
        );
        let set = Arc::new(set);
        self.by_gateway[gw.0 as usize] = Some(Arc::clone(&set));
        self.stats.path_sets += 1;
        set
    }

    /// Calls `emit` with every path from exact router `r`, in sorted order.
    fn paths_from(&self, r: u32, walk: &mut Vec<RouterId>, emit: &mut impl FnMut(&[RouterId])) {
        walk.push(RouterId(r));
        let node = &self.nodes[r as usize];
        if node.delivers {
            emit(walk);
        }
        let (a, b) = node.succ;
        for &x in &self.succ[a as usize..b as usize] {
            self.paths_from(x, walk, emit);
        }
        walk.pop();
    }
}

/// Traces all forwarding paths from `src` to `dst` (the paper's
/// `traceroute(h_a, h_b)`) with the per-pair DFS.
pub fn trace(net: &SimNetwork, fibs: &Fibs, src: HostId, dst: HostId) -> PathSet {
    let mut out = PathSet::default();
    let gw = match start(net.host(src), net.host(dst)) {
        Start::Unattached => return PathSet::blackholed(),
        Start::SameLan => return PathSet::direct(),
        Start::Gateway(gw) => gw,
    };
    let mut walk: Vec<RouterId> = vec![gw];
    dfs(net, fibs, dst, &mut walk, &mut out);
    out.sort_dedup();
    out
}

fn dfs(net: &SimNetwork, fibs: &Fibs, dst: HostId, walk: &mut Vec<RouterId>, out: &mut PathSet) {
    if out.spans.len() >= MAX_PATHS_PER_PAIR {
        return;
    }
    let cur = *walk.last().expect("walk non-empty");
    let dst_node = net.host(dst);
    let entry = fibs.of(cur).lookup(dst_node.addr);
    let Some(entry) = entry else {
        out.blackhole = true;
        return;
    };
    for nh in entry.next_hops {
        match nh {
            NextHop::Deliver { iface } => {
                // Delivery succeeds only if the destination host actually
                // sits on this router+interface.
                if dst_node.attachment == Some((cur, *iface)) {
                    out.push_path(walk);
                } else {
                    out.blackhole = true;
                }
            }
            NextHop::Forward { router, .. } => {
                if walk.contains(router) {
                    out.has_loop = true;
                    continue;
                }
                walk.push(*router);
                dfs(net, fibs, dst, walk, out);
                walk.pop();
            }
        }
    }
}

/// The hosts among `hosts` reachable (cleanly) from router `r` — used by
/// the route-anonymization algorithm (Algorithm 2) to check that a round of
/// filters breaks no reachability, scoped to the hosts those filters can
/// affect.
pub fn reachable_hosts_from_router(
    net: &SimNetwork,
    fibs: &Fibs,
    r: RouterId,
    hosts: &[HostId],
) -> BTreeSet<HostId> {
    let mut reachable = BTreeSet::new();
    let mut out = PathSet::default();
    for &hid in hosts {
        out.clear();
        let mut walk = vec![r];
        dfs(net, fibs, hid, &mut walk, &mut out);
        if out.clean() {
            reachable.insert(hid);
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, FibBuilder, RouteSource};
    use confmask_config::{parse_router, HostConfig, NetworkConfigs};

    fn host(name: &str, addr: &str, gw: &str) -> HostConfig {
        HostConfig {
            hostname: name.into(),
            iface_name: "eth0".into(),
            address: (addr.parse().unwrap(), 24),
            gateway: gw.parse().unwrap(),
            extra: vec![],
            added: false,
        }
    }

    /// r1 —— r2, one host each; OSPF everywhere.
    fn two_net() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.0.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.0.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.1.2.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let mut cfgs = NetworkConfigs::new(
            [r1, r2],
            [
                host("h1", "10.1.1.100", "10.1.1.1"),
                host("h2", "10.1.2.100", "10.1.2.1"),
            ],
        );
        // Fix the `network 0.0.0.0/0` statements (wildcard form parses as /0 with address 0.0.0.0 — make it explicit).
        for rc in cfgs.routers.values_mut() {
            rc.ospf.as_mut().unwrap().networks[0].prefix = "0.0.0.0/0".parse().unwrap();
        }
        cfgs
    }

    #[test]
    fn end_to_end_two_router_path() {
        let sim = simulate(&two_net()).unwrap();
        let ps = sim.dataplane.between("h1", "h2").unwrap();
        assert!(ps.clean());
        assert_eq!(
            ps.paths().collect::<Vec<_>>(),
            vec![vec![
                "h1".to_string(),
                "r1".into(),
                "r2".into(),
                "h2".into()
            ]]
        );
        // And the reverse direction.
        let ps = sim.dataplane.between("h2", "h1").unwrap();
        assert_eq!(
            ps.paths().collect::<Vec<_>>(),
            vec![vec![
                "h2".to_string(),
                "r2".into(),
                "r1".into(),
                "h1".into()
            ]]
        );
    }

    #[test]
    fn same_lan_hosts_are_direct() {
        let mut cfgs = two_net();
        cfgs.hosts
            .insert("h1b".into(), host("h1b", "10.1.1.101", "10.1.1.1"));
        let sim = simulate(&cfgs).unwrap();
        let ps = sim.dataplane.between("h1", "h1b").unwrap();
        assert_eq!(ps.paths().collect::<Vec<_>>(), vec![vec!["h1", "h1b"]]);
    }

    #[test]
    fn missing_route_is_blackhole() {
        let mut cfgs = two_net();
        // Withdraw r2's LAN from OSPF.
        let r2 = cfgs.routers.get_mut("r2").unwrap();
        r2.ospf.as_mut().unwrap().networks[0].prefix = "10.0.0.0/31".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        let ps = sim.dataplane.between("h1", "h2").unwrap();
        assert!(ps.blackhole());
        assert_eq!(ps.path_count(), 0);
    }

    #[test]
    fn detached_host_is_blackhole() {
        let mut cfgs = two_net();
        cfgs.hosts.get_mut("h1").unwrap().gateway = "10.1.1.9".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        assert!(sim.dataplane.between("h1", "h2").unwrap().blackhole());
    }

    #[test]
    fn reachability_from_each_router() {
        let sim = simulate(&two_net()).unwrap();
        let all: Vec<HostId> = sim.net.hosts_iter().map(|(hid, _)| hid).collect();
        for (rid, _) in sim.net.routers_iter() {
            let reach = reachable_hosts_from_router(&sim.net, &sim.fibs, rid, &all);
            assert_eq!(reach.len(), 2, "every router reaches both hosts");
            let first = reachable_hosts_from_router(&sim.net, &sim.fibs, rid, &all[..1]);
            assert_eq!(
                first.into_iter().collect::<Vec<_>>(),
                all[..1],
                "only the asked hosts"
            );
        }
    }

    #[test]
    fn pair_bits_set_get_iter() {
        let mut bits = PairBits::new(130);
        assert_eq!(bits.len(), 130);
        assert_eq!(bits.count_ones(), 0);
        for i in [0usize, 63, 64, 129] {
            bits.set(i);
        }
        assert!(bits.get(0) && bits.get(63) && bits.get(64) && bits.get(129));
        assert!(!bits.get(1) && !bits.get(500));
        assert_eq!(bits.count_ones(), 4);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(bits.words().len(), 3);
    }

    #[test]
    fn lazy_tracer_matches_trace_and_extraction() {
        let sim = simulate(&two_net()).unwrap();
        let ids: Vec<HostId> = sim.net.hosts_iter().map(|(id, _)| id).collect();
        for &d in &ids {
            let mut tracer = DestTracer::new(&sim.net, &sim.fibs, d);
            for &s in ids.iter().filter(|&&s| s != d) {
                let fresh = trace(&sim.net, &sim.fibs, s, d);
                let Reach::Paths(lazy) = tracer.reach(s) else {
                    panic!("two_net's hosts sit on distinct routers");
                };
                assert_eq!(*lazy, fresh);
                let (sn, dn) = (&sim.net.host(s).name, &sim.net.host(d).name);
                assert_eq!(**sim.dataplane.between(sn, dn).unwrap().set, fresh);
                // And a perturbed path set must NOT match.
                let mut other = fresh.clone();
                other.blackhole = !other.blackhole;
                assert_ne!(*lazy, other);
            }
            assert!(tracer.stats().dag_nodes > 0);
        }
    }

    #[test]
    fn same_lan_is_a_zero_length_span() {
        let mut cfgs = two_net();
        cfgs.hosts
            .insert("h1b".into(), host("h1b", "10.1.1.101", "10.1.1.1"));
        let sim = simulate(&cfgs).unwrap();
        let h1 = sim.net.host_id("h1").unwrap();
        let h1b = sim.net.host_id("h1b").unwrap();
        let set = trace(&sim.net, &sim.fibs, h1, h1b);
        assert_eq!(set.path_count(), 1);
        assert_eq!(set.paths().next().unwrap().len(), 0);
        assert_eq!(
            sim.dataplane
                .between("h1", "h1b")
                .unwrap()
                .paths()
                .collect::<Vec<_>>(),
            vec![vec!["h1", "h1b"]]
        );
    }

    #[test]
    fn restricted_to_filters_pairs() {
        let sim = simulate(&two_net()).unwrap();
        let only_h1: BTreeSet<String> = ["h1".to_string()].into();
        assert!(sim.dataplane.restricted_to(&only_h1).is_empty());
        let both: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
        assert_eq!(sim.dataplane.restricted_to(&both).len(), 2);
        assert!(sim.dataplane.equivalent_on(&sim.dataplane, &both));
    }

    fn hosts(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn equivalent_on_sees_a_pair_present_on_one_side_only() {
        let dp = simulate(&line_net(3)).unwrap().dataplane;
        let mut b = DataPlaneBuilder::new();
        for p in dp.pairs().filter(|p| (p.src, p.dst) != ("h1", "h3")) {
            b.insert(p.src, p.dst, p.paths(), p.blackhole(), p.has_loop());
        }
        let fewer = b.build();
        let all = hosts(&["h1", "h2", "h3"]);
        assert!(!dp.equivalent_on(&fewer, &all));
        assert!(!fewer.equivalent_on(&dp, &all));
        // Outside the compared hosts the missing pair does not count.
        assert!(dp.equivalent_on(&fewer, &hosts(&["h1", "h2"])));
        assert!(dp.equivalent_on(&fewer, &hosts(&["h2", "h3"])));
    }

    #[test]
    fn equivalent_on_compares_only_a_strict_host_subset() {
        let dp = simulate(&line_net(3)).unwrap().dataplane;
        let mut b = DataPlaneBuilder::new();
        for p in dp.pairs() {
            let changed = (p.src, p.dst) == ("h1", "h3");
            b.insert(
                p.src,
                p.dst,
                p.paths(),
                p.blackhole() || changed,
                p.has_loop(),
            );
        }
        b.insert("hz", "h1", Vec::<Vec<&str>>::new(), false, false);
        let other = b.build();
        assert!(!dp.equivalent_on(&other, &hosts(&["h1", "h2", "h3"])));
        assert!(dp.equivalent_on(&other, &hosts(&["h1", "h2"])));
        assert!(dp.equivalent_on(&other, &hosts(&["h2", "h3"])));
        assert!(dp.equivalent_on(&other, &hosts(&[])));
        // The subset answer is the restricted maps' equality.
        for set in [hosts(&["h1", "h3"]), hosts(&["h1", "hz"]), hosts(&["h3"])] {
            assert_eq!(
                dp.equivalent_on(&other, &set),
                dp.restricted_to(&set) == other.restricted_to(&set),
                "{set:?}"
            );
        }
    }

    /// r1 — r2 — … — rn in a line, host `hi` on `ri`; OSPF everywhere.
    fn line_net(n: usize) -> NetworkConfigs {
        let routers = (1..=n).map(|i| {
            let mut text = format!(
                "hostname r{i}\n!\ninterface Ethernet1/0\n ip address 10.1.{i}.1 255.255.255.0\n!\n"
            );
            if i > 1 {
                let l = i - 1;
                text +=
                    &format!("interface Ethernet0/0\n ip address 10.0.{l}.1 255.255.255.254\n!\n");
            }
            if i < n {
                text +=
                    &format!("interface Ethernet0/1\n ip address 10.0.{i}.0 255.255.255.254\n!\n");
            }
            text += "router ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n";
            parse_router(&text).unwrap()
        });
        let lans = (1..=n).map(|i| {
            host(
                &format!("h{i}"),
                &format!("10.1.{i}.100"),
                &format!("10.1.{i}.1"),
            )
        });
        let mut cfgs = NetworkConfigs::new(routers, lans);
        for rc in cfgs.routers.values_mut() {
            rc.ospf.as_mut().unwrap().networks[0].prefix = "0.0.0.0/0".parse().unwrap();
        }
        cfgs
    }

    /// Hand-edits FIBs of a simulated network, one destination at a time.
    struct Craft {
        sim: crate::Simulation,
    }

    impl Craft {
        fn new(cfgs: &NetworkConfigs) -> Self {
            Craft {
                sim: simulate(cfgs).unwrap(),
            }
        }

        fn router(&self, name: &str) -> RouterId {
            self.sim.net.router_id(name).unwrap()
        }

        fn fwd(&self, name: &str) -> NextHop {
            NextHop::Forward {
                via_iface: 0,
                router: self.router(name),
                session_peer: None,
            }
        }

        /// Delivery on `dst`'s attachment interface, or on `iface` when
        /// given (a mismatch unless `at` is `dst`'s gateway on it).
        fn deliver(&self, dst: &str, iface: Option<usize>) -> NextHop {
            let hid = self.sim.net.host_id(dst).unwrap();
            let (_, own) = self.sim.net.host(hid).attachment.unwrap();
            NextHop::Deliver {
                iface: iface.unwrap_or(own),
            }
        }

        /// Replaces `at`'s route toward `dst`'s LAN.
        fn route(&mut self, at: &str, dst: &str, next_hops: Vec<NextHop>) {
            let prefix = self.sim.net.host(self.sim.net.host_id(dst).unwrap()).prefix;
            let r = self.router(at);
            let fib = Arc::make_mut(&mut self.sim.fibs.per_router[r.0 as usize]);
            let mut edited = FibBuilder::default();
            for e in fib.entries() {
                edited.push(e.prefix, e.source, e.next_hops.iter().copied());
            }
            edited.push(prefix, RouteSource::Static, next_hops);
            *fib = edited.build();
        }

        /// Extracts, asserts every pair equals the per-pair DFS, and
        /// returns the extraction's work counts.
        fn check(&self) -> (DataPlane, ExtractStats) {
            let (net, fibs) = (&self.sim.net, &self.sim.fibs);
            let (dp, stats) = extract(net, fibs).unwrap();
            let n = net.hosts.len();
            assert_eq!(dp.len(), n * (n - 1));
            for (s, sn) in net.hosts_iter() {
                for (d, dn) in net.hosts_iter() {
                    if s != d {
                        let oracle = trace(net, fibs, s, d);
                        assert_eq!(
                            dp.between(&sn.name, &dn.name).map(|p| &**p.set),
                            Some(&oracle)
                        );
                    }
                }
            }
            assert_eq!(stats.destinations, n as u64);
            (dp, stats)
        }
    }

    #[test]
    fn loop_reachable_from_some_gateways_falls_back_only_there() {
        let mut c = Craft::new(&line_net(4));
        // Toward h4, r2 keeps its path via r3 but also bounces to r1,
        // which sends everything back: r1 and r2 reach the r1↔r2 loop,
        // r3 does not.
        c.route("r1", "h4", vec![c.fwd("r2")]);
        c.route("r2", "h4", vec![c.fwd("r3"), c.fwd("r1")]);
        let (dp, stats) = c.check();
        assert_eq!(stats.dfs_fallbacks, 2, "h1→h4 and h2→h4");
        for src in ["h1", "h2"] {
            let ps = dp.between(src, "h4").unwrap();
            assert!(ps.has_loop() && ps.path_count() > 0, "{src}: {ps:?}");
        }
        assert!(dp.between("h3", "h4").unwrap().clean());
        assert!(dp.between("h1", "h3").unwrap().clean());
    }

    #[test]
    fn cap_overflow_falls_back_with_identical_truncation() {
        let mut c = Craft::new(&line_net(5));
        // Toward h4, r1 has 16 copies of r2 (each with 16 copies of r3)
        // before a branch to r5, which delivers on the wrong interface.
        // The DFS stops at 256 pushes inside the r2 branches and never
        // sees r5's black hole; the graph's full answer would.
        let mut r1 = vec![c.fwd("r2"); 16];
        r1.push(c.fwd("r5"));
        c.route("r1", "h4", r1);
        c.route("r2", "h4", vec![c.fwd("r3"); 16]);
        c.route("r5", "h4", vec![c.deliver("h4", Some(7))]);
        let (dp, stats) = c.check();
        assert_eq!(stats.dfs_fallbacks, 1, "only h1→h4 reaches the cap");
        let ps = dp.between("h1", "h4").unwrap();
        assert_eq!(ps.path_count(), 1);
        assert!(!ps.blackhole(), "truncated before r5: {ps:?}");
        assert!(dp.between("h5", "h4").unwrap().blackhole());
        assert!(dp.between("h2", "h4").unwrap().clean());
    }

    #[test]
    fn delivery_mismatch_is_a_black_hole_next_to_clean_paths() {
        let mut c = Craft::new(&line_net(5));
        // Toward h4, r3 splits between r4 (which delivers twice: on h4's
        // interface and on another) and r5 (which delivers elsewhere).
        c.route("r3", "h4", vec![c.fwd("r5"), c.fwd("r4")]);
        c.route(
            "r4",
            "h4",
            vec![c.deliver("h4", None), c.deliver("h4", Some(9))],
        );
        c.route("r5", "h4", vec![c.deliver("h4", Some(9))]);
        let (dp, stats) = c.check();
        assert_eq!(stats.dfs_fallbacks, 0);
        let ps = dp.between("h1", "h4").unwrap();
        assert!(ps.blackhole() && !ps.has_loop());
        assert_eq!(
            ps.paths().collect::<Vec<_>>(),
            vec![vec!["h1", "r1", "r2", "r3", "r4", "h4"]]
        );
    }

    #[test]
    fn unattached_source_is_a_black_hole_without_a_walk() {
        let mut cfgs = line_net(3);
        cfgs.hosts
            .insert("hx".into(), host("hx", "10.1.1.50", "10.1.1.9"));
        let (dp, stats) = Craft::new(&cfgs).check();
        assert_eq!(stats.dfs_fallbacks, 0);
        for dst in ["h1", "h2", "h3"] {
            let ps = dp.between("hx", dst).unwrap();
            assert!(ps.blackhole() && ps.path_count() == 0, "{ps:?}");
            // Toward hx the LAN delivers, but not to hx's attachment.
            assert!(dp.between(dst, "hx").unwrap().blackhole());
        }
    }

    #[test]
    fn same_lan_pairs_deliver_directly() {
        let mut cfgs = line_net(3);
        cfgs.hosts
            .insert("h1b".into(), host("h1b", "10.1.1.101", "10.1.1.1"));
        let (dp, stats) = Craft::new(&cfgs).check();
        assert_eq!(stats.dfs_fallbacks, 0);
        assert_eq!(
            dp.between("h1b", "h1").unwrap().paths().collect::<Vec<_>>(),
            vec![vec!["h1b", "h1"]]
        );
        assert!(dp.between("h1b", "h3").unwrap().clean());
    }

    #[test]
    fn duplicate_next_hops_count_twice_but_yield_one_path() {
        let mut c = Craft::new(&line_net(4));
        c.route("r1", "h4", vec![c.fwd("r2"), c.fwd("r3"), c.fwd("r2")]);
        c.route("r2", "h4", vec![c.fwd("r3"), c.fwd("r3")]);
        let (dp, stats) = c.check();
        assert_eq!(stats.dfs_fallbacks, 0);
        let ps = dp.between("h1", "h4").unwrap();
        assert!(ps.clean());
        assert_eq!(
            ps.paths().collect::<Vec<_>>(),
            vec![
                vec!["h1", "r1", "r2", "r3", "r4", "h4"],
                vec!["h1", "r1", "r3", "r4", "h4"],
            ]
        );
    }
}
