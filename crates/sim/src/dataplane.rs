//! Data-plane extraction: host-to-host forwarding paths, traceroute,
//! reachability, loop and black-hole detection.
//!
//! The data plane `DP` of §3.1 is "the collection of all host-to-host
//! routing paths in the network"; each path is a node sequence
//! `(h_s, r_1, …, r_n, h_d)`. Paths are enumerated by walking FIBs with
//! ECMP branching, which is exactly what Batfish's traceroute question does
//! for the original prototype.

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

/// The forwarding behaviour between one (src, dst) host pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSet {
    /// Complete forwarding paths, each `[h_s, r_1, …, r_n, h_d]` by device
    /// name, sorted and deduplicated.
    pub paths: Vec<Vec<String>>,
    /// Some branch dropped traffic (no FIB entry / undeliverable).
    pub blackhole: bool,
    /// Some branch entered a forwarding loop.
    pub has_loop: bool,
}

impl PathSet {
    /// Fully reachable: at least one path and no anomalous branch.
    pub fn clean(&self) -> bool {
        !self.paths.is_empty() && !self.blackhole && !self.has_loop
    }
}

/// All host-to-host forwarding paths (the paper's `DP`).
///
/// Path sets are stored behind [`Arc`] so that cloning a data plane — or
/// splicing unaffected pairs from a cached one into an incremental result —
/// shares the (potentially large) path vectors instead of deep-copying
/// them. Equality stays structural: two data planes compare equal iff their
/// pairs and path sets do, shared or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataPlane {
    pairs: BTreeMap<(String, String), Arc<PathSet>>,
}

impl DataPlane {
    /// The path set between two hosts (by name).
    pub fn between(&self, src: &str, dst: &str) -> Option<&PathSet> {
        self.shared_between(src, dst).map(|ps| ps.as_ref())
    }

    /// The shared handle for a pair — lets callers reuse a path set in
    /// another data plane for the cost of a reference-count bump.
    pub fn shared_between(&self, src: &str, dst: &str) -> Option<&Arc<PathSet>> {
        self.pairs.get(&(src.to_string(), dst.to_string()))
    }

    /// Iterates over every `((src, dst), paths)` pair.
    pub fn pairs(&self) -> impl Iterator<Item = (&(String, String), &PathSet)> {
        self.pairs.iter().map(|(k, v)| (k, v.as_ref()))
    }

    /// Like [`DataPlane::pairs`], exposing the shared handles: two data
    /// planes that reuse a path set (the incremental engine's Arc sharing)
    /// yield pointer-equal handles, so a comparer can skip the deep path
    /// comparison for them.
    pub fn shared_pairs(&self) -> impl Iterator<Item = (&(String, String), &Arc<PathSet>)> {
        self.pairs.iter()
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
    /// mapping, Appendix A).
    pub fn restricted_to(&self, hosts: &BTreeSet<String>) -> DataPlane {
        DataPlane {
            pairs: self
                .pairs
                .iter()
                .filter(|((s, d), _)| hosts.contains(s) && hosts.contains(d))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Exact route equivalence on a host subset: identical path sets for
    /// every pair (Definition 3.3's *route equivalence*). Both maps are
    /// walked in key order in place, so no key is cloned.
    pub fn equivalent_on(&self, other: &DataPlane, hosts: &BTreeSet<String>) -> bool {
        let on = |((s, d), _): &(&(String, String), &Arc<PathSet>)| {
            hosts.contains(s) && hosts.contains(d)
        };
        self.pairs
            .iter()
            .filter(on)
            .eq(other.pairs.iter().filter(on))
    }

    /// Inserts a pair (used by the extractor and tests).
    pub fn insert(&mut self, src: String, dst: String, paths: PathSet) {
        self.insert_shared(src, dst, Arc::new(paths));
    }

    /// Inserts an already-shared path set without copying it.
    pub fn insert_shared(&mut self, src: String, dst: String, paths: Arc<PathSet>) {
        self.pairs.insert((src, dst), paths);
    }
}

/// Extracts the complete data plane: every ordered host pair.
///
/// Extraction runs per destination, not per pair. A destination's FIB
/// entry is looked up once at every router its traffic can reach, which
/// gives the destination's next-hop graph over router ids ([`DestDag`]);
/// every source then reads its gateway's paths and flags from that one
/// graph. The per-pair DFS of [`trace_into`] runs only for a pair whose
/// gateway the graph cannot answer exactly: one that reaches a forwarding
/// loop or the [`MAX_PATHS_PER_PAIR`] cap, where the DFS's result depends
/// on its visiting order. Everywhere else the two agree exactly (see
/// [`DestDag`]).
///
/// Destinations are independent, so they fan out over the shared executor;
/// so do sources when their rows of path sets are materialized from the
/// graphs. Hosts are name-sorted once, so rows come out in (src, dst) name
/// order and the map bulk-builds from a sorted sequence. The result is
/// byte-identical at any worker count.
///
/// A panic inside either fan-out is contained: every sibling worker is
/// still joined and the first payload surfaces as [`SimError::TracePanic`]
/// instead of aborting the process.
pub fn extract_dataplane(net: &SimNetwork, fibs: &Fibs) -> Result<DataPlane, SimError> {
    let (dataplane, stats) = extract(net, fibs)?;
    confmask_obs::counter_add("sim.dataplane.destinations", stats.destinations);
    confmask_obs::counter_add("sim.dataplane.dag_nodes", stats.dag_nodes);
    confmask_obs::counter_add("sim.dataplane.dfs_fallbacks", stats.dfs_fallbacks);
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
}

fn extract(net: &SimNetwork, fibs: &Fibs) -> Result<(DataPlane, ExtractStats), SimError> {
    let mut hosts: Vec<HostId> = net.hosts_iter().map(|(id, _)| id).collect();
    hosts.sort_by(|a, b| net.host(*a).name.cmp(&net.host(*b).name));

    let dags = confmask_exec::try_par_map(&hosts, |&dst| DestDag::build(net, fibs, &hosts, dst))
        .map_err(|p| SimError::TracePanic(p.message()))?;
    let stats = ExtractStats {
        destinations: dags.len() as u64,
        dag_nodes: dags.iter().map(|g| g.resolved).sum(),
        dfs_fallbacks: dags.iter().map(|g| g.fallbacks.len() as u64).sum(),
    };

    // Rows are materialized per source on the executor, so the name paths
    // are allocated on the workers: building them all on the calling
    // thread raised peak RSS by about 1.5% on the two-thread
    // verify-fattree workload. Rows in (src, dst) index order ==
    // (src, dst) name order.
    let n = hosts.len();
    let sources: Vec<usize> = (0..n).collect();
    let rows = confmask_exec::try_par_map(&sources, |&s| {
        let dsts = (0..n).filter(|&d| d != s);
        dsts.map(|d| dags[d].path_set(net, s, hosts[s], hosts[d]))
            .collect::<Vec<_>>()
    })
    .map_err(|p| SimError::TracePanic(p.message()))?;
    let name = |i: usize| net.host(hosts[i]).name.clone();
    let rows = rows.into_iter().enumerate().flat_map(|(s, row)| {
        let dsts = (0..n).filter(move |&d| d != s);
        dsts.zip(row)
            .map(move |(d, ps)| ((name(s), name(d)), Arc::new(ps)))
    });
    let dataplane = DataPlane {
        pairs: BTreeMap::from_iter(rows),
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
    /// The sorted, distinct forward next hops: a span into [`DestDag::succ`].
    succ: (u32, u32),
}

/// One destination's next-hop graph over router ids, resolved from the
/// routers its sources' gateways can reach, plus the per-pair DFS results
/// of the pairs it cannot answer.
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
/// exactly that list in that order.
struct DestDag {
    nodes: Vec<DagNode>,
    succ: Vec<u32>,
    /// Reused buffer for sorting one router's next hops.
    scratch: Vec<RouterId>,
    /// Routers resolved.
    resolved: u64,
    /// `(source index, path set)` of the pairs whose gateway is inexact,
    /// traced by the per-pair DFS, ascending by source index.
    fallbacks: Vec<(usize, PathSet)>,
}

impl DestDag {
    /// Resolves the graph from every source's gateway and traces the
    /// pairs it cannot answer exactly.
    fn build(net: &SimNetwork, fibs: &Fibs, hosts: &[HostId], dst: HostId) -> DestDag {
        let mut dag = DestDag {
            nodes: vec![DagNode::default(); net.router_count()],
            succ: Vec::new(),
            scratch: Vec::new(),
            resolved: 0,
            fallbacks: Vec::new(),
        };
        let dst_node = net.host(dst);
        for (si, &src) in hosts.iter().enumerate() {
            if src == dst {
                continue;
            }
            let Start::Gateway(gw) = start(net.host(src), dst_node) else {
                continue;
            };
            let g = gw.0 as usize;
            if dag.nodes[g].visit == Visit::New {
                dag.resolve(fibs, dst_node, g);
            }
            if dag.nodes[g].inexact {
                dag.fallbacks.push((si, trace(net, fibs, src, dst)));
            }
        }
        dag
    }

    /// Memoized DFS: fills `nodes[r]` from one FIB lookup and its
    /// successors' entries.
    fn resolve(&mut self, fibs: &Fibs, dst: &HostNode, r: usize) {
        self.nodes[r].visit = Visit::OnStack;
        let mut node = DagNode {
            visit: Visit::Done,
            ..DagNode::default()
        };
        match fibs.of(RouterId(r as u32)).lookup(dst.addr) {
            None => node.blackhole = true,
            Some(entry) => {
                for nh in &entry.next_hops {
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
                                Visit::New => self.resolve(fibs, dst, x),
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
            }
        }
        node.inexact |= node.count >= MAX_PATHS_PER_PAIR;
        self.nodes[r] = node;
        self.resolved += 1;
    }

    /// The path set of `src → dst`, `src` being host `si` of the sorted
    /// host table.
    fn path_set(&self, net: &SimNetwork, si: usize, src: HostId, dst: HostId) -> PathSet {
        let (src_node, dst_node) = (net.host(src), net.host(dst));
        let gw = match start(src_node, dst_node) {
            Start::Unattached => {
                return PathSet {
                    blackhole: true,
                    ..PathSet::default()
                }
            }
            Start::SameLan => {
                return PathSet {
                    paths: vec![vec![src_node.name.clone(), dst_node.name.clone()]],
                    ..PathSet::default()
                }
            }
            Start::Gateway(gw) => gw.0,
        };
        let node = self.nodes[gw as usize];
        if node.inexact {
            let i = self
                .fallbacks
                .binary_search_by_key(&si, |f| f.0)
                .expect("every inexact pair was traced");
            return self.fallbacks[i].1.clone();
        }
        let mut paths = Vec::with_capacity(node.count);
        let mut walk = Vec::new();
        self.paths_from(gw, &mut walk, &mut |walk| {
            let mut p = Vec::with_capacity(walk.len() + 2);
            p.push(src_node.name.clone());
            p.extend(walk.iter().map(|&r| net.router(RouterId(r)).name.clone()));
            p.push(dst_node.name.clone());
            paths.push(p);
        });
        PathSet {
            paths,
            blackhole: node.blackhole,
            has_loop: false,
        }
    }

    /// Calls `emit` with every path from exact router `r`, in sorted order.
    fn paths_from(&self, r: u32, walk: &mut Vec<u32>, emit: &mut impl FnMut(&[u32])) {
        walk.push(r);
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

/// An arena-backed path set over router *ids*: every enumerated path is a
/// span into one flat hop vector, so tracing a pair allocates nothing past
/// the first reuse and classifying the result never clones a device name.
///
/// `RouterId`s are assigned in lexicographic hostname order
/// ([`SimNetwork::build`]), so sorting id sequences orders spans exactly as
/// [`trace`] orders its name paths — a materialized arena is byte-identical
/// to the `PathSet` the name-level tracer would have produced. A span of
/// length zero is the same-LAN direct path (`[h_s, h_d]`, no routers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathArena {
    /// Flat hop storage: router ids of every span, back to back.
    hops: Vec<u32>,
    /// One `(start, len)` span into `hops` per path.
    spans: Vec<(u32, u32)>,
    /// Some branch dropped traffic (no FIB entry / undeliverable).
    pub blackhole: bool,
    /// Some branch entered a forwarding loop.
    pub has_loop: bool,
}

impl PathArena {
    /// Resets the arena for the next pair, keeping the allocations.
    pub fn clear(&mut self) {
        self.hops.clear();
        self.spans.clear();
        self.blackhole = false;
        self.has_loop = false;
    }

    /// Number of recorded paths.
    pub fn path_count(&self) -> usize {
        self.spans.len()
    }

    /// Fully reachable: at least one path and no anomalous branch
    /// (mirror of [`PathSet::clean`]).
    pub fn clean(&self) -> bool {
        !self.spans.is_empty() && !self.blackhole && !self.has_loop
    }

    /// Iterates the paths as router-id slices (host endpoints excluded).
    pub fn paths(&self) -> impl Iterator<Item = &[u32]> {
        self.spans
            .iter()
            .map(|&(start, len)| &self.hops[start as usize..(start + len) as usize])
    }

    fn push_walk(&mut self, walk: &[RouterId]) {
        let start = self.hops.len() as u32;
        self.hops.extend(walk.iter().map(|r| r.0));
        self.spans.push((start, walk.len() as u32));
    }

    /// Sorts spans by hop sequence and drops duplicates — the id-level
    /// equivalent of the `sort` + `dedup` the name tracer applies.
    fn sort_dedup(&mut self) {
        let PathArena { hops, spans, .. } = self;
        let seg = |&(start, len): &(u32, u32)| &hops[start as usize..(start + len) as usize];
        spans.sort_by(|a, b| seg(a).cmp(seg(b)));
        spans.dedup_by(|a, b| seg(a) == seg(b));
    }

    /// Materializes the arena into a name-level [`PathSet`] with the given
    /// host endpoints.
    pub fn materialize(&self, net: &SimNetwork, src_name: &str, dst_name: &str) -> PathSet {
        let mut paths = Vec::with_capacity(self.spans.len());
        for hops in self.paths() {
            let mut p = Vec::with_capacity(hops.len() + 2);
            p.push(src_name.to_string());
            p.extend(hops.iter().map(|&r| net.router(RouterId(r)).name.clone()));
            p.push(dst_name.to_string());
            paths.push(p);
        }
        PathSet {
            paths,
            blackhole: self.blackhole,
            has_loop: self.has_loop,
        }
    }

    /// Allocation-free equality against a name-level path set: true iff
    /// [`PathArena::materialize`] would compare equal to `ps`. Host
    /// endpoints are equal by construction (the caller traced the same
    /// pair), so only flags and interior router names are compared.
    pub fn matches(&self, net: &SimNetwork, ps: &PathSet) -> bool {
        if self.blackhole != ps.blackhole
            || self.has_loop != ps.has_loop
            || self.spans.len() != ps.paths.len()
        {
            return false;
        }
        self.paths().zip(ps.paths.iter()).all(|(hops, path)| {
            path.len() == hops.len() + 2
                && hops
                    .iter()
                    .zip(path[1..].iter())
                    .all(|(&r, name)| net.router(RouterId(r)).name == *name)
        })
    }
}

/// Traces all forwarding paths from `src` to `dst` (the paper's
/// `traceroute(h_a, h_b)`).
pub fn trace(net: &SimNetwork, fibs: &Fibs, src: HostId, dst: HostId) -> PathSet {
    let mut arena = PathArena::default();
    trace_into(net, fibs, src, dst, &mut arena);
    let src_node = net.host(src);
    let dst_node = net.host(dst);
    arena.materialize(net, &src_node.name, &dst_node.name)
}

/// Traces `src → dst` into a caller-owned arena — the allocation-free core
/// of [`trace`]. The arena is cleared first, so it can be reused across an
/// entire sweep of pairs.
pub fn trace_into(net: &SimNetwork, fibs: &Fibs, src: HostId, dst: HostId, out: &mut PathArena) {
    out.clear();
    let gw = match start(net.host(src), net.host(dst)) {
        Start::Unattached => {
            out.blackhole = true;
            return;
        }
        // Direct delivery: a zero-length span (no interior routers).
        Start::SameLan => {
            out.spans.push((out.hops.len() as u32, 0));
            return;
        }
        Start::Gateway(gw) => gw,
    };
    let mut walk: Vec<RouterId> = vec![gw];
    dfs(net, fibs, dst, &mut walk, out);
    out.sort_dedup();
}

fn dfs(net: &SimNetwork, fibs: &Fibs, dst: HostId, walk: &mut Vec<RouterId>, out: &mut PathArena) {
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
    for nh in &entry.next_hops {
        match nh {
            NextHop::Deliver { iface } => {
                // Delivery succeeds only if the destination host actually
                // sits on this router+interface.
                if dst_node.attachment == Some((cur, *iface)) {
                    out.push_walk(walk);
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
    let mut out = PathArena::default();
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
    use crate::{simulate, FibEntry, RouteSource};
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
            ps.paths,
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
            ps.paths,
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
        assert_eq!(ps.paths, vec![vec!["h1".to_string(), "h1b".into()]]);
    }

    #[test]
    fn missing_route_is_blackhole() {
        let mut cfgs = two_net();
        // Withdraw r2's LAN from OSPF.
        let r2 = cfgs.routers.get_mut("r2").unwrap();
        r2.ospf.as_mut().unwrap().networks[0].prefix = "10.0.0.0/31".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        let ps = sim.dataplane.between("h1", "h2").unwrap();
        assert!(ps.blackhole);
        assert!(ps.paths.is_empty());
    }

    #[test]
    fn detached_host_is_blackhole() {
        let mut cfgs = two_net();
        cfgs.hosts.get_mut("h1").unwrap().gateway = "10.1.1.9".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        assert!(sim.dataplane.between("h1", "h2").unwrap().blackhole);
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
    fn arena_trace_matches_name_trace() {
        let sim = simulate(&two_net()).unwrap();
        let mut arena = PathArena::default();
        let ids: Vec<HostId> = sim.net.hosts_iter().map(|(id, _)| id).collect();
        for &s in &ids {
            for &d in &ids {
                if s == d {
                    continue;
                }
                trace_into(&sim.net, &sim.fibs, s, d, &mut arena);
                let named = trace(&sim.net, &sim.fibs, s, d);
                let (sn, dn) = (&sim.net.host(s).name, &sim.net.host(d).name);
                assert_eq!(arena.materialize(&sim.net, sn, dn), named);
                assert!(arena.matches(&sim.net, &named));
                // And a perturbed path set must NOT match.
                let mut other = named.clone();
                other.blackhole = !other.blackhole;
                assert!(!arena.matches(&sim.net, &other));
            }
        }
    }

    #[test]
    fn arena_same_lan_is_zero_length_span() {
        let mut cfgs = two_net();
        cfgs.hosts
            .insert("h1b".into(), host("h1b", "10.1.1.101", "10.1.1.1"));
        let sim = simulate(&cfgs).unwrap();
        let h1 = sim.net.hosts_iter().find(|(_, h)| h.name == "h1").unwrap().0;
        let h1b = sim
            .net
            .hosts_iter()
            .find(|(_, h)| h.name == "h1b")
            .unwrap()
            .0;
        let mut arena = PathArena::default();
        trace_into(&sim.net, &sim.fibs, h1, h1b, &mut arena);
        assert_eq!(arena.path_count(), 1);
        assert_eq!(arena.paths().next().unwrap().len(), 0);
        assert_eq!(
            arena.materialize(&sim.net, "h1", "h1b").paths,
            vec![vec!["h1".to_string(), "h1b".into()]]
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
        let mut fewer = DataPlane::default();
        for ((s, d), ps) in dp.shared_pairs() {
            if (s.as_str(), d.as_str()) != ("h1", "h3") {
                fewer.insert_shared(s.clone(), d.clone(), ps.clone());
            }
        }
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
        let mut other = dp.clone();
        let mut changed = dp.between("h1", "h3").unwrap().clone();
        changed.blackhole = true;
        other.insert("h1".into(), "h3".into(), changed);
        other.insert("hz".into(), "h1".into(), PathSet::default());
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
            Arc::make_mut(&mut self.sim.fibs.per_router[r.0 as usize]).insert(FibEntry {
                prefix,
                source: RouteSource::Static,
                next_hops,
            });
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
                        assert_eq!(dp.between(&sn.name, &dn.name), Some(&oracle));
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
            assert!(ps.has_loop && !ps.paths.is_empty(), "{src}: {ps:?}");
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
        assert_eq!(ps.paths.len(), 1);
        assert!(!ps.blackhole, "truncated before r5: {ps:?}");
        assert!(dp.between("h5", "h4").unwrap().blackhole);
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
        assert!(ps.blackhole && !ps.has_loop);
        assert_eq!(ps.paths, vec![vec!["h1", "r1", "r2", "r3", "r4", "h4"]]);
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
            assert!(ps.blackhole && ps.paths.is_empty(), "{ps:?}");
            // Toward hx the LAN delivers, but not to hx's attachment.
            assert!(dp.between(dst, "hx").unwrap().blackhole);
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
            dp.between("h1b", "h1").unwrap().paths,
            vec![vec!["h1b".to_string(), "h1".into()]]
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
            ps.paths,
            vec![
                vec!["h1", "r1", "r2", "r3", "r4", "h4"],
                vec!["h1", "r1", "r3", "r4", "h4"],
            ]
        );
    }
}
