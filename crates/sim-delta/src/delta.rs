//! Delta planning for fault perturbations.
//!
//! Given a cached converged simulation of a base network and the
//! interfaces a scenario administratively shuts (`shutdown: false → true`,
//! as [`FailureScenario::shutdowns`] lists them against the base configs;
//! nothing applies them to a copy), this module builds a [`ShutdownPlan`]:
//! the perturbed model, derived from the cached one
//! ([`SimNetwork::without_interfaces`]), and the perturbed FIBs,
//! recomputing only what the shutdowns can have touched, plus the lookups
//! the new FIBs answer differently and the hosts whose attachment moved:
//! the inputs from which the sweep's pair index (`crate::sweep`) finds the
//! pairs whose cached path sets may no longer hold. Shutdowns only
//! ever **remove** model elements, which is the monotonicity every
//! warm-start argument below leans on, and the removal alone defines the
//! interface renumbering ([`IfaceRemap`]) every reuse below applies.
//!
//! [`FailureScenario::shutdowns`]: confmask_sim::fault::FailureScenario::shutdowns
//!
//! The contract is **byte identity** with a cold `simulate()` of the
//! perturbed configs: the plan's FIBs equal the cold FIBs entry by entry,
//! every pair the sweep's index leaves clean has a cached path set equal to
//! the cold one, and every pair it marks dirty has a `trace` over the
//! plan's model and FIBs equal to the cold path set. The sweep classifies
//! pairs straight off the plan, re-tracing through lazy per-destination
//! tracers, and never builds a perturbed data plane.
//! Per-protocol strategy (soundness arguments inline):
//!
//! * **OSPF** — per-prefix SPFs are independent, so only *affected*
//!   prefixes re-run ([`ospf::compute_subset`]); the rest keep the
//!   cached routes with interface indices remapped. A prefix is affected
//!   iff a failed interface sits directly on it (advertiser seeds and the
//!   connected-route skip change) or a removed OSPF edge lies on its
//!   shortest-path DAG (`dist[u] == cost(u→v) + dist[v]`) at a router left
//!   without another way to keep its distance
//!   ([`ospf::distances_survive_removal`]). Removing a non-DAG edge
//!   changes neither distances (it was on no shortest path) nor candidate
//!   sets (every candidate edge satisfies the DAG equation). Removing a
//!   DAG edge at a router that keeps a witness (a surviving seed or DAG
//!   edge) changes no distance either, so only that router's row is
//!   recomputed, against the cached distances ([`ospf::candidate_row`]);
//!   on ECMP-rich networks most link failures are of this kind.
//! * **RIP** — Bellman–Ford re-runs for every prefix but warm-starts from
//!   the cached fixpoint ([`rip::compute_with_state`]), which is sound for
//!   removal-only perturbations (see the proof on that function).
//! * **BGP** — warm-starting a path-vector protocol is *unsound* (BGP has
//!   multiple equilibria; a warm start can land in a different one than a
//!   cold run). Instead, the cached routes are reused wholesale when the
//!   iteration is provably isomorphic — the IGP router-path matrix is
//!   unchanged modulo interface renumbering and no removed interface was
//!   BGP-relevant (session endpoint, session carrier, or origin prefix
//!   owner) — and fully recomputed otherwise.
//! * **FIB merge** — a router whose merge inputs and interface numbering
//!   are unchanged shares the cached FIB. One with silent RIP, absent or
//!   reused BGP and no static routes is patched: the base table is copied
//!   with its hops renumbered and only the prefixes the plan owns go
//!   through the per-prefix merge rule
//!   ([`Fib::patched`],
//!   [`PrefixMerge::merge_prefix`]); every other input of a non-owned
//!   prefix is the base's modulo renumbering, so the rule would rebuild
//!   the base entry. Every other router goes through the full merge a cold
//!   run uses ([`merge_router_fib`]). The rule reads OSPF rows through a
//!   row source ([`OspfRows`]): the plan's `PlanRows` yields the
//!   recomputed row where the plan owns the prefix and the cached row,
//!   renumbered as it is read, everywhere else.
//! * **Data plane** — the trace DFS consults exactly one FIB entry per
//!   visited router: the longest-prefix match for the *destination host's*
//!   address. So a pair keeps its cached [`PathSet`](confmask_sim::PathSet)
//!   when its endpoints' attachments survived and, for its destination, no
//!   router it can reach resolves that address differently (modulo
//!   interface renumbering): the DFS then replays move for move,
//!   blackholes, loops and ECMP truncation included. An unattached source
//!   is a blackhole before any lookup, so its pairs always keep their sets.
//!   A clean, non-truncated walk visits exactly the routers on its recorded
//!   paths, so only a changed lookup at one of those routers can change it.
//!   The plan reports the changed lookups sparsely, as sorted (destination
//!   host, router) keys of merged routers only (a shared FIB changes no
//!   lookup), and the hosts whose attachment moved; the sweep's index
//!   turns both into the pairs to re-trace.

use crate::{ConvergedSim, DeltaStats};
use confmask_net_types::{HostId, Ipv4Prefix, RouterId};
use confmask_sim::ospf::RouterPaths;
use confmask_sim::{
    bgp, merge_router_fib, ospf, rip, BgpRoutes, Fib, FibEntry, Fibs, IfaceRemap, NextHop,
    OspfRows, PrefixMerge, SimError, SimNetwork,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Everything the shutdown delta derives about a perturbed network: its
/// model and FIBs, and what the sweep's pair index needs to find the pairs
/// they may have changed, which it re-traces over `new_net` and `fibs`.
pub(crate) struct ShutdownPlan {
    /// The perturbed network model.
    pub new_net: SimNetwork,
    /// The perturbed per-router FIBs.
    pub fibs: Fibs,
    /// Every `(destination host, router)` whose lookup of that host's
    /// address differs from the cached base's, sorted. Only merged routers
    /// appear: a shared FIB changes no lookup.
    pub changed_lookups: Vec<(u32, u32)>,
    /// Hosts whose attachment the shutdowns changed, ascending.
    pub moved_hosts: Vec<u32>,
    /// The delta statistics of the model and FIBs; the sweep adds the
    /// data-plane tallies.
    pub stats: DeltaStats,
}

/// Builds the [`ShutdownPlan`] for shutting the `(router, interface
/// index)`s listed in `shut`: model and FIBs (both incremental where
/// provable), the lookups they change and the hosts they move. `matched`
/// holds, per `host × routers + router`, the FIB prefix the base router's
/// longest-prefix match resolves that host's address to (`None` = no
/// route); the sweep computes it once per baseline. The model is derived
/// from the cached one ([`SimNetwork::without_interfaces`]), sharing every
/// router the shutdowns leave unchanged, and its interface renumbering
/// drives every reuse below.
///
/// Precondition: `shut` is [`FailureScenario::shutdowns`] of
/// `base.configs` (interfaces that are up there);
/// [`ScenarioSweep::digest`](crate::ScenarioSweep::digest) is the only
/// caller and passes nothing else. Returns `Ok(None)` when a listed
/// interface's name does not name exactly one interface of a base router,
/// or when a defensive invariant check fails (a cached OSPF row through a
/// removed interface, for one), and the caller should fall back to a cold
/// run.
///
/// [`FailureScenario::shutdowns`]: confmask_sim::fault::FailureScenario::shutdowns
pub(crate) fn plan_shutdowns(
    base: &ConvergedSim,
    matched: &[Option<Ipv4Prefix>],
    shut: &[(String, usize)],
) -> Result<Option<ShutdownPlan>, SimError> {
    // The model finds interfaces by name, so a stanza whose name another
    // stanza of its router shares cannot be removed from it: such a
    // scenario goes to the cold loop, as does a router the base lacks.
    let unique_name = |(router, i): &(String, usize)| {
        let rc = base.configs.routers.get(router)?;
        let name = &rc.interfaces.get(*i)?.name;
        let shared = rc.interfaces.iter().filter(|f| f.name == *name).count() != 1;
        (!shared).then(|| (router.clone(), name.clone()))
    };
    let Some(names) = shut.iter().map(unique_name).collect::<Option<Vec<_>>>() else {
        return Ok(None);
    };
    let base_net = &base.sim.net;
    let Some((new_net, remap)) = base_net.without_interfaces(&names) else {
        return Ok(None);
    };
    let n = base_net.router_count();
    let failed: Vec<(usize, usize)> = remap.removed().collect();

    // ---- OSPF: recompute only affected prefixes. ----
    let mut affected: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    for &(r, bi) in &failed {
        // Failed interface directly on a destination LAN: advertiser seeds
        // and the connected-route skip change for that prefix.
        let prefix = base_net.routers[r].ifaces[bi].prefix;
        if base_net.destinations.iter().any(|(p, _)| *p == prefix) {
            affected.insert(prefix);
        }
    }
    // A removed OSPF edge on a prefix's shortest-path DAG either keeps
    // every distance, and then only the routers that lost a DAG edge get
    // new rows, or forces a fresh SPF of the prefix.
    let mut touched: Vec<(Ipv4Prefix, Vec<usize>)> = Vec::new();
    for (prefix, dist) in &base.state.ospf_dist {
        if affected.contains(prefix) {
            continue;
        }
        match ospf::distances_survive_removal(base_net, prefix, dist, &failed) {
            None => {
                affected.insert(*prefix);
            }
            Some(routers) if routers.is_empty() => {}
            Some(routers) => touched.push((*prefix, routers)),
        }
    }

    let affected_dests: Vec<(Ipv4Prefix, Vec<HostId>)> = new_net
        .destinations
        .iter()
        .filter(|(p, _)| affected.contains(p))
        .cloned()
        .collect();
    let ospf_prefixes_total = new_net.destinations.len();
    let ospf_prefixes_recomputed = affected_dests.len();
    let (mut ospf_routes, _) = ospf::compute_subset(&new_net, &affected_dests);
    // Per router: the unaffected prefixes whose row was recomputed against
    // the unchanged distances.
    let mut recomputed_rows: Vec<Vec<Ipv4Prefix>> = vec![Vec::new(); n];
    for (prefix, routers) in &touched {
        let dist = &base.state.ospf_dist[prefix];
        for &u in routers {
            let row = ospf::candidate_row(&new_net, RouterId(u as u32), dist, prefix);
            if !row.is_empty() {
                ospf_routes[u].insert(*prefix, row);
            }
            recomputed_rows[u].push(*prefix);
        }
    }

    // ---- RIP: warm-start the fixpoint (sound under removal-only). ----
    let (rip_routes, _rip_dist) = rip::compute_with_state(&new_net, Some(&base.state.rip_dist));
    let rip_warm_started = !base.state.rip_dist.is_empty();

    // ---- BGP: reuse when provably isomorphic, else recompute. ----
    let any_bgp = new_net.routers.iter().any(|r| r.asn.is_some());
    let (bgp_routes, bgp_reused) = if !any_bgp {
        (vec![BTreeMap::new(); n], None)
    } else {
        let rp_new = ospf::router_paths(&new_net);
        let isomorphic = base
            .state
            .router_paths
            .as_ref()
            .is_some_and(|rp| router_paths_equal_after_remap(rp, &rp_new, &remap))
            && !failed
                .iter()
                .any(|&(r, bi)| iface_bgp_relevant(base_net, r, bi));
        let reused = if isomorphic {
            remap_bgp_routes(&base.state.bgp_routes, &remap)
        } else {
            None
        };
        match reused {
            Some(routes) => (routes, Some(true)),
            None => (bgp::compute(&new_net, &rp_new)?, Some(false)),
        }
    };

    // ---- FIB merge, incremental where provable. A router's FIB can be
    // shared with the base (an `Arc` clone) when every merge input is
    // unchanged *and* its interface numbering is the identity: no removed
    // interface (so connected routes and hop indices keep their bytes), no
    // static routes (their resolution peeks at neighbors' interface
    // tables), RIP silent on both sides, BGP absent or reused
    // (identity-remapped = identical), and the recomputed OSPF rows of the
    // prefixes the plan owns (affected prefixes, and the router's own
    // recomputed rows) equal to the cached ones. A router that meets every
    // condition but the last two is patched: its base table is copied,
    // renumbered, with only the owned prefixes re-merged
    // (`Fib::patched`). Every non-owned prefix's merge inputs are the
    // base's modulo renumbering — no removed interface sits on it (that
    // would make it affected), its OSPF row is the cached one, BGP is the
    // base's, RIP has nothing — so the per-prefix rule would rebuild the
    // base entry, renumbered. The rest (static routes, RIP, recomputed
    // BGP) take the full merge, reading their OSPF rows through
    // `PlanRows`: the recomputed row where the plan owns the prefix, else
    // the cached row renumbered as it is read (the remap is monotone, so
    // sorted hop lists stay sorted). ----
    //
    // ---- Data plane: which lookups changed. A pair's walk asks each
    // router on it one FIB question, the longest-prefix match of the
    // destination host's address, so the plan reports per destination
    // the routers that now answer it differently; only merged routers can.
    // The prefixes whose entry changed modulo renumbering are found among
    // the owned ones of a patched table and among all of a fully merged
    // one. With an unchanged key set a host's match lands on the same
    // prefix as in the base (`matched`), so the diff set answers
    // directly; a changed key set (e.g. a lost route) falls back to
    // actual lookups. ----
    let rip_silent = base.state.rip_dist.is_empty() && rip_routes.iter().all(|t| t.is_empty());
    let bgp_stable = bgp_reused != Some(false);
    let affected_keys: Vec<Ipv4Prefix> = affected_dests.iter().map(|(p, _)| *p).collect();
    let hosts: Vec<HostId> = new_net.hosts_iter().map(|(id, _)| id).collect();
    let mut changed_lookups: Vec<(u32, u32)> = Vec::new();
    let (mut fibs_shared, mut fib_entries_merged, mut fib_entries_copied) = (0, 0, 0);
    let mut per_router = Vec::with_capacity(n);
    let mut owned: Vec<Ipv4Prefix> = Vec::new();
    for r in 0..n {
        owned.clear();
        owned.extend(affected_keys.iter().chain(&recomputed_rows[r]));
        owned.sort_unstable();
        owned.dedup();
        let rows = PlanRows {
            fresh: &ospf_routes[r],
            cached: &base.state.ospf_routes[r],
            owned: &owned,
            remap: &remap,
            r,
        };
        let identity = remap.is_identity(r);
        let patchable = rip_silent && bgp_stable && new_net.routers[r].static_routes.is_empty();
        if identity
            && patchable
            && owned
                .iter()
                .all(|p| rows.fresh.get(p) == rows.cached.get(p))
        {
            fibs_shared += 1;
            per_router.push(Arc::clone(&base.sim.fibs.per_router[r]));
            continue;
        }
        // A cached hop through a removed interface is a removed tight
        // edge, so its prefix would have been affected or its row
        // recomputed: reaching one means that invariant broke. Every row
        // the plan does not own is checked, not only those the merge goes
        // on to read (a connected or eBGP route shadows the rest).
        if !identity && !rows.cached_rows_survive() {
            return Ok(None);
        }
        let rid = RouterId(r as u32);
        let base_fib = base.sim.fibs.of(rid);
        // Only an entry the merge decided afresh can differ from the base:
        // the owned ones of a patched table, any one of a full merge.
        let (fib, diff) = if patchable {
            let merge = PrefixMerge::new(&new_net, rid, &rows, &rip_routes, &bgp_routes);
            // A copied entry through a removed interface breaks the same
            // invariant as a cached row through one.
            let renumber = |hop: NextHop| hop.renumbered(|i| remap.get(r, i));
            let Some(fib) = base_fib.patched(&owned, renumber, |b, p| merge.merge_prefix(b, p))
            else {
                return Ok(None);
            };
            let merged = owned.iter().filter(|p| fib.entry(p).is_some()).count();
            fib_entries_merged += owned.len();
            fib_entries_copied += fib.len() - merged;
            let diff = changed_entries(base_fib, &fib, owned.iter().copied(), &remap, r);
            (fib, diff)
        } else {
            let fib = merge_router_fib(&new_net, rid, &rows, &rip_routes, &bgp_routes);
            fib_entries_merged += new_net.destinations.len();
            let keys = base_fib.entries().map(|e| e.prefix);
            let diff = (base_fib.len() == fib.len())
                .then(|| changed_entries(base_fib, &fib, keys, &remap, r))
                .flatten();
            (fib, diff)
        };
        let key = |di: usize| (di as u32, r as u32);
        match diff {
            None => changed_lookups.extend(
                hosts
                    .iter()
                    .enumerate()
                    .filter(|(_, &h)| {
                        let addr = new_net.host(h).addr;
                        !lookup_remap_equal(base_fib.lookup(addr), fib.lookup(addr), &remap, r)
                    })
                    .map(|(di, _)| key(di)),
            ),
            Some(diff) if !diff.is_empty() => changed_lookups.extend(
                (0..hosts.len())
                    .filter(|&di| {
                        matched[di * n + r].is_some_and(|k| diff.binary_search(&k).is_ok())
                    })
                    .map(key),
            ),
            Some(_) => {}
        }
        per_router.push(Arc::new(fib));
    }
    let fibs = Fibs { per_router };
    changed_lookups.sort_unstable();

    let moved_hosts = hosts
        .iter()
        .filter(|&&h| !attachment_unchanged(base_net, &new_net, &remap, h))
        .map(|h| h.0)
        .collect();
    let routers_shared = new_net
        .routers
        .iter()
        .zip(&base_net.routers)
        .filter(|(new, old)| Arc::ptr_eq(new, old))
        .count();
    Ok(Some(ShutdownPlan {
        new_net,
        fibs,
        changed_lookups,
        moved_hosts,
        stats: DeltaStats {
            ospf_prefixes_total,
            ospf_prefixes_recomputed,
            rip_warm_started,
            bgp_reused,
            routers_shared,
            fibs_shared,
            fibs_merged: n - fibs_shared,
            fib_entries_merged,
            fib_entries_copied,
            ..DeltaStats::default()
        },
    }))
}

/// One merged router's OSPF rows as the plan's FIB merge reads them: the
/// recomputed row for a prefix the plan owns (an affected prefix, or one
/// whose row this router recomputed), else the cached row, renumbered
/// through the removal's remap as it is read.
struct PlanRows<'a> {
    fresh: &'a BTreeMap<Ipv4Prefix, Vec<(usize, RouterId)>>,
    cached: &'a BTreeMap<Ipv4Prefix, Vec<(usize, RouterId)>>,
    /// The prefixes the plan owns at this router, ascending.
    owned: &'a [Ipv4Prefix],
    remap: &'a IfaceRemap,
    r: usize,
}

impl PlanRows<'_> {
    fn owns(&self, prefix: &Ipv4Prefix) -> bool {
        self.owned.binary_search(prefix).is_ok()
    }

    /// Whether every cached row the plan does not own renumbers, i.e. no
    /// hop of one runs through a removed interface.
    fn cached_rows_survive(&self) -> bool {
        self.cached
            .iter()
            .filter(|(prefix, _)| !self.owns(prefix))
            .all(|(_, hops)| {
                hops.iter()
                    .all(|&(i, _)| self.remap.get(self.r, i).is_some())
            })
    }
}

impl OspfRows for PlanRows<'_> {
    fn row(
        &self,
        prefix: &Ipv4Prefix,
    ) -> Option<impl ExactSizeIterator<Item = (usize, RouterId)> + '_> {
        let owned = self.owns(prefix);
        let hops = if owned { self.fresh } else { self.cached }.get(prefix)?;
        Some(hops.iter().map(move |&(i, v)| {
            let i = if owned {
                i
            } else {
                self.remap
                    .get(self.r, i)
                    .expect("cached rows of a merged router renumber (checked before the merge)")
            };
            (i, v)
        }))
    }
}

/// Whether the cached IGP router-path matrix equals the fresh one after
/// interface renumbering (router ids are stable, so only hop interface
/// indices need mapping).
fn router_paths_equal_after_remap(
    base: &RouterPaths,
    new: &RouterPaths,
    remap: &IfaceRemap,
) -> bool {
    if base.dist != new.dist {
        return false;
    }
    base.next_hops
        .iter()
        .zip(new.next_hops.iter())
        .enumerate()
        .all(|(a, (brow, nrow))| {
            brow.iter().zip(nrow.iter()).all(|(bhops, nhops)| {
                bhops.len() == nhops.len()
                    && bhops
                        .iter()
                        .zip(nhops.iter())
                        .all(|(&(ii, v), &(nii, nv))| remap.get(a, ii) == Some(nii) && v == nv)
            })
        })
}

/// Whether removing this interface can change the BGP computation at all:
/// it terminates a session (its address is some router's configured peer
/// address), carries a session (its prefix covers a peer address on its
/// own router, i.e. it is — or shadows — a session's `local_iface`), or
/// backs a locally originated prefix.
fn iface_bgp_relevant(net: &SimNetwork, r: usize, bi: usize) -> bool {
    let iface = &net.routers[r].ifaces[bi];
    if net
        .routers
        .iter()
        .any(|router| router.sessions.iter().any(|s| s.peer_addr == iface.addr))
    {
        return true;
    }
    if net.routers[r]
        .sessions
        .iter()
        .any(|s| iface.prefix.contains_addr(s.peer_addr))
    {
        return true;
    }
    net.routers[r].bgp_networks.contains(&iface.prefix)
}

/// Renumbers interface indices inside cached BGP routes; `None` when any
/// route references a removed interface (then reuse is off the table).
fn remap_bgp_routes(base: &BgpRoutes, remap: &IfaceRemap) -> Option<BgpRoutes> {
    let mut out = Vec::with_capacity(base.len());
    for (r, table) in base.iter().enumerate() {
        let mut mapped = BTreeMap::new();
        for (prefix, route) in table {
            let mut next_hops = Vec::with_capacity(route.next_hops.len());
            for &(ii, v) in &route.next_hops {
                next_hops.push((remap.get(r, ii)?, v));
            }
            let mut route = route.clone();
            route.next_hops = next_hops;
            mapped.insert(*prefix, route);
        }
        out.push(mapped);
    }
    Some(out)
}

/// The prefixes among `keys` (ascending) at which router `r`'s `base` and
/// `new` tables hold entries that differ modulo renumbering; `None` when
/// one table has an entry at one of them and the other does not (the key
/// sets differ, so a host's match may have moved).
fn changed_entries(
    base: &Fib,
    new: &Fib,
    keys: impl Iterator<Item = Ipv4Prefix>,
    remap: &IfaceRemap,
    r: usize,
) -> Option<Vec<Ipv4Prefix>> {
    let mut diff = Vec::new();
    for p in keys {
        match (base.entry(&p), new.entry(&p)) {
            (Some(be), Some(ne)) if !entry_remap_equal(be, ne, remap, r) => diff.push(p),
            (Some(_), Some(_)) | (None, None) => {}
            _ => return None,
        }
    }
    Some(diff)
}

/// Whether two FIB entries of router `r` are equal after interface
/// renumbering.
fn entry_remap_equal(be: FibEntry, ne: FibEntry, remap: &IfaceRemap, r: usize) -> bool {
    be.prefix == ne.prefix
        && be.source == ne.source
        && be.next_hops.len() == ne.next_hops.len()
        && be
            .next_hops
            .iter()
            .zip(ne.next_hops)
            .all(|(bh, nh)| bh.renumbered(|i| remap.get(r, i)) == Some(*nh))
}

/// Whether two longest-prefix-match results agree after renumbering: both
/// miss, or both hit the same entry modulo interface indices.
fn lookup_remap_equal(
    base: Option<FibEntry>,
    new: Option<FibEntry>,
    remap: &IfaceRemap,
    r: usize,
) -> bool {
    match (base, new) {
        (None, None) => true,
        (Some(be), Some(ne)) => entry_remap_equal(be, ne, remap, r),
        _ => false,
    }
}

/// Whether a host's attachment survived the shutdowns unchanged (modulo
/// interface renumbering).
fn attachment_unchanged(
    base_net: &SimNetwork,
    new_net: &SimNetwork,
    remap: &IfaceRemap,
    h: HostId,
) -> bool {
    match (base_net.host(h).attachment, new_net.host(h).attachment) {
        (None, None) => true,
        (Some((br, bi)), Some((nr, ni))) => br == nr && remap.get(br.0 as usize, bi) == Some(ni),
        _ => false,
    }
}
