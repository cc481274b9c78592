//! The one incremental control-plane planner.
//!
//! Given a converged base network (model, FIBs and per-protocol state) and
//! a list of edits, [`plan`] derives the edited network's model and FIBs,
//! recomputing only what the edits can have touched. Edits come in two
//! kinds ([`Edits`]):
//!
//! * **interface shut** — what a failure scenario does
//!   (`shutdown: false → true`, as [`FailureScenario::shutdowns`] lists
//!   them against the base configs; nothing applies them to a copy). The
//!   fault sweep (`crate::sweep`) plans these;
//! * **router re-filtered** — a router's inbound IGP filters changed, what
//!   the repair loops of Algorithms 1 and 2 do. [`crate::WarmControlPlane`]
//!   plans these.
//!
//! [`FailureScenario::shutdowns`]: confmask_sim::fault::FailureScenario::shutdowns
//!
//! A shutdown only ever **removes** (edges, seeds, connected routes),
//! which is the monotonicity the warm starts below lean on, and the
//! shutdowns alone define the interface renumbering ([`IfaceRemap`])
//! every reuse below applies. A filter edit, whether it adds or drops a
//! deny, moves no distance at all: OSPF filters are RIB-local, so only
//! the filtering router's own candidate hops can change. The model is
//! derived from the base's ([`SimNetwork::without_interfaces`], then
//! [`SimNetwork::set_igp_filters`]); a base handed over by value (the
//! warm handle's) with nothing shut is re-filtered in place.
//!
//! The contract is **byte identity** with a cold build of the edited
//! configs: the plan's FIBs equal the cold FIBs entry by entry, and its
//! re-filtered routers' OSPF tables equal the cold tables. The sweep's
//! pair index and the warm handle's table swap both rest on that. Rows and
//! distances are the flat, destination-indexed tables of `confmask_sim`
//! (DESIGN.md §5): a destination's index is its position in
//! [`SimNetwork::destinations`], which base and plan share, so recomputed
//! and cached rows are compared and read as slices.
//! Per-protocol strategy (soundness arguments inline, DESIGN.md §10.2):
//!
//! * **OSPF** — per-destination SPFs are independent, so only *affected*
//!   destinations re-run ([`ospf::compute_subset`]); the rest keep the
//!   cached rows with interface indices remapped. A destination is
//!   affected iff a failed interface sits directly on it (advertiser
//!   seeds and the connected-route skip change) or a removed OSPF edge
//!   lies on its shortest-path DAG (`dist[u] == cost(u→v) + dist[v]`) at
//!   a router left without another way to keep its distance
//!   ([`ospf::distances_survive_removal`]). Removing a non-DAG edge
//!   changes neither distances (it was on no shortest path) nor candidate
//!   sets (every candidate edge satisfies the DAG equation). Removing a
//!   DAG edge at a router that keeps a witness (a surviving seed or DAG
//!   edge) changes no distance either, so only that router's row is
//!   recomputed, against the cached distances ([`ospf::candidate_rows`]);
//!   on ECMP-rich networks most link failures are of this kind. A filter
//!   changes no distance at all (LSAs flood regardless of filters), and
//!   filters enter only the filtering router's own candidate rule, so a
//!   re-filtered router recomputes every row against the cached
//!   distances and no other router's row moves.
//! * **RIP** — Bellman–Ford re-runs for every destination but warm-starts
//!   from the cached fixpoint ([`rip::compute_with_state`]), which is
//!   sound for removal-only perturbations (see the proof on that
//!   function). A RIP filter moves distances at other routers, so a filter
//!   edit on a model with a RIP-active interface is declined.
//! * **BGP** — warm-starting a path-vector protocol is *unsound* (BGP has
//!   multiple equilibria; a warm start can land in a different one than a
//!   cold run). Instead, the cached routes are reused wholesale when the
//!   iteration is provably isomorphic — the IGP router-path matrix is
//!   unchanged modulo interface renumbering and no removed interface was
//!   BGP-relevant (session endpoint, session carrier, or origin prefix
//!   owner) — and fully recomputed otherwise. BGP reads IGP filters when
//!   it selects and re-advertises iBGP routes, so a filter edit on a model
//!   with a BGP speaker is declined.
//! * **FIB merge** — at each router the plan owns only the destinations
//!   whose recomputed row differs from the cached row after renumbering,
//!   or on which the router lost an interface. A router whose interface
//!   numbering is unchanged, with silent RIP, absent or reused BGP and
//!   nothing owned, shares the cached FIB. One with silent RIP, absent or
//!   reused BGP and no static routes is patched: the base table is copied
//!   with its hops renumbered and only the owned destinations go through
//!   the per-destination merge rule
//!   ([`Fib::patched`](confmask_sim::Fib::patched),
//!   [`PrefixMerge::merge_prefix`]); every other input of a non-owned
//!   destination is the base's modulo renumbering, so the rule would
//!   rebuild the base entry. Every other router goes through the full
//!   merge a cold run uses ([`merge_router_fib`]). The rule reads OSPF
//!   rows through a row source ([`OspfRows`]): the plan's `PlanRows`
//!   yields the recomputed row where the plan owns the destination and
//!   the cached row, renumbered as it is read, everywhere else. The plan
//!   lists each re-merged router with the entries it decided afresh, from
//!   which the sweep finds the lookups that changed.

use crate::DeltaStats;
use confmask_net_types::{Ipv4Prefix, RouterId};
use confmask_sim::ospf::RouterPaths;
use confmask_sim::{
    bgp, merge_router_fib, ospf, rip, BgpRoutes, ControlState, Fibs, Hop, IfaceRemap, NextHop,
    OspfRows, PrefixMerge, RouterNode, Rows, SimError, SimNetwork,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The edits a plan applies to its base: a shut interface takes its
/// edges, seeds and connected route away, and a re-filtered router's new
/// inbound filters deny more or fewer of its own candidate hops, never
/// moving a distance.
#[derive(Debug, Default)]
pub(crate) struct Edits {
    /// Interfaces administratively shut, as `(router, interface)` names.
    pub shut: Vec<(String, String)>,
    /// Routers whose inbound IGP filters changed, each once: each id of the
    /// base model with its freshly resolved node, of which only the
    /// interfaces' filters are read ([`SimNetwork::set_igp_filters`]).
    pub refiltered: Vec<(RouterId, RouterNode)>,
}

/// The control plane of an edited network, derived from its base.
pub(crate) struct Plan {
    /// The edited network model.
    pub net: SimNetwork,
    /// The interface renumbering the shutdowns define.
    pub remap: IfaceRemap,
    /// The edited per-router FIBs.
    pub fibs: Fibs,
    /// Each re-filtered router's OSPF table, every row recomputed, in
    /// [`Edits::refiltered`] order. Every other router's rows are the
    /// base's, renumbered.
    pub ospf_rows: Vec<(RouterId, Rows)>,
    /// Every router whose FIB was re-merged, ascending, with the prefixes
    /// whose entries it decided afresh (ascending; `None` when it decided
    /// every entry, a full merge). Every other entry is the base's,
    /// renumbered.
    pub remerged: Vec<(usize, Option<Vec<Ipv4Prefix>>)>,
    /// The delta statistics of the model and FIBs; the sweep adds the
    /// data-plane tallies.
    pub stats: DeltaStats,
}

/// Plans `edits` against the base model `base` with its FIBs `base_fibs`
/// and converged protocol state `state`: the edited model and FIBs, both
/// incremental where provable (module docs). A borrowed base stays the
/// caller's: the model is derived from it
/// ([`SimNetwork::without_interfaces`], then
/// [`SimNetwork::set_igp_filters`]), sharing every router the edits leave
/// unchanged, and the removal's interface renumbering drives every reuse
/// below. An owned base with nothing shut is re-filtered in place, so no
/// router is copied.
///
/// Returns `Ok(None)`, and the caller runs cold, when a shut router is
/// unknown, when a filter edit meets a model with a BGP speaker or a
/// RIP-active interface (there a filter can move state at other routers),
/// or when a defensive invariant check fails (a cached OSPF row through a
/// removed interface, for one).
pub(crate) fn plan(
    base: Cow<'_, SimNetwork>,
    base_fibs: &Fibs,
    state: &ControlState,
    edits: &Edits,
) -> Result<Option<Plan>, SimError> {
    let n = base.router_count();
    let any_bgp = base.routers.iter().any(|r| r.asn.is_some());
    if !edits.refiltered.is_empty()
        && (any_bgp
            || base
                .routers
                .iter()
                .any(|r| r.ifaces.iter().any(|i| i.rip_active)))
    {
        return Ok(None);
    }
    let kept;
    let (kept_base, mut net, remap) = match base {
        Cow::Owned(net) if edits.shut.is_empty() => (None, net, IfaceRemap::identity(n)),
        base => {
            kept = base;
            let Some((net, remap)) = kept.without_interfaces(&edits.shut) else {
                return Ok(None);
            };
            (Some(&*kept), net, remap)
        }
    };
    net.set_igp_filters(&edits.refiltered);
    // An owned base was edited in place and shuts nothing, so the base
    // model is read below only where it equals the edited one.
    let base_net = kept_base.unwrap_or(&net);
    let dests = Arc::clone(&net.destinations);
    let failed: Vec<(usize, usize)> = remap.removed().collect();
    // The destination a failed interface sits on, if any.
    let dest_of = |(r, bi): (usize, usize)| {
        base_net.destination_index(&base_net.routers[r].ifaces[bi].prefix)
    };

    // ---- OSPF: recompute only affected destinations. ----
    // A failed interface directly on a destination LAN changes that
    // destination's advertiser seeds and connected-route skip.
    let mut affected = vec![false; dests.len()];
    for d in failed.iter().filter_map(|&f| dest_of(f)) {
        affected[d] = true;
    }
    // A removed OSPF edge on a destination's shortest-path DAG either
    // keeps every distance, and then only the routers that lost a DAG edge
    // get new rows, or forces a fresh SPF of the destination. Per router,
    // the unaffected destinations whose row is recomputed against the
    // unchanged distances, ascending.
    let mut recomputed: Vec<Vec<usize>> = vec![Vec::new(); n];
    if !failed.is_empty() {
        for (d, (prefix, _)) in dests.iter().enumerate() {
            let Some(dist) = state.ospf_dist.get(d).filter(|_| !affected[d]) else {
                continue;
            };
            match ospf::distances_survive_removal(base_net, prefix, dist, &failed) {
                None => affected[d] = true,
                Some(routers) => {
                    for u in routers {
                        recomputed[u].push(d);
                    }
                }
            }
        }
    }
    let affected: Vec<usize> = (0..dests.len()).filter(|&d| affected[d]).collect();
    // A filter is RIB-local: no distance moves, and a re-filtered router
    // recomputes every row (against the cached distances where no shutdown
    // affected the destination).
    for (rid, _) in &edits.refiltered {
        recomputed[rid.0 as usize] = (0..dests.len())
            .filter(|d| affected.binary_search(d).is_err())
            .collect();
    }
    let ospf_prefixes_total = dests.len();
    let ospf_prefixes_recomputed = affected.len();
    let (spf, _) = ospf::compute_subset(&net, &affected);
    let mut local: Vec<Rows> = recomputed
        .iter()
        .enumerate()
        .map(|(u, ds)| match ds.is_empty() {
            true => Rows::default(),
            false => ospf::candidate_rows(&net, RouterId(u as u32), &state.ospf_dist, ds),
        })
        .collect();

    // ---- RIP: warm-start the fixpoint (sound under removal-only). ----
    let (rip_routes, _rip_dist) = rip::compute_with_state(&net, Some(&state.rip_dist));
    let rip_warm_started = !state.rip_dist.is_empty();

    // ---- BGP: reuse when provably isomorphic, else recompute. ----
    let (bgp_routes, bgp_reused) = if !any_bgp {
        (vec![BTreeMap::new(); n], None)
    } else {
        let rp_new = ospf::router_paths(&net);
        let isomorphic = state
            .router_paths
            .as_ref()
            .is_some_and(|rp| router_paths_equal_after_remap(rp, &rp_new, &remap))
            && !failed
                .iter()
                .any(|&(r, bi)| iface_bgp_relevant(base_net, r, bi));
        let reused = if isomorphic {
            remap_bgp_routes(&state.bgp_routes, &remap)
        } else {
            None
        };
        match reused {
            Some(routes) => (routes, Some(true)),
            None => (bgp::compute(&net, &rp_new)?, Some(false)),
        }
    };

    // ---- FIB merge, incremental where provable. At each router the plan
    // owns a destination when the router's recomputed row there (for an
    // affected destination, or one whose row this router recomputed)
    // differs from its cached row after renumbering, or when the router
    // lost an interface on it (its connected route goes). Every other
    // destination's OSPF row is the cached one renumbered. A router's FIB
    // can be shared with the base (an `Arc` clone) when every merge input
    // is unchanged *and* its interface numbering is the identity: no
    // removed interface (so connected routes and hop indices keep their
    // bytes), no static route whose resolution can move (it peeks at
    // neighbors' interface tables, which only a removal changes), RIP
    // silent on both sides, BGP absent or reused (identity-remapped =
    // identical), and no destination owned. Filters enter a FIB only
    // through the OSPF rows, so a re-filtered router whose rows did not
    // move shares its table too. A router that meets every condition but
    // the first and last, and has no static routes, is patched: its base
    // table is copied, renumbered, with only the owned destinations
    // re-merged (`Fib::patched`). Every non-owned destination's merge
    // inputs are the base's modulo renumbering — the router lost no
    // interface on it, its OSPF row is the cached one, BGP is the base's,
    // RIP has nothing — so the per-prefix rule would rebuild the base
    // entry, renumbered. The rest (static routes, RIP, recomputed BGP)
    // take the full merge, reading their OSPF rows through `PlanRows`: the
    // recomputed row where the plan owns the destination, else the cached
    // row renumbered as it is read (the remap is monotone, so sorted hop
    // lists stay sorted). ----
    let rip_silent =
        state.rip_dist.is_empty() && rip_routes.per_router.iter().all(|t| t.hop_count() == 0);
    let bgp_stable = bgp_reused != Some(false);
    let patchable = rip_silent && bgp_stable;
    let (mut fibs_shared, mut fib_entries_merged, mut fib_entries_copied) = (0, 0, 0);
    let mut per_router = Vec::with_capacity(n);
    let mut remerged = Vec::new();
    let mut owned: Vec<(usize, &[Hop])> = Vec::new();
    for r in 0..n {
        let rid = RouterId(r as u32);
        let cached = state.ospf_routes.of(rid);
        let identity = remap.is_identity(r);
        let lost_on = |d: usize| {
            failed
                .iter()
                .any(|&(fr, bi)| fr == r && dest_of((fr, bi)) == Some(d))
        };
        owned.clear();
        let fresh = affected
            .iter()
            .enumerate()
            .map(|(k, &d)| (d, spf.of(rid).row(k)))
            .chain(
                recomputed[r]
                    .iter()
                    .enumerate()
                    .map(|(k, &d)| (d, local[r].row(k))),
            );
        for (d, row) in fresh {
            if !same_row(cached.row(d), row, &remap, r) || (!identity && lost_on(d)) {
                owned.push((d, row));
            }
        }
        owned.sort_unstable_by_key(|&(d, _)| d);
        let rows = PlanRows {
            owned: &owned,
            cached,
            remap: &remap,
            r,
        };
        let static_free = net.routers[r].static_routes.is_empty();
        if identity && patchable && (static_free || failed.is_empty()) && owned.is_empty() {
            fibs_shared += 1;
            per_router.push(Arc::clone(&base_fibs.per_router[r]));
            continue;
        }
        // A cached hop through a removed interface is a removed tight
        // edge, so its destination would have been affected or its row
        // recomputed: reaching one means that invariant broke. Every row
        // the plan does not own is checked, not only those the merge goes
        // on to read (a connected or eBGP route shadows the rest).
        if !identity && !rows.cached_rows_survive(dests.len()) {
            return Ok(None);
        }
        let fib = if patchable && static_free {
            let merge = PrefixMerge::new(&net, rid, &rows, &rip_routes, &bgp_routes);
            // A copied entry through a removed interface breaks the same
            // invariant as a cached row through one.
            let renumber = |hop: NextHop| hop.renumbered(|i| remap.get(r, i));
            let keys: Vec<Ipv4Prefix> = owned.iter().map(|&(d, _)| dests[d].0).collect();
            let base_fib = base_fibs.of(rid);
            let Some(fib) = base_fib.patched(&keys, renumber, |b, k| {
                merge.merge_prefix(b, owned[k].0);
            }) else {
                return Ok(None);
            };
            let merged = keys.iter().filter(|p| fib.entry(p).is_some()).count();
            fib_entries_merged += keys.len();
            fib_entries_copied += fib.len() - merged;
            remerged.push((r, Some(keys)));
            fib
        } else {
            fib_entries_merged += dests.len();
            remerged.push((r, None));
            merge_router_fib(&net, rid, &rows, &rip_routes, &bgp_routes)
        };
        per_router.push(Arc::new(fib));
    }

    // A re-filtered router's new table: every row recomputed, each from
    // the fresh SPF where a shutdown affected the destination.
    let mut ospf_rows = Vec::with_capacity(edits.refiltered.len());
    for (rid, _) in &edits.refiltered {
        let r = rid.0 as usize;
        let table = if affected.is_empty() {
            std::mem::take(&mut local[r])
        } else {
            let hops = spf.of(*rid).hop_count() + local[r].hop_count();
            let mut table = Rows::with_capacity(dests.len(), hops);
            let (mut a, mut l) = (0, 0);
            for d in 0..dests.len() {
                if affected.get(a) == Some(&d) {
                    table.push(spf.of(*rid).row(a).iter().copied());
                    a += 1;
                } else {
                    table.push(local[r].row(l).iter().copied());
                    l += 1;
                }
            }
            table
        };
        ospf_rows.push((*rid, table));
    }

    let routers_shared = match kept_base {
        Some(base_net) => net
            .routers
            .iter()
            .zip(&base_net.routers)
            .filter(|(new, old)| Arc::ptr_eq(new, old))
            .count(),
        None => n - edits.refiltered.len(),
    };
    Ok(Some(Plan {
        net,
        remap,
        fibs: Fibs { per_router },
        ospf_rows,
        remerged,
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

/// Whether router `r`'s cached row, renumbered, is the fresh one.
fn same_row(cached: &[Hop], fresh: &[Hop], remap: &IfaceRemap, r: usize) -> bool {
    if remap.is_identity(r) {
        return cached == fresh;
    }
    cached.len() == fresh.len()
        && cached
            .iter()
            .zip(fresh)
            .all(|(&(i, v), &(fi, fv))| v == fv && remap.get(r, i) == Some(fi))
}

/// One merged router's OSPF rows as the plan's FIB merge reads them: the
/// recomputed row where the plan owns the destination, else the cached
/// row, renumbered through the removal's remap as it is read.
struct PlanRows<'a> {
    /// The destinations the plan owns at this router, ascending, with
    /// their recomputed rows.
    owned: &'a [(usize, &'a [Hop])],
    cached: &'a Rows,
    remap: &'a IfaceRemap,
    r: usize,
}

impl PlanRows<'_> {
    fn owned_row(&self, d: usize) -> Option<&[Hop]> {
        let k = self.owned.binary_search_by_key(&d, |&(d, _)| d).ok()?;
        Some(self.owned[k].1)
    }

    /// Whether every cached row toward the `count` destinations that the
    /// plan does not own renumbers, i.e. no hop of one runs through a
    /// removed interface.
    fn cached_rows_survive(&self, count: usize) -> bool {
        (0..count)
            .filter(|&d| self.owned_row(d).is_none())
            .all(|d| {
                self.cached
                    .row(d)
                    .iter()
                    .all(|&(i, _)| self.remap.get(self.r, i).is_some())
            })
    }
}

impl OspfRows for PlanRows<'_> {
    fn row(&self, d: usize) -> impl ExactSizeIterator<Item = (usize, RouterId)> + '_ {
        let fresh = self.owned_row(d);
        let owned = fresh.is_some();
        let hops = fresh.unwrap_or_else(|| self.cached.row(d));
        hops.iter().map(move |&(i, v)| {
            let i = if owned {
                i
            } else {
                self.remap
                    .get(self.r, i)
                    .expect("cached rows of a merged router renumber (checked before the merge)")
            };
            (i, v)
        })
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
