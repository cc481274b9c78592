//! The warm streaming fault sweep: incremental delta simulation folded
//! directly into [`ScenarioDigest`]s, never materializing a perturbed
//! data plane.
//!
//! [`ScenarioSweep`] binds each pair of the sweep's baseline data plane to
//! a cached base simulation ([`ConvergedSim`]) once, and indexes the pairs
//! by what can change them. That index is the reuse rule: per failure
//! scenario, the pairs it lists under what the plan (`delta::Plan`)
//! changed are *dirty* and re-traced, and every other pair keeps its base
//! path set.
//! Digest index `i` is the baseline's i-th entry.
//!
//! **Why a clean pair keeps its set.** The trace DFS consults exactly one
//! FIB entry per visited router: the longest-prefix match for the
//! *destination host's* address. So a pair keeps its cached [`PathSet`]
//! when its endpoints' attachments survived and, for its destination, no
//! router it can reach resolves that address differently (modulo
//! interface renumbering): the DFS then replays move for move, blackholes,
//! loops and ECMP truncation included. An unattached source is a blackhole
//! before any lookup, so its pairs always keep their sets. A clean,
//! non-truncated walk visits exactly the routers on its recorded paths, so
//! only a changed lookup at one of those routers can change it. Only a
//! re-merged router can answer a lookup differently, at an entry the plan
//! decided afresh; [`ScenarioSweep::new`] indexes, per router and FIB
//! prefix, the hosts the base matches there, so the changed lookups come
//! from one index probe per changed (router, prefix). A re-merged table
//! whose key set changed (e.g. a lost route) can move a host's match to
//! another prefix, so there every host is looked up.
//!
//! [`ScenarioSweep::new`] builds the index from the base simulation and the
//! baseline, once per sweep: per router the hosts matched at each FIB
//! prefix, the router list of each distinct base path set a baseline pair
//! uses, and three lists in compressed sparse rows:
//!
//! * per (destination host, router): the clean pairs toward that host
//!   whose base path set crosses that router. A changed lookup there
//!   dirties exactly these;
//! * per destination host: the unclean pairs toward it (blackholed,
//!   looping, empty or truncated), whose recorded paths do not determine
//!   the walk, so any changed lookup toward the host dirties them all;
//! * per host: every pair with that host as an endpoint, dirtied when the
//!   host's attachment moves.
//!
//! A pair whose source is unattached is a blackhole before any lookup, so
//! only the per-host list holds it. The pairs the base lacks, and those
//! whose baseline differs from the base (a masked-network sweep classified
//! against the original's baseline), are *foreign*. A scenario visits the
//! foreign and dirty pairs in ascending order and credits every other pair
//! to `Unchanged` in bulk:
//!
//! * a pair the base lacks reads as blackholed;
//! * a dirty pair re-traces through the plan's lazy tracer for its
//!   destination ([`DestTracer`]: one FIB lookup per router and one path
//!   set per gateway, shared by every source behind it). Behind an exact
//!   gateway the tracer knows the set's
//!   [`PathShape`](confmask_sim::PathShape) before building it; when that
//!   differs from the baseline's, the pair changed and the shape alone
//!   decides its class (`sim.delta.retraces_by_count`). Only a tie, an
//!   inexact gateway or a constant set is compared against the baseline id
//!   by id: a slice compare when the baseline shares the base's router
//!   table, a [`NameJoin`] remap when it does not — no name is ever
//!   resolved;
//! * a clean foreign pair classifies its cached base path set against the
//!   baseline.
//!
//! The result is byte-identical to the cold
//! [`confmask_sim::fault::run_scenario`] digest (the differential gate in
//! `tests/delta_diff.rs` asserts encode-level equality, and this crate's
//! `plan_matches_cold_simulation_on_random_networks` checks the plan's
//! FIBs against cold simulations, every pair the index leaves clean
//! against its cold set, and every dirty pair's re-trace), but a swept
//! scenario allocates nothing that outlives its digest — the memory
//! profile that makes exhaustive k = 2 enumeration and parallel sweeps on
//! a single core viable.
//!
//! A scenario is read, never applied: it resolves to the list of
//! interfaces it shuts ([`FailureScenario::shutdowns`] against the base
//! configs), which the planner and the physical-connectivity flood fill
//! both take alongside the shared, unmodified base configs. Only when
//! planning declines a scenario does the sweep copy the configs, apply the
//! scenario and fall back to the cold loop
//! ([`confmask_sim::fault::classify_failed`]).

use crate::{delta, record_stats, ConvergedSim, DeltaEngine, DeltaStats};
use confmask_net_types::{HostId, Ipv4Prefix};
use confmask_sim::dataplane::{
    DataPlane, DestTracer, HostPair, NameJoin, Reach, MAX_PATHS_PER_PAIR,
};
use confmask_sim::fault::{
    classify_changed, classify_failed, classify_pair, physical_components, FailureScenario,
};
use confmask_sim::sweep::{ScenarioDigest, SweepMeter, SweepReducer, SweepStats};
use confmask_sim::{Fib, FibEntry, Fibs, IfaceRemap, PairBits, PathSet, SimError, SimNetwork};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One baseline pair's precomputed binding to the base simulation: where
/// it sits in the base data plane, its endpoints' host ids, and whether
/// the sweep's baseline path set equals the base's (computed once, so the
/// per-scenario fold never deep-compares paths for reused pairs).
struct PairBinding {
    /// Source host id: its index in the base data plane's host table,
    /// which is host-id order whenever the delta plan applies.
    si: u32,
    /// Destination host id.
    di: u32,
    /// Index of this pair in the base data plane's entries; `u32::MAX`
    /// when the base lacks the pair.
    base_idx: u32,
    /// Whether the baseline's path set equals the base's for this pair.
    same_as_base: bool,
}

/// Lists of baseline pair indices under dense keys, in compressed sparse
/// rows: key `k`'s list is `items[offsets[k]..offsets[k + 1]]`, ascending.
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// The lists of `keys` keys from `(key, pair)` entries in ascending
    /// pair order (a counting sort, which keeps each list ascending).
    fn new(keys: usize, entries: &[(u32, u32)]) -> Csr {
        let mut offsets = vec![0u32; keys + 1];
        for &(key, _) in entries {
            offsets[key as usize + 1] += 1;
        }
        for k in 0..keys {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets[..keys].to_vec();
        let mut items = vec![0; entries.len()];
        for &(key, i) in entries {
            items[next[key as usize] as usize] = i;
            next[key as usize] += 1;
        }
        Csr { offsets, items }
    }

    fn get(&self, key: usize) -> &[u32] {
        &self.items[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

/// Per router, the hosts whose address its base FIB matches at each
/// prefix: router `r`'s `(prefix, host)` entries, ascending, are
/// `entries[offsets[r]..offsets[r + 1]]`.
struct MatchIndex {
    offsets: Vec<u32>,
    entries: Vec<(Ipv4Prefix, u32)>,
}

impl MatchIndex {
    fn new(net: &SimNetwork, fibs: &Fibs) -> MatchIndex {
        let mut offsets = vec![0];
        let mut entries = Vec::new();
        for fib in &fibs.per_router {
            let from = entries.len();
            entries.extend(
                net.hosts_iter()
                    .filter_map(|(h, host)| Some((fib.lookup(host.addr)?.prefix, h.0))),
            );
            entries[from..].sort_unstable();
            offsets.push(entries.len() as u32);
        }
        MatchIndex { offsets, entries }
    }

    /// The hosts router `r` matches at `prefix`, ascending.
    fn hosts(&self, r: usize, prefix: Ipv4Prefix) -> impl Iterator<Item = u32> + '_ {
        let at = &self.entries[self.offsets[r] as usize..self.offsets[r + 1] as usize];
        let from = at.partition_point(|e| e.0 < prefix);
        let to = from + at[from..].partition_point(|e| e.0 == prefix);
        at[from..to].iter().map(|e| e.1)
    }
}

/// Whether the recorded paths of a set leave its walk undetermined: a
/// blackhole, a loop, no path, or truncation at the cap.
fn unclean(ps: &PathSet) -> bool {
    ps.blackhole || ps.has_loop || ps.path_count() == 0 || ps.path_count() >= MAX_PATHS_PER_PAIR
}

/// A streaming fault sweep over one cached baseline.
///
/// Built once per baseline; [`ScenarioSweep::digest`] folds one scenario,
/// [`ScenarioSweep::run`] drives a whole scenario sequence through the
/// shared executor in bounded windows, feeding a [`SweepReducer`] in
/// scenario order.
pub struct ScenarioSweep<'a> {
    /// Held so a sweep cannot outlive the engine whose cache owns `base`.
    _engine: &'a DeltaEngine,
    base: &'a ConvergedSim,
    /// The data plane digests classify against and index.
    baseline: &'a DataPlane,
    /// One binding per entry of `baseline`, in entry order.
    binding: Vec<PairBinding>,
    /// Per router and prefix: the hosts the base FIB matches there.
    matched: MatchIndex,
    /// Per `destination host × routers + router`: the clean pairs toward
    /// that host, with an attached source, whose base path set crosses the
    /// router.
    by_lookup: Csr,
    /// Per destination host: the unclean pairs toward it with an attached
    /// source.
    unclean: Csr,
    /// Per host: the pairs the base has with that host as an endpoint.
    by_host: Csr,
    /// The pairs the base lacks or whose baseline differs from the base.
    foreign: PairBits,
    /// The base network's router ids (what re-traces yield) joined onto
    /// the baseline's router table.
    routers: NameJoin,
    /// What an unattached source reaches, and what a pair missing from the
    /// base reads as.
    blackholed: PathSet,
    /// What a same-LAN pair reaches.
    direct: PathSet,
}

impl<'a> ScenarioSweep<'a> {
    /// A sweep classifying `baseline`'s pairs against failures of `base`:
    /// digest index `i` is `baseline.entries()[i]`.
    pub fn new(
        engine: &'a DeltaEngine,
        base: &'a ConvergedSim,
        baseline: &'a DataPlane,
    ) -> ScenarioSweep<'a> {
        // Bind each baseline pair to the base data plane by id: join the
        // baseline's host and router tables onto the base's once (the
        // baseline is normally a restriction of the base, and then both
        // joins are the identity).
        let base_dp = &base.sim.dataplane;
        let hosts = NameJoin::new(baseline.hosts(), base_dp.hosts());
        let routers = NameJoin::new(base_dp.routers(), baseline.routers());
        let base_entries = base_dp.entries();
        let binding: Vec<PairBinding> = baseline
            .entries()
            .iter()
            .map(|((s, d), ps)| {
                let key = hosts.get(*s).zip(hosts.get(*d));
                let found = key.and_then(|k| {
                    let i = base_entries.binary_search_by_key(&k, |e| e.0).ok()?;
                    Some((k, i))
                });
                match found {
                    Some(((si, di), i)) => {
                        let bp = &base_entries[i].1;
                        let shared = routers.is_identity() && Arc::ptr_eq(ps, bp);
                        PairBinding {
                            si,
                            di,
                            base_idx: i as u32,
                            same_as_base: shared || routers.same(bp, ps),
                        }
                    }
                    None => PairBinding {
                        si: u32::MAX,
                        di: u32::MAX,
                        base_idx: u32::MAX,
                        same_as_base: false,
                    },
                }
            })
            .collect();

        let net = &base.sim.net;
        let n = net.router_count();
        let host_count = net.hosts.len();
        let matched = MatchIndex::new(net, &base.sim.fibs);

        // Index the pairs by what can change them (module docs). A clean
        // set's router list is built once per distinct set (every source
        // behind one gateway shares its set toward a destination), each
        // router kept once by stamping it with the set's epoch.
        let mut foreign = PairBits::new(binding.len());
        let (mut by_lookup, mut unclean_to, mut by_host) = (Vec::new(), Vec::new(), Vec::new());
        let mut lists: HashMap<*const PathSet, (usize, usize)> = HashMap::new();
        let mut crossed: Vec<u32> = Vec::new();
        let mut stamp = vec![0u32; n];
        for (i, b) in binding.iter().enumerate() {
            if !b.same_as_base {
                foreign.set(i);
            }
            if b.base_idx == u32::MAX {
                continue;
            }
            let i = i as u32;
            by_host.extend([(b.si, i), (b.di, i)]);
            if net.host(HostId(b.si)).attachment.is_none() {
                continue;
            }
            let ps = &base_entries[b.base_idx as usize].1;
            if unclean(ps) {
                unclean_to.push((b.di, i));
                continue;
            }
            let epoch = lists.len() as u32 + 1;
            let (from, to) = *lists.entry(Arc::as_ptr(ps)).or_insert_with(|| {
                let from = crossed.len();
                for r in ps.paths().flatten() {
                    let seen = &mut stamp[r.0 as usize];
                    if *seen != epoch {
                        *seen = epoch;
                        crossed.push(r.0);
                    }
                }
                (from, crossed.len())
            });
            let row = b.di as usize * n;
            by_lookup.extend(
                crossed[from..to]
                    .iter()
                    .map(|&r| ((row + r as usize) as u32, i)),
            );
        }

        ScenarioSweep {
            _engine: engine,
            base,
            baseline,
            binding,
            matched,
            by_lookup: Csr::new(host_count * n, &by_lookup),
            unclean: Csr::new(host_count, &unclean_to),
            by_host: Csr::new(host_count, &by_host),
            foreign,
            routers,
            blackholed: PathSet::blackholed(),
            direct: PathSet::direct(),
        }
    }

    /// Folds one scenario into its digest: resolve the interfaces it shuts
    /// against the base configs, plan the delta, classify the pairs it may
    /// have changed off the plan, and fall back to the cold loop over the
    /// applied scenario when planning declines. Byte-identical to the cold
    /// [`run_scenario`](confmask_sim::fault::run_scenario) digest over this
    /// sweep's baseline.
    pub fn digest(&self, scenario: &FailureScenario) -> Result<ScenarioDigest, SimError> {
        let _sp = confmask_obs::span("sim.fault.scenario");
        confmask_obs::counter_add("sim.fault.scenarios", 1);
        confmask_obs::debug!("sim.delta", "injecting scenario {scenario}");
        let configs = &self.base.configs;
        let shut = scenario.shutdowns(configs)?;
        let sp = confmask_obs::span("sim.delta.sim");
        confmask_obs::counter_add("sim.delta.sims", 1);
        let (digest, stats) = match self.plan(&shut)? {
            Some(plan) => self.digest_plan(&shut, &plan),
            None => (
                classify_failed(&scenario.apply(configs)?, self.baseline)?,
                DeltaStats::full(),
            ),
        };
        sp.finish();
        record_stats(&stats);
        Ok(digest)
    }

    /// Plans shutting the interfaces `shut` lists (as `(router, interface
    /// index)` of the base configs) against this sweep's base. The model
    /// finds interfaces by name, so a stanza whose name another stanza of
    /// its router shares cannot be removed from it: such a scenario is
    /// declined (`Ok(None)`, and the cold loop classifies it), as is one
    /// naming a router the base lacks.
    pub(crate) fn plan(&self, shut: &[(String, usize)]) -> Result<Option<delta::Plan>, SimError> {
        let configs = &self.base.configs;
        let unique_name = |(router, i): &(String, usize)| {
            let rc = configs.routers.get(router)?;
            let name = &rc.interfaces.get(*i)?.name;
            let shared = rc.interfaces.iter().filter(|f| f.name == *name).count() != 1;
            (!shared).then(|| (router.clone(), name.clone()))
        };
        let Some(shut) = shut.iter().map(unique_name).collect() else {
            return Ok(None);
        };
        let edits = delta::Edits {
            shut,
            ..delta::Edits::default()
        };
        let sim = &self.base.sim;
        delta::plan(Cow::Borrowed(&sim.net), &sim.fibs, &self.base.state, &edits)
    }

    /// Every `(destination host, router)` whose lookup of that host's
    /// address the plan answers differently from the base (modulo
    /// interface renumbering), sorted. A pair's walk asks each router on it
    /// one FIB question, the longest-prefix match of the destination
    /// host's address, and only a re-merged router can answer differently,
    /// at an entry it decided afresh. With an unchanged key set a host's
    /// match lands on the same prefix as in the base, so the hosts matched
    /// at the changed entries are the changed lookups; a changed key set
    /// (e.g. a lost route) falls back to looking every host up.
    pub(crate) fn changed_lookups(&self, plan: &delta::Plan) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (r, decided) in &plan.remerged {
            let r = *r;
            let (base, new) = (&self.base.sim.fibs.per_router[r], &plan.fibs.per_router[r]);
            let diff = match decided {
                Some(keys) => changed_entries(base, new, keys.iter().copied(), &plan.remap, r),
                None => (base.len() == new.len())
                    .then(|| {
                        let keys = base.entries().map(|e| e.prefix);
                        changed_entries(base, new, keys, &plan.remap, r)
                    })
                    .flatten(),
            };
            let at = |h: u32| (h, r as u32);
            match diff {
                None => out.extend(
                    plan.net
                        .hosts_iter()
                        .filter(|(_, host)| {
                            let (b, n) = (base.lookup(host.addr), new.lookup(host.addr));
                            !lookup_remap_equal(b, n, &plan.remap, r)
                        })
                        .map(|(h, _)| at(h.0)),
                ),
                Some(diff) => {
                    for prefix in diff {
                        out.extend(self.matched.hosts(r, prefix).map(at));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The pairs a plan dirties: those listed under each changed lookup,
    /// under each destination with a changed lookup as unclean, and under
    /// each host whose attachment moved. Every other pair the base has
    /// keeps its base set.
    pub(crate) fn dirty(&self, plan: &delta::Plan) -> PairBits {
        let base_net = &self.base.sim.net;
        let n = base_net.router_count();
        let lookups = self.changed_lookups(plan);
        let moved = base_net
            .hosts_iter()
            .filter(|&(h, _)| !attachment_unchanged(base_net, &plan.net, &plan.remap, h));
        let lists = lookups
            .iter()
            .map(|&(d, r)| self.by_lookup.get(d as usize * n + r as usize))
            .chain(
                lookups
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|toward| self.unclean.get(toward[0].0 as usize)),
            )
            .chain(moved.map(|(h, _)| self.by_host.get(h.0 as usize)));
        let mut dirty = PairBits::new(self.binding.len());
        for &i in lists.flatten() {
            dirty.set(i as usize);
        }
        dirty
    }

    /// Classifies the foreign and dirty pairs against the plan with the
    /// cold loop's rules, in ascending order, and credits the rest to
    /// `Unchanged`: a clean pair's cached path set and a dirty pair's trace
    /// are the cold path sets (the plan's contract), so the digest matches
    /// the cold loop's bit for bit.
    fn digest_plan(
        &self,
        shut: &[(String, usize)],
        plan: &delta::Plan,
    ) -> (ScenarioDigest, DeltaStats) {
        // Physical connectivity only arbitrates dropped traffic, so the
        // component flood fill runs lazily, at most once per scenario.
        let comp: OnceCell<BTreeMap<String, usize>> = OnceCell::new();
        let hosts = self.baseline.hosts();
        let connected = |(s, d): HostPair| {
            let comp = comp.get_or_init(|| physical_components(&self.base.configs, shut));
            match (
                comp.get(hosts[s as usize].as_str()),
                comp.get(hosts[d as usize].as_str()),
            ) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
        };
        let base_entries = self.base.sim.dataplane.entries();
        let entries = self.baseline.entries();
        let dirty = self.dirty(plan);
        let mut visit = self.foreign.clone();
        for i in dirty.iter_ones() {
            visit.set(i);
        }
        // Re-traced pairs resolve through one lazy tracer per destination,
        // built on the first pair toward it that needs one.
        let mut tracers: Vec<Option<DestTracer>> = Vec::new();
        tracers.resize_with(plan.net.hosts.len(), || None);
        let mut digest = ScenarioDigest::new(self.binding.len());
        let (mut visited, mut recomputed, mut by_count) = (0usize, 0usize, 0usize);
        for i in visit.iter_ones() {
            let (b, (key, baseline)) = (&self.binding[i], &entries[i]);
            visited += 1;
            let class = if b.base_idx == u32::MAX {
                // The base simulation lacks this pair: the perturbed data
                // plane cannot contain it either (delta runs start from
                // the base's pair set), so it reads as dropped.
                let missing = &self.blackholed;
                let unchanged = self.routers.same(missing, baseline);
                classify_pair(unchanged, missing, || connected(*key))
            } else if !dirty.get(i) {
                // A clean foreign pair: post-failure == base ≠ baseline.
                let after = &base_entries[b.base_idx as usize].1;
                classify_pair(false, after, || connected(*key))
            } else {
                recomputed += 1;
                let tracer = tracers[b.di as usize].get_or_insert_with(|| {
                    DestTracer::new(&plan.net, &plan.fibs, HostId(b.di))
                });
                let src = HostId(b.si);
                match tracer.exact_shape(src) {
                    // Sets of different shapes differ, and the shape
                    // decides the class: no set is built.
                    Some(shape) if shape != baseline.shape() => {
                        by_count += 1;
                        classify_changed(shape, || connected(*key))
                    }
                    _ => {
                        let reach = tracer.reach(src);
                        let after = match &reach {
                            Reach::Unattached => &self.blackholed,
                            Reach::SameLan => &self.direct,
                            Reach::Paths(set) => &**set,
                        };
                        let unchanged = self.routers.same(after, baseline);
                        classify_pair(unchanged, after, || connected(*key))
                    }
                }
            };
            digest.record(i, class);
        }
        digest.record_unchanged(self.binding.len() - visited);
        let dag_nodes = tracers.iter().flatten().map(|t| t.stats().dag_nodes).sum();
        let stats = DeltaStats {
            pairs_total: self.binding.len(),
            pairs_recomputed: recomputed,
            pairs_visited: visited,
            retraces_by_count: by_count,
            dag_nodes,
            ..plan.stats
        };
        (digest, stats)
    }

    /// Sweeps a scenario sequence: windows of scenarios fan out across
    /// the shared executor, and each digest is folded into `reducer` in
    /// scenario order while the window behind it is freed. Peak retention
    /// is one window of digests — the `peak_digest_bytes` the returned
    /// [`SweepStats`] reports.
    ///
    /// Items may be owned scenarios (a lazy k = 2 enumerator) or borrows
    /// (`scenarios.iter()` over a caller-held `Vec` — no per-item clone).
    pub fn run<B: std::borrow::Borrow<FailureScenario> + Sync>(
        &self,
        scenarios: impl IntoIterator<Item = B>,
        reducer: &mut dyn SweepReducer,
    ) -> SweepStats {
        let window = (confmask_exec::thread_count() * 32).clamp(64, 1024);
        let mut meter = SweepMeter::new(window);
        confmask_exec::par_stream(
            scenarios,
            window,
            |sc: &B| self.digest(sc.borrow()),
            |i, r| match r {
                Ok(d) => {
                    meter.fold_ok(i, d.retained_bytes());
                    reducer.fold(i, d);
                }
                Err(e) => {
                    meter.fold_err(i);
                    reducer.fold_err(i, e);
                }
            },
        );
        meter.finish()
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_config::{parse_router, HostConfig, NetworkConfigs};
    use confmask_sim::fault::{
        enumerate_single_link_failures, run_scenario, DegradationClass, Fault,
    };
    use confmask_sim::simulate;
    use confmask_sim::sweep::DigestList;

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

    /// Triangle r1–r2–r3 (all OSPF), hosts on r1 and r2.
    fn triangle() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.12.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.13.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.1.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.12.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.2.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.2.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r3 = parse_router(
            "hostname r3\n!\ninterface Ethernet0/0\n ip address 10.0.13.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.1 255.255.255.254\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n!\n",
        )
        .unwrap();
        NetworkConfigs::new(
            [r1, r2, r3],
            [
                host("h1", "10.1.1.100", "10.1.1.1"),
                host("h2", "10.1.2.100", "10.1.2.1"),
            ],
        )
    }

    fn scenarios(cfgs: &NetworkConfigs) -> Vec<FailureScenario> {
        let mut out = enumerate_single_link_failures(cfgs);
        for r in ["r1", "r2", "r3"] {
            out.push(FailureScenario::single(Fault::RouterDown {
                router: r.into(),
            }));
        }
        out
    }

    #[test]
    fn warm_digests_match_cold_folds() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        for sc in scenarios(&cfgs) {
            let warm = sweep.digest(&sc).unwrap();
            let cold = run_scenario(&cfgs, &base.sim.dataplane, &sc).unwrap();
            assert_eq!(warm, cold, "{sc}");
            assert_eq!(warm.encode(), cold.encode(), "{sc}");
        }
    }

    /// The triangle plus two stanzas named Ethernet0/9 on r1: the first has
    /// no address, the second is h9's LAN.
    fn triangle_with_a_shared_name() -> NetworkConfigs {
        let mut cfgs = triangle();
        let r1 = cfgs.routers.get_mut("r1").unwrap();
        let mut lan = r1.interfaces[2].clone();
        lan.name = "Ethernet0/9".into();
        lan.address = Some(("10.1.9.1".parse().unwrap(), 24));
        let mut bare = lan.clone();
        bare.address = None;
        r1.interfaces.extend([bare, lan]);
        cfgs.hosts
            .insert("h9".into(), host("h9", "10.1.9.100", "10.1.9.1"));
        cfgs
    }

    fn shut_ethernet0_9() -> FailureScenario {
        FailureScenario::single(Fault::InterfaceShutdown {
            router: "r1".into(),
            iface: "Ethernet0/9".into(),
        })
    }

    #[test]
    fn a_shared_interface_name_falls_back_to_the_cold_loop() {
        // Shutting "Ethernet0/9" shuts the first stanza, which changes
        // nothing; removing the model's Ethernet0/9 would cut h9 off.
        let cfgs = triangle_with_a_shared_name();
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let sc = shut_ethernet0_9();
        let warm = sweep.digest(&sc).unwrap();
        let cold = run_scenario(&cfgs, &base.sim.dataplane, &sc).unwrap();
        assert_eq!(warm.encode(), cold.encode());
        assert_eq!(warm.changed_classes().count(), 0);
    }

    #[test]
    fn a_router_down_leaves_the_next_scenario_on_the_same_worker_untouched() {
        // Both Ethernet0/9 stanzas go down with r1; the scenario after it,
        // on the same worker, must still see h9's LAN up.
        let cfgs = triangle_with_a_shared_name();
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let scs = [
            FailureScenario::single(Fault::RouterDown {
                router: "r1".into(),
            }),
            shut_ethernet0_9(),
        ];
        let mut list = DigestList::default();
        confmask_exec::configure_threads(1);
        sweep.run(scs.iter(), &mut list);
        confmask_exec::configure_threads(0);
        assert_eq!(list.results.len(), scs.len());
        for (sc, got) in scs.iter().zip(&list.results) {
            let cold = run_scenario(&cfgs, &base.sim.dataplane, sc).unwrap();
            assert_eq!(got.as_ref().unwrap().encode(), cold.encode(), "{sc}");
        }
    }

    #[test]
    fn warm_digests_match_against_foreign_baseline() {
        // The baseline comes from a *separate* cold simulation: no Arc
        // sharing with the cached base, so same_as_base runs on deep
        // equality. Results must still match the cold fold.
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let baseline = simulate(&cfgs).unwrap().dataplane;
        let sweep = ScenarioSweep::new(&engine, &base, &baseline);
        for sc in scenarios(&cfgs) {
            let warm = sweep.digest(&sc).unwrap();
            let cold = run_scenario(&cfgs, &baseline, &sc).unwrap();
            assert_eq!(warm, cold, "{sc}");
            assert_eq!(warm.encode(), cold.encode(), "{sc}");
        }
    }

    /// Plans `scenario` against `base` and digests it with `sweep`,
    /// returning the digest with its delta statistics.
    fn digest_with_stats(
        sweep: &ScenarioSweep,
        scenario: &FailureScenario,
    ) -> (ScenarioDigest, DeltaStats) {
        let shut = scenario.shutdowns(&sweep.base.configs).unwrap();
        let plan = sweep.plan(&shut).unwrap().unwrap();
        sweep.digest_plan(&shut, &plan)
    }

    fn link_down(a: &str, b: &str) -> FailureScenario {
        FailureScenario::single(Fault::LinkDown {
            a: a.into(),
            b: b.into(),
            added: false,
        })
    }

    /// Square r1–r2–r4–r3–r1 (all OSPF), hosts on r1 and r4. Both branches
    /// are two links long, and r1–r3 costs 2 where every other link costs
    /// 1, so h1 and h4 reach each other over r2 until r1–r2 fails.
    fn preferred_branch() -> NetworkConfigs {
        let router = |name: &str, links: &[(&str, u32)], lan: Option<&str>| {
            let mut text = format!("hostname {name}\n!\n");
            for (i, (addr, cost)) in links.iter().enumerate() {
                text += &format!(
                    "interface Ethernet0/{i}\n ip address {addr} 255.255.255.254\n ip ospf cost {cost}\n!\n"
                );
            }
            if let Some(lan) = lan {
                text += &format!("interface Ethernet1/0\n ip address {lan} 255.255.255.0\n!\n");
            }
            text += "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.0.0 0.0.255.255 area 0\n!\n";
            parse_router(&text).unwrap()
        };
        NetworkConfigs::new(
            [
                router(
                    "r1",
                    &[("10.0.12.0", 1), ("10.0.13.0", 2)],
                    Some("10.1.1.1"),
                ),
                router("r2", &[("10.0.12.1", 1), ("10.0.24.0", 1)], None),
                router("r3", &[("10.0.13.1", 2), ("10.0.34.0", 1)], None),
                router(
                    "r4",
                    &[("10.0.24.1", 1), ("10.0.34.1", 1)],
                    Some("10.1.4.1"),
                ),
            ],
            [
                host("h1", "10.1.1.100", "10.1.1.1"),
                host("h4", "10.1.4.100", "10.1.4.1"),
            ],
        )
    }

    #[test]
    fn a_reroute_of_the_same_shape_is_compared_not_counted() {
        let engine = DeltaEngine::new(4);
        let cfgs = preferred_branch();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let sc = link_down("r1", "r2");
        let (warm, stats) = digest_with_stats(&sweep, &sc);
        let cold = run_scenario(&cfgs, &base.sim.dataplane, &sc).unwrap();
        assert_eq!(warm.encode(), cold.encode());
        // Both directions move from the r2 branch to the r3 branch: one
        // path of three routers before and after, so only the re-traced
        // set itself tells the reroute apart.
        let rerouted = DegradationClass::Rerouted;
        assert_eq!(
            warm.changed_classes().collect::<Vec<_>>(),
            [(0, rerouted), (1, rerouted)]
        );
        let shapes: Vec<_> = base
            .sim
            .dataplane
            .entries()
            .iter()
            .map(|(_, ps)| ps.shape())
            .collect();
        assert!(
            shapes.iter().all(|s| (s.paths, s.hops) == (1, 3)),
            "{shapes:?}"
        );
        assert_eq!((stats.pairs_recomputed, stats.retraces_by_count), (2, 0));
    }

    #[test]
    fn a_reroute_of_a_new_shape_is_classified_by_count() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let sc = link_down("r1", "r2");
        let (warm, stats) = digest_with_stats(&sweep, &sc);
        let cold = run_scenario(&cfgs, &base.sim.dataplane, &sc).unwrap();
        assert_eq!(warm.encode(), cold.encode());
        // h1 and h2 now reach each other over r3: three routers, not two.
        assert_eq!(warm.histogram[DegradationClass::Rerouted.index()], 2);
        assert_eq!((stats.pairs_recomputed, stats.retraces_by_count), (2, 2));
    }

    #[test]
    fn a_host_lan_shutdown_visits_the_pairs_of_that_host() {
        // Shutting h1's LAN interface detaches h1. r1 then lacks h1's
        // connected route, so h2→h1 is found through r1's changed lookup;
        // no lookup toward h2 changes, so only the per-host list finds
        // h1→h2.
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let sc = FailureScenario::single(Fault::InterfaceShutdown {
            router: "r1".into(),
            iface: "Ethernet0/2".into(),
        });
        let shut = sc.shutdowns(&cfgs).unwrap();
        let plan = sweep.plan(&shut).unwrap().unwrap();
        let h2 = base.sim.net.host_id("h2").unwrap().0;
        assert!(sweep.changed_lookups(&plan).iter().all(|&(d, _)| d != h2));
        let (warm, stats) = sweep.digest_plan(&shut, &plan);
        let cold = run_scenario(&cfgs, &base.sim.dataplane, &sc).unwrap();
        assert_eq!(warm.encode(), cold.encode());
        assert_eq!(warm.changed_count(), 2);
        assert_eq!(stats.pairs_visited, 2);
    }

    /// The triangle with a third LAN, h3's, on r3.
    fn triangle_with_h3() -> NetworkConfigs {
        let mut cfgs = triangle();
        let r3 = parse_router(
            "hostname r3\n!\ninterface Ethernet0/0\n ip address 10.0.13.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.1 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.3.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.3.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        cfgs.routers.insert("r3".into(), r3);
        cfgs.hosts
            .insert("h3".into(), host("h3", "10.1.3.100", "10.1.3.1"));
        cfgs
    }

    #[test]
    fn warm_digests_match_a_baseline_with_pairs_the_base_lacks() {
        // The baseline holds h3's four pairs, which the swept network has
        // no host for: every scenario visits them, and they read as
        // dropped, as in the cold loop.
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let baseline = simulate(&triangle_with_h3()).unwrap().dataplane;
        assert_eq!(baseline.len(), 6);
        let sweep = ScenarioSweep::new(&engine, &base, &baseline);
        assert_eq!(sweep.foreign.count_ones(), 4);
        for sc in scenarios(&cfgs) {
            let warm = sweep.digest(&sc).unwrap();
            let cold = run_scenario(&cfgs, &baseline, &sc).unwrap();
            assert_eq!(warm.encode(), cold.encode(), "{sc}");
            assert!(
                warm.histogram[DegradationClass::Partitioned.index()] >= 4,
                "{sc}"
            );
        }
    }

    /// The triangle plus two hosts: hx on a LAN of r3 that OSPF does not
    /// advertise, reached only over r1's static route toward r3, and hu,
    /// whose gateway no router owns. So h2→hx is blackholed at r2, every
    /// pair toward hu is blackholed, and hu, unattached, reaches nothing.
    fn triangle_with_unclean_pairs() -> NetworkConfigs {
        let mut cfgs = triangle();
        let r1 = cfgs.routers.get_mut("r1").unwrap();
        r1.static_routes.push(confmask_config::StaticRoute {
            prefix: "10.2.3.0/24".parse().unwrap(),
            next_hop: "10.0.13.1".parse().unwrap(),
            added: false,
        });
        let mut lan = r1.interfaces[2].clone();
        lan.name = "Ethernet0/2".into();
        lan.address = Some(("10.2.3.1".parse().unwrap(), 24));
        cfgs.routers.get_mut("r3").unwrap().interfaces.push(lan);
        cfgs.hosts
            .insert("hx".into(), host("hx", "10.2.3.100", "10.2.3.1"));
        cfgs.hosts
            .insert("hu".into(), host("hu", "10.9.9.100", "10.9.9.1"));
        cfgs
    }

    #[test]
    fn unclean_pairs_are_re_traced_only_when_a_lookup_toward_them_changes() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle_with_unclean_pairs();
        let base = engine.converged(&cfgs).unwrap();
        let dp = &base.sim.dataplane;
        let net = &base.sim.net;
        let id = |h: &str| net.host_id(h).unwrap().0;
        let (hx, hu) = (id("hx"), id("hu"));
        assert!(net.host(HostId(hu)).attachment.is_none());
        let unclean_pairs: Vec<_> = dp
            .entries()
            .iter()
            .filter(|(_, ps)| unclean(ps))
            .map(|(key, _)| *key)
            .collect();
        // h2→hx, the three pairs toward hu and the three from it.
        assert_eq!(unclean_pairs.len(), 7, "{unclean_pairs:?}");
        assert!(unclean_pairs.contains(&(id("h2"), hx)));
        let sweep = ScenarioSweep::new(&engine, &base, dp);
        let at = |s: &str, d: u32| {
            let key = (id(s), d);
            dp.entries().binary_search_by_key(&key, |e| e.0).unwrap()
        };
        // r1–r2 changes the lookups toward h1 and h2 only: h1↔h2 re-trace,
        // and no unclean pair is visited. r1–r3 takes r1's static route to
        // hx's LAN away, so h1→hx and hx→h1 re-trace, and so does the
        // unclean h2→hx; hu→hx has an unattached source and stays put.
        for (sc, toward_hx, counts) in [
            (link_down("r1", "r2"), false, (2, 2)),
            (link_down("r1", "r3"), true, (3, 3)),
        ] {
            let shut = sc.shutdowns(&cfgs).unwrap();
            let plan = sweep.plan(&shut).unwrap().unwrap();
            let changed = sweep.changed_lookups(&plan).iter().any(|&(d, _)| d == hx);
            assert_eq!(changed, toward_hx, "{sc}");
            let dirty = sweep.dirty(&plan);
            assert_eq!(dirty.get(at("h2", hx)), toward_hx, "{sc}");
            assert!(!dirty.get(at("hu", hx)), "{sc}");
            let (warm, stats) = sweep.digest_plan(&shut, &plan);
            let cold = run_scenario(&cfgs, dp, &sc).unwrap();
            assert_eq!(warm.encode(), cold.encode(), "{sc}");
            assert_eq!(
                (stats.pairs_visited, stats.pairs_recomputed),
                counts,
                "{sc}"
            );
        }
    }

    #[test]
    fn run_streams_in_order_with_digest_stats() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let scs = scenarios(&cfgs);
        let mut list = DigestList::default();
        let stats = sweep.run(scs.iter(), &mut list);
        assert_eq!(stats.scenarios, scs.len());
        assert_eq!(stats.errors, 0);
        assert!(stats.peak_digest_bytes > 0);
        assert_eq!(list.results.len(), scs.len());
        for (sc, got) in scs.iter().zip(&list.results) {
            assert_eq!(got.as_ref().unwrap(), &sweep.digest(sc).unwrap(), "{sc}");
        }
    }

    #[test]
    fn erroring_scenarios_fold_as_errors() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let bad = FailureScenario::single(Fault::RouterDown {
            router: "nope".into(),
        });
        let mut list = DigestList::default();
        let stats = sweep.run([bad], &mut list);
        assert_eq!(stats.scenarios, 0);
        assert_eq!(stats.errors, 1);
        assert!(matches!(list.results[0], Err(SimError::UnknownElement(_))));
    }
}
