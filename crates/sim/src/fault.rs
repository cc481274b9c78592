//! Failure-scenario engine: inject element failures into a configured
//! network, re-run the full control plane to a new fixpoint, and classify
//! how each host pair's forwarding behaviour degraded.
//!
//! ConfMask's equivalence guarantees (§3.1) are stated for the *healthy*
//! network. This module extends the reproduction with the natural
//! robustness question: does an anonymized network also degrade the same
//! way the original does when elements fail? Three fault kinds are
//! modelled, all expressed as administrative shutdowns so that applying a
//! scenario is a pure, idempotent configuration transformation:
//!
//! * [`Fault::LinkDown`] — both endpoint interfaces of a router-to-router
//!   link go down;
//! * [`Fault::RouterDown`] — every interface of one router goes down;
//! * [`Fault::InterfaceShutdown`] — one named interface goes down.
//!
//! The engine re-simulates the failed network from scratch (OSPF SPF, RIP
//! Bellman–Ford, and BGP path-vector all re-converge on the surviving
//! topology) and compares the resulting data plane against a healthy
//! baseline per host pair, yielding a [`DegradationClass`].

use crate::dataplane::{DataPlane, NameJoin, PathSet, PathShape};
use crate::error::SimError;
use crate::simulate;
use crate::sweep::ScenarioDigest;
use confmask_config::{Interface, NetworkConfigs};
use confmask_net_types::Ipv4Prefix;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One failed element.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// A router-to-router link fails: every interface pair between `a` and
    /// `b` sharing a connected prefix — and whose provenance matches
    /// `added` — is shut on both sides.
    ///
    /// `added` discriminates real links from anonymization-added fake
    /// links: fake links have no stable prefix identity across the
    /// original/anonymized network pair, so provenance is the portable way
    /// to name them.
    LinkDown {
        /// One endpoint router (hostname).
        a: String,
        /// The other endpoint router (hostname).
        b: String,
        /// `true` to fail only anonymization-added (fake) links between the
        /// two routers, `false` to fail only original links.
        added: bool,
    },
    /// A whole router fails (every interface shut).
    RouterDown {
        /// The failed router's hostname.
        router: String,
    },
    /// A single interface is administratively shut.
    InterfaceShutdown {
        /// Owning router's hostname.
        router: String,
        /// Interface name, e.g. `Ethernet0/3`.
        iface: String,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::LinkDown { a, b, added } => {
                let kind = if *added { "fake-link" } else { "link" };
                write!(f, "{kind}-down {a}--{b}")
            }
            Fault::RouterDown { router } => write!(f, "router-down {router}"),
            Fault::InterfaceShutdown { router, iface } => {
                write!(f, "iface-shutdown {router}:{iface}")
            }
        }
    }
}

/// A set of simultaneous faults (k = `faults.len()`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailureScenario {
    /// The faults injected together.
    pub faults: Vec<Fault>,
}

impl std::fmt::Display for FailureScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.faults.iter().map(|x| x.to_string()).collect();
        write!(f, "{{{}}}", parts.join(" + "))
    }
}

impl FailureScenario {
    /// A scenario with a single fault.
    pub fn single(fault: Fault) -> Self {
        FailureScenario {
            faults: vec![fault],
        }
    }

    /// Applies the scenario: returns a copy of `configs` with exactly the
    /// interfaces [`FailureScenario::shutdowns`] lists administratively
    /// shut.
    ///
    /// Pure and idempotent — faults only ever set `shutdown = true`, so
    /// `apply(apply(c)) == apply(c)` and already-shut interfaces are
    /// unaffected. Referencing a router, interface, or link the network
    /// does not have yields [`SimError::UnknownElement`].
    pub fn apply(&self, configs: &NetworkConfigs) -> Result<NetworkConfigs, SimError> {
        let shut = self.shutdowns(configs)?;
        let mut out = configs.clone();
        for (router, i) in &shut {
            let rc = out
                .routers
                .get_mut(router)
                .expect("shutdowns names routers of configs");
            rc.interfaces[*i].shutdown = true;
        }
        Ok(out)
    }

    /// The interfaces this scenario shuts that are up in `configs`, as
    /// `(router, index into the router's interfaces)`, sorted and listed
    /// once each even when faults overlap. Reads `configs` only, so a sweep
    /// resolves every scenario against one shared copy; referencing a
    /// router, interface, or link the network does not have yields
    /// [`SimError::UnknownElement`].
    ///
    /// An interface shutdown names its interface, and shuts the first
    /// stanza of that name.
    pub fn shutdowns(&self, configs: &NetworkConfigs) -> Result<Vec<(String, usize)>, SimError> {
        let router = |name: &str| {
            configs
                .routers
                .get(name)
                .ok_or_else(|| SimError::UnknownElement(format!("router {name}")))
        };
        let mut out = Vec::new();
        for fault in &self.faults {
            match fault {
                Fault::LinkDown { a, b, added } => {
                    let ifaces = link_ifaces(configs, a, b, *added);
                    if ifaces.is_empty() {
                        return Err(SimError::UnknownElement(format!(
                            "no {} between routers {a} and {b}",
                            if *added { "fake link" } else { "link" }
                        )));
                    }
                    out.extend(ifaces);
                }
                Fault::RouterDown { router: name } => {
                    let count = router(name)?.interfaces.len();
                    out.extend((0..count).map(|i| (name.clone(), i)));
                }
                Fault::InterfaceShutdown {
                    router: name,
                    iface,
                } => {
                    let i = router(name)?
                        .interfaces
                        .iter()
                        .position(|i| i.name == *iface)
                        .ok_or_else(|| {
                            SimError::UnknownElement(format!("interface {name}:{iface}"))
                        })?;
                    out.push((name.clone(), i));
                }
            }
        }
        out.retain(|(r, i)| !configs.routers[r].interfaces[*i].shutdown);
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

/// The interfaces realizing the (a, b) link with the given provenance:
/// `(router, interface index)` for every interface on `a` or `b` whose
/// connected prefix is shared by the other router and whose `added` flag
/// matches.
fn link_ifaces(configs: &NetworkConfigs, a: &str, b: &str, added: bool) -> Vec<(String, usize)> {
    let (Some(ra), Some(rb)) = (configs.routers.get(a), configs.routers.get(b)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, ia) in ra.interfaces.iter().enumerate() {
        let Some(pa) = ia.prefix() else { continue };
        for (j, ib) in rb.interfaces.iter().enumerate() {
            if ib.prefix() == Some(pa) && ia.added == added && ib.added == added {
                out.push((a.to_string(), i));
                out.push((b.to_string(), j));
            }
        }
    }
    out
}

/// All router-to-router links present in a network, as `(a, b, added)`
/// with `a < b`. A link is a connected prefix shared by interfaces on
/// exactly two distinct routers; its provenance is `added` iff both
/// endpoint interfaces are anonymization-added.
pub fn links_of(configs: &NetworkConfigs) -> Vec<(String, String, bool)> {
    let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<(&str, bool)>> = BTreeMap::new();
    for (name, rc) in &configs.routers {
        for iface in &rc.interfaces {
            if let Some(p) = iface.prefix() {
                by_prefix.entry(p).or_default().push((name, iface.added));
            }
        }
    }
    let mut out = Vec::new();
    for members in by_prefix.values() {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let (na, aa) = members[i];
                let (nb, ab) = members[j];
                if na == nb {
                    continue;
                }
                let (x, y) = if na < nb { (na, nb) } else { (nb, na) };
                out.push((x.to_string(), y.to_string(), aa && ab));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Every single-link (k = 1) failure scenario of a network, in
/// deterministic order.
pub fn enumerate_single_link_failures(configs: &NetworkConfigs) -> Vec<FailureScenario> {
    links_of(configs)
        .into_iter()
        .map(|(a, b, added)| FailureScenario::single(Fault::LinkDown { a, b, added }))
        .collect()
}

/// A seeded sample of double-link (k = 2) failure scenarios: up to `count`
/// distinct unordered pairs of single-link faults, drawn deterministically
/// from `seed`.
pub fn sample_double_link_failures(
    configs: &NetworkConfigs,
    seed: u64,
    count: usize,
) -> Vec<FailureScenario> {
    let singles = links_of(configs);
    let n = singles.len();
    if n < 2 || count == 0 {
        return Vec::new();
    }
    let total_pairs = n * (n - 1) / 2;
    let want = count.min(total_pairs);
    let mut rng = SplitMix64::new(seed);
    let mut chosen: BTreeSet<(usize, usize)> = BTreeSet::new();
    // Rejection-sample distinct index pairs; bounded because want ≤ total.
    while chosen.len() < want {
        let i = (rng.next() % n as u64) as usize;
        let j = (rng.next() % n as u64) as usize;
        if i != j {
            chosen.insert((i.min(j), i.max(j)));
        }
    }
    chosen
        .into_iter()
        .map(|(i, j)| FailureScenario {
            faults: vec![link_down(&singles[i]), link_down(&singles[j])],
        })
        .collect()
}

/// The fault that fails one [`links_of`] entry.
fn link_down((a, b, added): &(String, String, bool)) -> Fault {
    Fault::LinkDown {
        a: a.clone(),
        b: b.clone(),
        added: *added,
    }
}

/// Lazily enumerates **every** unordered pair of distinct link failures
/// (exhaustive k = 2), in deterministic `(i < j)` index order over
/// [`links_of`]. `C(links, 2)` scenarios exist — ~2 000 on net D, ~51 000
/// on net F — so the iterator materializes one [`FailureScenario`] at a
/// time instead of a vector of them; driven through the streaming sweep
/// the whole enumeration retains only digests.
#[derive(Debug, Clone)]
pub struct DoubleLinkFailures {
    links: Vec<(String, String, bool)>,
    i: usize,
    j: usize,
}

/// Every k = 2 link-failure scenario of a network, lazily.
pub fn enumerate_double_link_failures(configs: &NetworkConfigs) -> DoubleLinkFailures {
    DoubleLinkFailures {
        links: links_of(configs),
        i: 0,
        j: 1,
    }
}

impl DoubleLinkFailures {
    fn scenario(&self, i: usize, j: usize) -> FailureScenario {
        FailureScenario {
            faults: vec![link_down(&self.links[i]), link_down(&self.links[j])],
        }
    }
}

impl Iterator for DoubleLinkFailures {
    type Item = FailureScenario;

    fn next(&mut self) -> Option<FailureScenario> {
        let n = self.links.len();
        if self.i + 1 >= n || self.j >= n {
            return None;
        }
        let sc = self.scenario(self.i, self.j);
        self.j += 1;
        if self.j >= n {
            self.i += 1;
            self.j = self.i + 1;
        }
        Some(sc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.links.len();
        if self.i + 1 >= n {
            return (0, Some(0));
        }
        // Full rows below the current one, plus the rest of this row.
        let rows_after = n - 1 - self.i; // rows i+1 .. n-1 have n-1-r pairs each
        let below = rows_after * rows_after.saturating_sub(1) / 2;
        let this_row = n - self.j;
        let rem = below + this_row;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for DoubleLinkFailures {}

/// The standard scenario sweep: every k = 1 link failure plus a seeded
/// sample of `k2_sample` k = 2 scenarios.
pub fn enumerate_scenarios(
    configs: &NetworkConfigs,
    k: usize,
    seed: u64,
    k2_sample: usize,
) -> Vec<FailureScenario> {
    let mut out = enumerate_single_link_failures(configs);
    if k >= 2 {
        out.extend(sample_double_link_failures(configs, seed, k2_sample));
    }
    out
}

/// SplitMix64 — the sim crate carries no RNG dependency, and scenario
/// sampling needs only a tiny deterministic stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How one host pair's forwarding behaviour changed under a failure,
/// relative to the healthy baseline. Ordered least-severe-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationClass {
    /// Identical path set — the failure did not affect this pair.
    Unchanged,
    /// Still cleanly reachable, over a different path set.
    Rerouted,
    /// Traffic is dropped even though the surviving physical topology
    /// still connects the pair — a routing (not connectivity) failure.
    BlackHoled,
    /// The surviving physical topology no longer connects the pair; no
    /// routing protocol could help.
    Partitioned,
    /// Some branch of the post-failure forwarding graph loops.
    Looping,
}

impl DegradationClass {
    /// Number of degradation classes (histogram width).
    pub const COUNT: usize = 5;

    /// Every class, least-severe-first (the `Ord` order).
    pub const ALL: [DegradationClass; Self::COUNT] = [
        DegradationClass::Unchanged,
        DegradationClass::Rerouted,
        DegradationClass::BlackHoled,
        DegradationClass::Partitioned,
        DegradationClass::Looping,
    ];

    /// The class's ordinal in severity order (`Unchanged` = 0).
    pub fn index(self) -> usize {
        match self {
            DegradationClass::Unchanged => 0,
            DegradationClass::Rerouted => 1,
            DegradationClass::BlackHoled => 2,
            DegradationClass::Partitioned => 3,
            DegradationClass::Looping => 4,
        }
    }

    /// Inverse of [`DegradationClass::index`] (`None` when out of range).
    pub fn from_index(i: usize) -> Option<DegradationClass> {
        Self::ALL.get(i).copied()
    }
}

impl std::fmt::Display for DegradationClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DegradationClass::Unchanged => "unchanged",
            DegradationClass::Rerouted => "rerouted",
            DegradationClass::BlackHoled => "black-holed",
            DegradationClass::Partitioned => "partitioned",
            DegradationClass::Looping => "looping",
        };
        f.write_str(s)
    }
}

/// Classifies one host pair's post-failure behaviour against its healthy
/// baseline: `unchanged` says whether the post-failure path set `after`
/// equals the baseline's by name. `physically_connected` reports whether
/// the pair is still connected in the surviving physical topology and
/// arbitrates [`DegradationClass::Partitioned`] vs
/// [`DegradationClass::BlackHoled`].
///
/// Physical connectivity only arbitrates dropped traffic (blackhole vs
/// partition), so it is asked lazily: most pairs never consult it, and
/// callers that compute component maps on demand (the incremental engine)
/// skip the flood fill whenever no pair drops traffic.
pub fn classify_pair(
    unchanged: bool,
    after: &PathSet,
    physically_connected: impl FnOnce() -> bool,
) -> DegradationClass {
    if unchanged {
        return DegradationClass::Unchanged;
    }
    classify_changed(after.shape(), physically_connected)
}

/// The class of a pair whose path set changed, from the shape of the set
/// it has now ([`PathShape`]): its flags and path count decide it, so a
/// caller that knows only the shape needs no hops.
pub fn classify_changed(
    after: PathShape,
    physically_connected: impl FnOnce() -> bool,
) -> DegradationClass {
    if after.has_loop {
        return DegradationClass::Looping;
    }
    if after.paths == 0 || after.blackhole {
        return if physically_connected() {
            DegradationClass::BlackHoled
        } else {
            DegradationClass::Partitioned
        };
    }
    DegradationClass::Rerouted
}

/// Connected components of the surviving physical topology: maps each
/// device name (router or host) to a component id. Devices sharing a
/// component id are physically connected.
///
/// An interface survives when it is up in `configs` and not listed in
/// `shut` (`(router, interface index)`, as
/// [`FailureScenario::shutdowns`] returns), so
/// `physical_components(c, &sc.shutdowns(c)?)` equals
/// `physical_components(&sc.apply(c)?, &[])` without the copy.
pub fn physical_components(
    configs: &NetworkConfigs,
    shut: &[(String, usize)],
) -> BTreeMap<String, usize> {
    let up = |router: &str, i: usize, iface: &Interface| {
        !iface.shutdown && !shut.iter().any(|(r, j)| *j == i && r == router)
    };
    // Adjacency: routers sharing a prefix on up interfaces; hosts attached
    // to a router whose up interface covers their gateway.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<&str>> = BTreeMap::new();
    for (name, rc) in &configs.routers {
        adj.entry(name).or_default();
        for (i, iface) in rc.interfaces.iter().enumerate() {
            if !up(name, i, iface) {
                continue;
            }
            if let Some(p) = iface.prefix() {
                by_prefix.entry(p).or_default().push(name);
            }
        }
    }
    for members in by_prefix.values() {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                if members[i] != members[j] {
                    adj.entry(members[i]).or_default().push(members[j]);
                    adj.entry(members[j]).or_default().push(members[i]);
                }
            }
        }
    }
    for (hname, hc) in &configs.hosts {
        adj.entry(hname).or_default();
        for (rname, rc) in &configs.routers {
            let attached = rc.interfaces.iter().enumerate().any(|(i, iface)| {
                up(rname, i, iface)
                    && iface.address.map(|(a, _)| a) == Some(hc.gateway)
                    && iface.prefix() == hc.prefix()
            });
            if attached {
                adj.entry(hname).or_default().push(rname);
                adj.entry(rname).or_default().push(hname);
            }
        }
    }

    let mut comp: BTreeMap<String, usize> = BTreeMap::new();
    let mut next = 0usize;
    let names: Vec<&str> = adj.keys().copied().collect();
    for name in names {
        if comp.contains_key(name) {
            continue;
        }
        let id = next;
        next += 1;
        let mut q = VecDeque::from([name]);
        comp.insert(name.to_string(), id);
        while let Some(cur) = q.pop_front() {
            for &nb in adj.get(cur).into_iter().flatten() {
                if !comp.contains_key(nb) {
                    comp.insert(nb.to_string(), id);
                    q.push_back(nb);
                }
            }
        }
    }
    comp
}

/// Injects `scenario` into `configs`, re-simulates every protocol to a new
/// fixpoint, and classifies each host pair of `baseline` against the
/// post-failure data plane.
///
/// `baseline` decides which pairs are reported — pass a data plane
/// restricted to real hosts to ignore anonymization-added fake hosts.
/// Digest index `i` is `baseline`'s i-th pair (`baseline.entries()[i]`).
pub fn run_scenario(
    configs: &NetworkConfigs,
    baseline: &DataPlane,
    scenario: &FailureScenario,
) -> Result<ScenarioDigest, SimError> {
    let _sp = confmask_obs::span("sim.fault.scenario");
    confmask_obs::counter_add("sim.fault.scenarios", 1);
    confmask_obs::debug!("sim.fault", "injecting scenario {scenario}");
    classify_failed(&scenario.apply(configs)?, baseline)
}

/// The cold classification loop: fully simulates already-failed configs
/// and classifies every pair of `baseline` against the result, in
/// baseline order. The incremental sweep's fallback and every oracle test
/// run exactly this loop.
pub fn classify_failed(
    failed: &NetworkConfigs,
    baseline: &DataPlane,
) -> Result<ScenarioDigest, SimError> {
    let sim = simulate(failed)?;
    let comp = physical_components(failed, &[]);
    let missing = PathSet::blackholed();
    let routers = NameJoin::new(sim.dataplane.routers(), baseline.routers());
    let mut digest = ScenarioDigest::new(baseline.len());
    for (i, before) in baseline.pairs().enumerate() {
        let (src, dst) = (before.src, before.dst);
        let after = sim
            .dataplane
            .shared_between(src, dst)
            .map_or(&missing, |a| &**a);
        let connected = || match (comp.get(src), comp.get(dst)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        let unchanged = routers.same(after, before.set);
        digest.record(i, classify_pair(unchanged, after, connected));
    }
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_config::{parse_router, HostConfig};

    /// The class a digest over `baseline` recorded for the named pair.
    fn class_of(
        digest: &ScenarioDigest,
        baseline: &DataPlane,
        src: &str,
        dst: &str,
    ) -> DegradationClass {
        let i = baseline
            .pairs()
            .position(|p| (p.src, p.dst) == (src, dst))
            .expect("pair is in the baseline");
        digest
            .changed_classes()
            .find(|&(j, _)| j == i)
            .map_or(DegradationClass::Unchanged, |(_, c)| c)
    }

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

    /// Triangle r1–r2–r3 (all OSPF), host on r1 and on r2. Failing the
    /// r1–r2 link leaves the detour via r3.
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

    #[test]
    fn enumerates_all_links() {
        let links = links_of(&triangle());
        assert_eq!(
            links,
            vec![
                ("r1".to_string(), "r2".to_string(), false),
                ("r1".to_string(), "r3".to_string(), false),
                ("r2".to_string(), "r3".to_string(), false),
            ]
        );
        assert_eq!(enumerate_single_link_failures(&triangle()).len(), 3);
    }

    #[test]
    fn apply_is_idempotent_and_pure() {
        let cfgs = triangle();
        let sc = FailureScenario::single(Fault::LinkDown {
            a: "r1".into(),
            b: "r2".into(),
            added: false,
        });
        let once = sc.apply(&cfgs).unwrap();
        let twice = sc.apply(&once).unwrap();
        assert_eq!(once, twice);
        // The original is untouched.
        assert!(cfgs.routers["r1"].interfaces.iter().all(|i| !i.shutdown));
        // Exactly the two endpoint interfaces are shut.
        assert!(
            once.routers["r1"]
                .interface("Ethernet0/0")
                .unwrap()
                .shutdown
        );
        assert!(
            once.routers["r2"]
                .interface("Ethernet0/0")
                .unwrap()
                .shutdown
        );
        assert!(
            !once.routers["r1"]
                .interface("Ethernet0/1")
                .unwrap()
                .shutdown
        );
    }

    #[test]
    fn unknown_elements_are_reported() {
        let cfgs = triangle();
        for sc in [
            FailureScenario::single(Fault::RouterDown {
                router: "nope".into(),
            }),
            FailureScenario::single(Fault::InterfaceShutdown {
                router: "r1".into(),
                iface: "Serial9/9".into(),
            }),
            FailureScenario::single(Fault::LinkDown {
                a: "r1".into(),
                b: "r2".into(),
                added: true, // no fake link exists between r1 and r2
            }),
            FailureScenario {
                faults: vec![
                    Fault::RouterDown {
                        router: "r1".into(),
                    },
                    Fault::RouterDown {
                        router: "nope".into(),
                    },
                ],
            },
        ] {
            let resolved = sc.shutdowns(&cfgs);
            assert!(matches!(resolved, Err(SimError::UnknownElement(_))), "{sc}");
            assert_eq!(
                resolved.unwrap_err().to_string(),
                sc.apply(&cfgs).unwrap_err().to_string(),
                "{sc}"
            );
        }
    }

    #[test]
    fn overlapping_faults_list_each_interface_once() {
        let sc = FailureScenario {
            faults: vec![
                Fault::RouterDown {
                    router: "r1".into(),
                },
                Fault::LinkDown {
                    a: "r1".into(),
                    b: "r2".into(),
                    added: false,
                },
            ],
        };
        let shut = |r: &str, i| (r.to_string(), i);
        assert_eq!(
            sc.shutdowns(&triangle()).unwrap(),
            [shut("r1", 0), shut("r1", 1), shut("r1", 2), shut("r2", 0)]
        );
    }

    #[test]
    fn already_shut_interfaces_are_not_listed() {
        let mut cfgs = triangle();
        cfgs.routers.get_mut("r1").unwrap().interfaces[1].shutdown = true;
        let sc = FailureScenario::single(Fault::RouterDown {
            router: "r1".into(),
        });
        assert_eq!(
            sc.shutdowns(&cfgs).unwrap(),
            [("r1".to_string(), 0), ("r1".to_string(), 2)]
        );
        let iface = FailureScenario::single(Fault::InterfaceShutdown {
            router: "r1".into(),
            iface: "Ethernet0/1".into(),
        });
        assert!(iface.shutdowns(&cfgs).unwrap().is_empty());
    }

    #[test]
    fn apply_sets_exactly_the_listed_shutdowns() {
        let cfgs = triangle();
        let mut scenarios = enumerate_single_link_failures(&cfgs);
        scenarios.extend(sample_double_link_failures(&cfgs, 7, 3));
        for router in ["r1", "r2", "r3"] {
            scenarios.push(FailureScenario::single(Fault::RouterDown {
                router: router.into(),
            }));
        }
        for sc in &scenarios {
            let mut want = cfgs.clone();
            for (router, i) in sc.shutdowns(&cfgs).unwrap() {
                let iface = &mut want.routers.get_mut(&router).unwrap().interfaces[i];
                assert!(!iface.shutdown, "{sc}: listed twice or already shut");
                iface.shutdown = true;
            }
            assert_eq!(sc.apply(&cfgs).unwrap(), want, "{sc}");
        }
    }

    #[test]
    fn link_failure_reroutes_via_detour() {
        let cfgs = triangle();
        let baseline = simulate(&cfgs).unwrap().dataplane;
        let sc = FailureScenario::single(Fault::LinkDown {
            a: "r1".into(),
            b: "r2".into(),
            added: false,
        });
        let out = run_scenario(&cfgs, &baseline, &sc).unwrap();
        assert_eq!(
            class_of(&out, &baseline, "h1", "h2"),
            DegradationClass::Rerouted
        );
        assert_eq!(out.worst, DegradationClass::Rerouted);
        assert!(!out.all_unchanged());
    }

    #[test]
    fn router_failure_partitions_its_host() {
        let cfgs = triangle();
        let baseline = simulate(&cfgs).unwrap().dataplane;
        let sc = FailureScenario::single(Fault::RouterDown {
            router: "r2".into(),
        });
        let out = run_scenario(&cfgs, &baseline, &sc).unwrap();
        // h2 hangs off r2: both directions are physically partitioned.
        assert_eq!(
            class_of(&out, &baseline, "h1", "h2"),
            DegradationClass::Partitioned
        );
        assert_eq!(
            class_of(&out, &baseline, "h2", "h1"),
            DegradationClass::Partitioned
        );
    }

    #[test]
    fn double_failure_sampling_is_seeded_and_distinct() {
        let cfgs = triangle();
        let s1 = sample_double_link_failures(&cfgs, 7, 2);
        let s2 = sample_double_link_failures(&cfgs, 7, 2);
        assert_eq!(s1, s2, "same seed, same sample");
        assert_eq!(s1.len(), 2);
        assert!(s1[0] != s1[1]);
        for sc in &s1 {
            assert_eq!(sc.faults.len(), 2);
        }
        // Requesting more than C(n, 2) pairs saturates.
        assert_eq!(sample_double_link_failures(&cfgs, 7, 100).len(), 3);
    }

    #[test]
    fn exhaustive_k2_enumeration_is_lazy_and_complete() {
        let cfgs = triangle();
        let mut it = enumerate_double_link_failures(&cfgs);
        // 3 links → C(3, 2) = 3 scenarios, in (i < j) order.
        assert_eq!(it.len(), 3);
        let all: Vec<FailureScenario> = it.by_ref().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(it.len(), 0);
        for sc in &all {
            assert_eq!(sc.faults.len(), 2);
        }
        // Matches the saturated sampler's scenario *set*.
        let sampled: BTreeSet<FailureScenario> =
            sample_double_link_failures(&cfgs, 7, 100).into_iter().collect();
        assert_eq!(all.iter().cloned().collect::<BTreeSet<_>>(), sampled);
        // len() stays exact mid-iteration.
        let mut it2 = enumerate_double_link_failures(&cfgs);
        it2.next();
        assert_eq!(it2.len(), 2);
        assert_eq!(it2.by_ref().count(), 2);
    }

    #[test]
    fn degradation_class_index_roundtrip() {
        for (i, c) in DegradationClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(DegradationClass::from_index(i), Some(*c));
        }
        assert_eq!(DegradationClass::from_index(DegradationClass::COUNT), None);
    }

    #[test]
    fn unaffected_scenario_is_all_unchanged() {
        let cfgs = triangle();
        let baseline = simulate(&cfgs).unwrap().dataplane;
        // r2–r3 carries no baseline traffic between h1 and h2.
        let sc = FailureScenario::single(Fault::LinkDown {
            a: "r2".into(),
            b: "r3".into(),
            added: false,
        });
        let out = run_scenario(&cfgs, &baseline, &sc).unwrap();
        assert!(out.all_unchanged(), "{:?}", out.histogram);
        assert_eq!(out.pairs(), baseline.len());
    }
}
