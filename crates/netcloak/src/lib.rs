//! A NetCloak-style baseline: anonymization by *dynamic topology
//! expansion* (arXiv 2504.14959).
//!
//! Where ConfMask hides a topology by adding fake **links** between real
//! routers (and then spends most of its runtime repairing the data plane
//! with route filters, §5.2), NetCloak hides it by *growing* the network:
//! new **cloak routers** — complete, protocol-consistent configuration
//! files generated to blend in with the human-written ones — are inserted
//! until the real routers' degree sequence is k-anonymous among the
//! expanded population. The key scalability claim is that expansion needs
//! **no iterative data-plane repair**: cloak links carry a link-state cost
//! strictly greater than half the original network's cost diameter, so any
//! path through a cloak router is strictly more expensive than every
//! original path and forwarding between real hosts is preserved *by
//! construction* (verified defensively against the simulator anyway).
//!
//! The expansion is sized by the privacy parameter `k`:
//!
//! 1. Liu–Terzi phase-1 over the real router degree sequence gives each
//!    real router a degree deficit (how many links it needs to join a
//!    k-anonymous degree group).
//! 2. Deficits are satisfied by links to cloak routers (never real–real
//!    links — the real subgraph is untouched, one of NetCloak's deviation
//!    points from ConfMask).
//! 3. At least `max(2, k)` cloak routers are created so the cloak
//!    population itself is a plausible crowd; a cloak–cloak ring plus an
//!    equalization pass keeps their degrees near-uniform, and each cloak
//!    router carries one liveness host so its links are never idle.
//!
//! Deviations from the paper (whose implementation is not public) are
//! documented in DESIGN.md §15: we reuse the workspace's config-patching
//! machinery for cloak-file generation, and we require a link-state IGP
//! (RIP's hop-count metric cannot express "expensive" cloak links, so
//! RIP networks are rejected).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use confmask_config::patch::{LineLedger, Patcher, PatchError};
use confmask_config::NetworkConfigs;
use confmask_net_types::PrefixAllocator;
use confmask_sim::{DataPlane, SimError};
use confmask_topology::extract::extract_topology;
use confmask_topology::kdegree::anonymize_degree_sequence;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Errors from topology expansion.
#[derive(Debug)]
pub enum NetCloakError {
    /// The input network failed to simulate (or the expanded one did —
    /// which would be a bug, not an input problem).
    Sim(SimError),
    /// Config patching failed while generating a cloak router.
    Patch(PatchError),
    /// Address space exhausted while allocating cloak links/LANs.
    Alloc(String),
    /// The input is outside NetCloak's supported envelope.
    Unsupported(String),
    /// Defensive verification caught a real host pair whose forwarding
    /// changed — expansion must never do that.
    NotPreserved(String),
}

impl std::fmt::Display for NetCloakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetCloakError::Sim(e) => write!(f, "netcloak simulation failed: {e}"),
            NetCloakError::Patch(e) => write!(f, "netcloak patch failed: {e}"),
            NetCloakError::Alloc(e) => write!(f, "netcloak allocation failed: {e}"),
            NetCloakError::Unsupported(e) => write!(f, "netcloak unsupported input: {e}"),
            NetCloakError::NotPreserved(e) => {
                write!(f, "netcloak expansion changed a real path: {e}")
            }
        }
    }
}

impl std::error::Error for NetCloakError {}

impl From<SimError> for NetCloakError {
    fn from(e: SimError) -> Self {
        NetCloakError::Sim(e)
    }
}

impl From<PatchError> for NetCloakError {
    fn from(e: PatchError) -> Self {
        NetCloakError::Patch(e)
    }
}

/// Result of a NetCloak expansion.
#[derive(Debug, Clone)]
pub struct NetCloakResult {
    /// The expanded configurations — real files untouched, cloak files
    /// added (all carrying the `added` provenance flag).
    pub configs: NetworkConfigs,
    /// Added-lines accounting for the cloak files.
    pub ledger: LineLedger,
    /// Names of the cloak routers created.
    pub cloak_routers: Vec<String>,
    /// Cloak links added, as name pairs (real–cloak and cloak–cloak).
    pub cloak_links: Vec<(String, String)>,
    /// Liveness hosts (one per cloak router).
    pub cloak_hosts: Vec<String>,
    /// The real hosts of the input network.
    pub real_hosts: BTreeSet<String>,
    /// Data plane of the original network.
    pub baseline_dataplane: DataPlane,
    /// Data plane of the expanded network (covers cloak hosts too).
    pub dataplane: DataPlane,
}

impl NetCloakResult {
    /// Whether every real host pair kept its exact path set (always true
    /// for a returned result — expansion verifies before returning).
    pub fn preserved(&self) -> bool {
        self.dataplane
            .equivalent_on(&self.baseline_dataplane, &self.real_hosts)
    }
}

/// Registers every `netcloak.*` metric at zero, so reports enumerate the
/// full key set whether or not an expansion ran.
pub fn register_metrics() {
    for name in [
        "netcloak.expansions",
        "netcloak.cloak_routers",
        "netcloak.cloak_links",
        "netcloak.cloak_hosts",
        "netcloak.deficit_links",
    ] {
        confmask_obs::counter_add(name, 0);
    }
}

/// A cloak link cost strictly greater than half the original cost
/// diameter: two cloak hops then strictly exceed every original path cost,
/// so no real-pair shortest path can ever route through a cloak router —
/// not even as an ECMP tie (ConfMask's `⌈Δ/2⌉` allows ties and repairs
/// them with filters; NetCloak has no repair stage, so it pays one extra
/// unit instead).
fn strict_stub_cost(sim: &confmask_sim::Simulation) -> u32 {
    let paths = confmask_sim::ospf::router_paths(&sim.net);
    let diameter = paths
        .dist
        .iter()
        .flatten()
        .copied()
        .filter(|&d| d != u64::MAX)
        .max()
        .unwrap_or(0);
    u32::try_from(diameter.div_ceil(2))
        .unwrap_or(u32::MAX - 1)
        .saturating_add(1)
}

/// Cloak names following the network's own naming convention: the most
/// common alphabetic prefix among real router names, numbered after the
/// real population.
fn blending_names(existing: &BTreeSet<String>, count: usize) -> Vec<String> {
    let stem = |name: &str| -> String {
        name.chars()
            .take_while(|c| c.is_alphabetic())
            .collect::<String>()
    };
    let mut freq: BTreeMap<String, usize> = BTreeMap::new();
    for name in existing {
        let s = stem(name);
        if !s.is_empty() {
            *freq.entry(s).or_insert(0) += 1;
        }
    }
    let prefix = freq
        .into_iter()
        .max_by_key(|(_, c)| *c)
        .map(|(p, _)| p)
        .unwrap_or_else(|| "rtr".to_string());

    let mut names = Vec::with_capacity(count);
    let mut n = existing.len();
    while names.len() < count {
        let candidate = format!("{prefix}{n}");
        if !existing.contains(&candidate) && !names.contains(&candidate) {
            names.push(candidate);
        }
        n += 1;
    }
    names
}

/// The expansion plan: which real router attaches to which cloak router,
/// and which cloak pairs interconnect. Pure graph computation, no configs.
///
/// Cloak indices are global (`0..cloak_count`), but every cloak belongs to
/// exactly one AS: all its attachments and cloak–cloak links stay inside
/// that AS. A cloak bridging two ASes would merge their IGP domains and
/// open new routes between routers that previously only spoke BGP — the
/// one way expansion could silently change real forwarding.
struct ExpansionPlan {
    cloak_count: usize,
    /// Real→cloak attachment links, as (real name, cloak index).
    attach: Vec<(String, usize)>,
    /// Cloak–cloak links, as index pairs.
    cloak_links: Vec<(usize, usize)>,
    /// How many of the attachment links were degree-deficit driven.
    deficit_links: usize,
    /// Template router per cloak (a real router of the cloak's own AS).
    templates: Vec<String>,
}

/// Computes the expansion plan for one AS group, appending to the global
/// plan. `min_cloaks` forces a larger population (used to meet the global
/// `max(2, k)` crowd size).
fn plan_group(
    members: &[(String, usize)],
    k: usize,
    min_cloaks: usize,
    out: &mut ExpansionPlan,
    rng: &mut StdRng,
) {
    // Degree sequence sorted descending with name tie-break, so the plan
    // is deterministic.
    let mut degs: Vec<(String, usize)> = members.to_vec();
    degs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let sequence: Vec<usize> = degs.iter().map(|d| d.1).collect();
    let targets = anonymize_degree_sequence(&sequence, k);

    // One attachment unit per missing degree, repeated per router.
    let mut units: Vec<String> = Vec::new();
    for ((name, deg), target) in degs.iter().zip(&targets) {
        for _ in *deg..*target {
            units.push(name.clone());
        }
    }
    out.deficit_links += units.len();

    // Sizing: enough cloaks that no cloak must link the same real router
    // twice, with the link budget spread so cloak degrees resemble the
    // real mean degree.
    let max_per_router = units
        .iter()
        .fold(BTreeMap::<&String, usize>::new(), |mut m, u| {
            *m.entry(u).or_insert(0) += 1;
            m
        })
        .into_values()
        .max()
        .unwrap_or(0);
    let mean_deg =
        (sequence.iter().sum::<usize>() as f64 / sequence.len().max(1) as f64).round() as usize;
    let by_blend = units.len().div_ceil(mean_deg.max(2));
    let cloak_count = max_per_router.max(by_blend).max(min_cloaks).max(1);

    // Zero (or sparse) deficit: the sequence is already k-anonymous, but
    // the cloaks still need a foothold in this AS. Attach one cloak link
    // to *every* member of the largest degree group — the whole group
    // shifts up by one degree together, so degree uniformity survives.
    if units.len() < cloak_count {
        let mut groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (name, deg) in &degs {
            groups.entry(*deg).or_default().push(name.clone());
        }
        let largest = groups
            .into_values()
            .max_by_key(|g| g.len())
            .unwrap_or_default();
        for name in largest {
            units.push(name);
        }
    }

    // Distribute units round-robin over the cloaks, skipping cloaks that
    // already link that real router (sizing guarantees a free slot —
    // except when the forced minimum outnumbers the units; those cloaks
    // stay ring-only).
    let base = out.cloak_count;
    units.shuffle(rng);
    let mut attach_count = vec![0usize; cloak_count];
    let mut linked: Vec<BTreeSet<String>> = vec![BTreeSet::new(); cloak_count];
    let mut next = 0usize;
    for unit in units {
        for probe in 0..cloak_count {
            let c = (next + probe) % cloak_count;
            if linked[c].insert(unit.clone()) {
                out.attach.push((unit.clone(), base + c));
                attach_count[c] += 1;
                next = (c + 1) % cloak_count;
                break;
            }
        }
    }

    // Cloak–cloak ring: connects the AS's cloak population (a cloak with
    // no real attachment still reaches the network through its ring
    // peers) and raises every cloak degree by the same amount.
    let mut cloak_links: Vec<(usize, usize)> = Vec::new();
    if cloak_count == 2 {
        cloak_links.push((0, 1));
    } else if cloak_count >= 3 {
        for c in 0..cloak_count {
            cloak_links.push((c, (c + 1) % cloak_count));
        }
    }

    // Equalization: round-robin leaves cloak degrees within one of each
    // other; pair up the low ones so the cloak degree histogram collapses
    // (best-effort — an odd remainder keeps one cloak a degree short).
    let mut degree: Vec<usize> = attach_count;
    for &(a, b) in &cloak_links {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut has_link: BTreeSet<(usize, usize)> = cloak_links.iter().copied().collect();
    if let Some(&top) = degree.iter().max() {
        let mut low: Vec<usize> = (0..cloak_count).filter(|&c| degree[c] < top).collect();
        while low.len() >= 2 {
            let b = low.pop().expect("len >= 2");
            let a = low.pop().expect("len >= 1");
            let key = (a.min(b), a.max(b));
            if has_link.insert(key) {
                cloak_links.push(key);
                degree[a] += 1;
                degree[b] += 1;
            }
        }
    }
    out.cloak_links
        .extend(cloak_links.into_iter().map(|(a, b)| (base + a, base + b)));

    // Templates: each cloak's file is shaped like a real router of its own
    // AS — the router it first attaches to, or any member for ring-only
    // cloaks.
    let member_names: Vec<&String> = degs.iter().map(|(n, _)| n).collect();
    for cloak_linked in linked.iter().take(cloak_count) {
        let template = cloak_linked
            .iter()
            .next()
            .cloned()
            .unwrap_or_else(|| {
                (*member_names
                    .choose(rng)
                    .expect("AS groups are non-empty"))
                .clone()
            });
        out.templates.push(template);
    }
    out.cloak_count += cloak_count;
}

/// Computes the expansion plan for privacy parameter `k`: per-AS Liu–Terzi
/// deficits realized by per-AS cloak populations, with the global cloak
/// count topped up to at least `max(2, k)`.
fn plan(configs: &NetworkConfigs, k: usize, rng: &mut StdRng) -> ExpansionPlan {
    let topo = extract_topology(configs);

    // Group real routers by AS (BGP asn; IGP-only routers form one group).
    type AsGroups = BTreeMap<Option<confmask_net_types::Asn>, Vec<(String, usize)>>;
    let mut groups: AsGroups = BTreeMap::new();
    for &r in &topo.routers() {
        let name = topo.name(r).to_string();
        let asn = configs.routers[&name].bgp.as_ref().map(|b| b.asn);
        groups
            .entry(asn)
            .or_default()
            .push((name, topo.router_degree(r)));
    }

    let mut out = ExpansionPlan {
        cloak_count: 0,
        attach: Vec::new(),
        cloak_links: Vec::new(),
        deficit_links: 0,
        templates: Vec::new(),
    };
    // Largest AS last, so the global top-up lands in the most plausible
    // place (ordering is deterministic: size then asn).
    let mut ordered: Vec<_> = groups.into_iter().collect();
    ordered.sort_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0)));
    let crowd = k.max(2);
    for (i, (_asn, members)) in ordered.iter().enumerate() {
        let is_last = i + 1 == ordered.len();
        let min_cloaks = if is_last {
            crowd.saturating_sub(out.cloak_count)
        } else {
            1
        };
        plan_group(members, k, min_cloaks, &mut out, rng);
    }
    out
}

/// Expands `configs` with cloak routers for privacy parameter `k`.
///
/// Deterministic given `(configs, k, seed)`; forwarding between the real
/// hosts is preserved by construction and verified against the simulator
/// before the result is returned.
pub fn expand(
    configs: &NetworkConfigs,
    k: usize,
    seed: u64,
) -> Result<NetCloakResult, NetCloakError> {
    let _span = confmask_obs::span("netcloak.expand");
    if configs.routers.values().any(|rc| rc.rip.is_some()) {
        return Err(NetCloakError::Unsupported(
            "RIP networks: hop-count metrics cannot price cloak links above the \
             cost diameter, so preservation-by-construction does not hold"
                .to_string(),
        ));
    }

    let sim = confmask_sim::simulate(configs)?;
    let real_hosts: BTreeSet<String> = configs.hosts.keys().cloned().collect();
    let stub_cost = strict_stub_cost(&sim);

    let mut rng = StdRng::seed_from_u64(seed);
    let plan = plan(configs, k, &mut rng);

    let existing: BTreeSet<String> = configs.routers.keys().cloned().collect();
    let names = blending_names(&existing, plan.cloak_count);

    let mut patcher = Patcher::new(configs.clone());
    let mut alloc = PrefixAllocator::new(configs.used_prefixes());
    let alloc_err = |e: String| NetCloakError::Alloc(format!("address space exhausted: {e}"));

    // Create the cloak files, each shaped like a real router of its own
    // AS (the planner picked the template).
    let mut links: Vec<(String, String)> = Vec::new();
    for (name, template) in names.iter().zip(&plan.templates) {
        patcher.add_fake_router(name, template)?;
    }

    // Real–cloak attachment links.
    for (real, c) in &plan.attach {
        let cloak = &names[*c];
        let (prefix, lo, hi) = alloc
            .allocate_p2p()
            .map_err(|e| alloc_err(e.to_string()))?;
        let runs_ospf = patcher.network().routers[cloak].ospf.is_some();
        let cost = runs_ospf.then_some(stub_cost);
        let iface = patcher.fresh_fake_router_iface_name(cloak);
        patcher.add_interface_named(cloak, &iface, lo, 31, cost, Some(format!("to-{real}")))?;
        patcher.add_interface(real, hi, 31, cost, Some(format!("to-{cloak}")))?;
        patcher.enable_network(cloak, prefix, false)?;
        patcher.enable_network(real, prefix, false)?;
        links.push((real.clone(), cloak.clone()));
    }

    // Cloak–cloak links (ring + equalization).
    for &(a, b) in &plan.cloak_links {
        let (ca, cb) = (&names[a], &names[b]);
        let (prefix, lo, hi) = alloc
            .allocate_p2p()
            .map_err(|e| alloc_err(e.to_string()))?;
        let runs_ospf = patcher.network().routers[ca].ospf.is_some();
        let cost = runs_ospf.then_some(stub_cost);
        let ia = patcher.fresh_fake_router_iface_name(ca);
        patcher.add_interface_named(ca, &ia, lo, 31, cost, Some(format!("to-{cb}")))?;
        let ib = patcher.fresh_fake_router_iface_name(cb);
        patcher.add_interface_named(cb, &ib, hi, 31, cost, Some(format!("to-{ca}")))?;
        patcher.enable_network(ca, prefix, false)?;
        patcher.enable_network(cb, prefix, false)?;
        links.push((ca.clone(), cb.clone()));
    }

    // One liveness host per cloak router: idle links would fall to the
    // dead-link detector.
    let mut cloak_hosts = Vec::with_capacity(names.len());
    for name in &names {
        let lan = alloc.allocate(24).map_err(|e| alloc_err(e.to_string()))?;
        let advertise_in_bgp = patcher.network().routers[name].bgp.is_some();
        let host = format!("{name}-h0");
        patcher.add_fake_host(name, &host, lan, advertise_in_bgp)?;
        cloak_hosts.push(host);
    }

    let (expanded, ledger) = patcher.into_parts();
    let final_sim = confmask_sim::simulate(&expanded)?;
    if !final_sim
        .dataplane
        .equivalent_on(&sim.dataplane, &real_hosts)
    {
        let bad = real_hosts
            .iter()
            .flat_map(|s| real_hosts.iter().map(move |d| (s, d)))
            .find(|(s, d)| {
                s != d && final_sim.dataplane.between(s, d) != sim.dataplane.between(s, d)
            })
            .map(|(s, d)| {
                format!(
                    "{s} -> {d}: {:?} became {:?}",
                    sim.dataplane.between(s, d).map(|p| p.paths().collect::<Vec<_>>()),
                    final_sim.dataplane.between(s, d).map(|p| p.paths().collect::<Vec<_>>())
                )
            })
            .unwrap_or_else(|| "unknown pair".to_string());
        return Err(NetCloakError::NotPreserved(bad));
    }

    confmask_obs::counter_add("netcloak.expansions", 1);
    confmask_obs::counter_add("netcloak.cloak_routers", names.len() as u64);
    confmask_obs::counter_add("netcloak.cloak_links", links.len() as u64);
    confmask_obs::counter_add("netcloak.cloak_hosts", cloak_hosts.len() as u64);
    confmask_obs::counter_add("netcloak.deficit_links", plan.deficit_links as u64);
    confmask_obs::debug!(
        "netcloak",
        "expanded: {} cloak routers, {} links ({} deficit-driven), stub cost {stub_cost}",
        names.len(),
        links.len(),
        plan.deficit_links
    );

    Ok(NetCloakResult {
        configs: expanded,
        ledger,
        cloak_routers: names,
        cloak_links: links,
        cloak_hosts,
        real_hosts,
        baseline_dataplane: sim.dataplane,
        dataplane: final_sim.dataplane,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_topology::metrics::min_same_degree;

    #[test]
    fn expansion_preserves_real_paths_exactly() {
        let net = confmask_netgen::smallnets::example_network();
        let r = expand(&net, 3, 0).unwrap();
        assert!(r.preserved());
        assert!(r.cloak_routers.len() >= 3);
        assert_eq!(r.cloak_hosts.len(), r.cloak_routers.len());
        // Real files untouched: every original router emits identically.
        for (name, rc) in &net.routers {
            let after = &r.configs.routers[name];
            // Attachment may add interfaces to real routers, but never
            // removes or rewrites existing lines.
            assert_eq!(after.hostname, rc.hostname);
            assert!(after.interfaces.len() >= rc.interfaces.len());
        }
    }

    #[test]
    fn cloak_files_carry_provenance_and_blend() {
        let net = confmask_netgen::smallnets::example_network();
        let r = expand(&net, 3, 1).unwrap();
        for name in &r.cloak_routers {
            let rc = &r.configs.routers[name];
            assert!(rc.added, "{name} must be provenance-flagged");
            assert!(name.starts_with('r'), "blending name, got {name}");
            assert!(!rc.interfaces.is_empty(), "{name} has links");
        }
        for h in &r.cloak_hosts {
            assert!(r.configs.hosts[h].added);
        }
    }

    #[test]
    fn expansion_improves_degree_anonymity() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::enterprise());
        let before = min_same_degree(&extract_topology(&net));
        let r = expand(&net, 4, 0).unwrap();
        let after = min_same_degree(&extract_topology(&r.configs));
        assert!(
            after >= before,
            "degree anonymity must not decrease: {before} -> {after}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
        let a = expand(&net, 4, 9).unwrap();
        let b = expand(&net, 4, 9).unwrap();
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.cloak_links, b.cloak_links);
    }

    #[test]
    fn already_anonymous_networks_still_gain_cloaks() {
        // FatTree-04 is degree-uniform within layers; expansion must still
        // produce a cloak population and keep paths intact.
        let net = confmask_netgen::synthesize(&confmask_netgen::fattree::fattree_spec(4));
        let r = expand(&net, 2, 0).unwrap();
        assert!(r.cloak_routers.len() >= 2);
        assert!(r.preserved());
    }

    #[test]
    fn expanded_configs_reparse_and_validate() {
        let net = confmask_netgen::smallnets::example_network();
        let r = expand(&net, 3, 0).unwrap();
        for rc in r.configs.routers.values() {
            let text = rc.emit();
            let back = confmask_config::parse_router(&text).unwrap();
            assert_eq!(back.hostname, rc.hostname);
        }
        assert!(confmask_config::validate(&r.configs).is_empty());
    }

    #[test]
    fn rip_networks_are_rejected() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::branch_office_rip());
        let err = expand(&net, 3, 0).unwrap_err();
        assert!(matches!(err, NetCloakError::Unsupported(_)), "{err}");
    }
}
