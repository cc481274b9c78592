//! Native control-plane simulator — the Batfish substitute.
//!
//! The original ConfMask prototype delegates all network simulation to an
//! external Batfish service. This crate replaces it with a self-contained
//! simulator implementing exactly the capabilities ConfMask uses:
//!
//! 1. **Model extraction** ([`SimNetwork`]): configurations → routers,
//!    interfaces, links, protocol sessions, and resolved route filters. A
//!    fault scenario's model is derived from the healthy one by removing
//!    the interfaces it shut ([`SimNetwork::without_interfaces`]), sharing
//!    every router the removal leaves unchanged.
//! 2. **Control-plane computation**:
//!    * [`ospf`] — link-state SPF with ECMP and Cisco-style RIB filtering
//!      (a `distribute-list in` removes candidate next-hops *after* the SPF,
//!      which is the behaviour ConfMask's route-equivalence algorithm
//!      relies on for link-state protocols);
//!    * [`rip`] — distance-vector Bellman–Ford to a fixpoint with inbound
//!      advertisement filtering (filters make routes fall back to the
//!      next-best neighbor — the distance-vector behaviour of §5.1);
//!    * [`bgp`] — router-level path-vector with eBGP sessions, an implicit
//!      iBGP full mesh, AS-path loop prevention, shortest-AS-path selection
//!      and deterministic tie-breaking; iterated to a stable state (BGP
//!      converges to a *local equilibrium*, which is why ConfMask must
//!      re-simulate after adding filters, §4.3).
//!
//!    [`cold_control_plane`] is the one cold build; it also returns the
//!    converged per-protocol state ([`ControlState`]) from which
//!    `confmask-sim-delta` plans filter edits and interface shutdowns
//!    incrementally.
//! 3. **Data-plane extraction** ([`dataplane`]): per-router FIBs with
//!    longest-prefix match and administrative distance, and exhaustive
//!    host-to-host forwarding-path enumeration with ECMP branching, loop and
//!    black-hole detection. Extraction resolves each destination once per
//!    router into a next-hop graph over router ids that every source
//!    gateway reads ([`DestTracer`], which fault sweeps also use to
//!    re-trace only the pairs a failure touched); the per-pair DFS behind
//!    traceroute decides only the pairs whose gateway reaches a loop or the
//!    path cap.
//!
//! The entry point is [`simulate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod dataplane;
mod error;
pub mod fault;
mod fib;
mod network;
pub mod ospf;
pub mod rip;
mod rows;
pub mod sweep;

pub use bgp::BgpFibRoute;
pub use dataplane::{
    DataPlane, DataPlaneBuilder, DestTracer, NameJoin, Pair, PairBits, PathSet, PathShape, Reach,
    TracerStats,
};
pub use error::SimError;
pub use fault::{DegradationClass, FailureScenario, Fault};
pub use sweep::{DigestList, ScenarioDigest, SweepReducer, SweepStats, SweepSummary};
pub use fib::{
    merge_fibs, merge_router_fib, AdminDistance, Fib, FibBuilder, FibEntry, Fibs, NextHop,
    OspfRows, PrefixMerge, RouteSource,
};
pub use network::{
    build_router, BgpSession, HostNode, IfaceNode, IfaceRemap, Peer, RouterNode, SimNetwork,
};
pub use ospf::{OspfDist, RouterPaths};
pub use rip::RipDist;
pub use rows::{Dists, Footprint, Hop, IgpRoutes, Rows};

use confmask_config::NetworkConfigs;
use confmask_net_types::Ipv4Prefix;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-router BGP RIB contributions (one map per [`confmask_net_types::RouterId`]).
pub type BgpRoutes = Vec<BTreeMap<Ipv4Prefix, BgpFibRoute>>;

/// A complete simulation result: the extracted model, every router's FIB,
/// and the host-to-host data plane. Every part is shared, so a clone costs
/// reference-count bumps.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// The extracted network model.
    pub net: Arc<SimNetwork>,
    /// Per-router forwarding tables.
    pub fibs: Fibs,
    /// All host-to-host forwarding paths (the paper's `DP`).
    pub dataplane: DataPlane,
}

/// Simulates a network: extracts the model, runs every configured protocol,
/// merges RIBs into FIBs by administrative distance, and enumerates the
/// data plane. The converged protocol state is freed before extraction.
pub fn simulate(configs: &NetworkConfigs) -> Result<Simulation, SimError> {
    let (net, fibs, _) = cold_control_plane(configs)?;
    with_dataplane(net, fibs)
}

/// Like [`simulate`], but also returns the converged [`ControlState`].
///
/// The `Simulation` half is byte-identical to what [`simulate`] produces:
/// both take the one cold control-plane path ([`cold_control_plane`]) and
/// the same dataplane extraction.
pub fn simulate_with_state(
    configs: &NetworkConfigs,
) -> Result<(Simulation, ControlState), SimError> {
    let (net, fibs, state) = cold_control_plane(configs)?;
    Ok((with_dataplane(net, fibs)?, state))
}

/// Extracts the data plane of a converged model and records the size
/// metrics every full simulation reports.
fn with_dataplane(net: SimNetwork, fibs: Fibs) -> Result<Simulation, SimError> {
    let sp = confmask_obs::span("sim.dataplane");
    let dataplane = dataplane::extract_dataplane(&net, &fibs)?;
    sp.finish();
    if confmask_obs::enabled() {
        confmask_obs::counter_add("sim.dataplane.pairs", dataplane.len() as u64);
        for pair in dataplane.pairs() {
            confmask_obs::observe("sim.dataplane.paths_per_pair", pair.path_count() as u64);
        }
    }
    Ok(Simulation {
        net: Arc::new(net),
        fibs,
        dataplane,
    })
}

/// Builds the model and runs every protocol cold: the simulator's only
/// cold control-plane path. [`simulate`] and [`simulate_with_state`] wrap
/// it, and so do the warm handles of `confmask-sim-delta`, which keep the
/// returned [`ControlState`] to refresh from.
pub fn cold_control_plane(
    configs: &NetworkConfigs,
) -> Result<(SimNetwork, Fibs, ControlState), SimError> {
    let sp = confmask_obs::span("sim.control_plane");
    confmask_obs::counter_add("sim.simulations", 1);
    // Register the protocol counters at zero so the metric set is stable
    // across protocol mixes (an OSPF-only network still reports
    // `sim.bgp.rounds` = 0 rather than omitting the key).
    for name in ["sim.ospf.spf_runs", "sim.rip.rounds", "sim.bgp.rounds"] {
        confmask_obs::counter_add(name, 0);
    }
    let net = SimNetwork::build(configs)?;
    let (ospf_routes, ospf_dist) = ospf::compute_with_state(&net);
    let (rip_routes, rip_dist) = rip::compute_with_state(&net, None);
    // The router-to-router IGP matrix is only BGP input, so pure IGP
    // networks skip its `n` Dijkstras entirely.
    let (router_paths, bgp_routes) = if net.routers.iter().any(|r| r.asn.is_some()) {
        let rp = ospf::router_paths(&net);
        let routes = bgp::compute(&net, &rp)?;
        (Some(rp), routes)
    } else {
        (None, vec![BTreeMap::new(); net.router_count()])
    };
    let fibs = merge_fibs(&net, &ospf_routes, &rip_routes, &bgp_routes);
    sp.finish();
    let state = ControlState {
        ospf_routes,
        ospf_dist,
        rip_routes,
        rip_dist,
        router_paths,
        bgp_routes,
    };
    if confmask_obs::enabled() {
        for fib in &fibs.per_router {
            confmask_obs::observe("sim.fib.size", fib.len() as u64);
        }
        let total: Footprint = state
            .footprint()
            .into_iter()
            .map(|(_, f)| f)
            .chain([fibs.footprint()])
            .sum();
        confmask_obs::gauge_set("sim.state.blocks", total.blocks as f64);
        confmask_obs::gauge_set("sim.state.bytes", total.bytes as f64);
    }
    Ok((net, fibs, state))
}

/// Registers every `sim.*` metric the simulator emits at zero, so scrapes
/// and reports taken before the first simulation already carry the full
/// key set (the register-at-zero rule the rest of the pipeline follows).
pub fn register_metrics() {
    for name in [
        "sim.simulations",
        "sim.ospf.spf_runs",
        "sim.rip.rounds",
        "sim.bgp.rounds",
        "sim.dataplane.pairs",
        "sim.dataplane.destinations",
        "sim.dataplane.dag_nodes",
        "sim.dataplane.dfs_fallbacks",
        "sim.dataplane.path_sets",
        "sim.fault.scenarios",
    ] {
        confmask_obs::counter_add(name, 0);
    }
    for name in ["sim.state.blocks", "sim.state.bytes"] {
        confmask_obs::gauge_set(name, 0.0);
    }
    confmask_obs::histogram_register("sim.dataplane.paths_per_pair");
    confmask_obs::histogram_register("sim.fib.size");
    sweep::register_metrics();
}

/// The converged per-protocol control-plane state behind a [`Simulation`].
///
/// [`simulate_with_state`] returns it alongside the result so the
/// incremental engine (`confmask-sim-delta`) can cache what each protocol
/// converged *to* — per-prefix OSPF/RIP distance vectors, the IGP
/// router-to-router matrix, and the BGP RIB contributions — and later
/// recompute only what an edit (a filter edit or an interface shutdown)
/// actually touched.
#[derive(Debug, Clone)]
pub struct ControlState {
    /// OSPF candidate next-hops per (router, destination).
    pub ospf_routes: IgpRoutes,
    /// Converged OSPF distance vectors per destination.
    pub ospf_dist: OspfDist,
    /// RIP candidate next-hops per (router, destination).
    pub rip_routes: IgpRoutes,
    /// Converged RIP distance vectors per destination.
    pub rip_dist: RipDist,
    /// Router-to-router IGP shortest paths (computed only when some router
    /// speaks BGP — it exists solely to resolve iBGP egresses).
    pub router_paths: Option<RouterPaths>,
    /// BGP RIB contributions per router.
    pub bgp_routes: BgpRoutes,
}

impl ControlState {
    /// The heap each table owns, by table name: OSPF rows and distances,
    /// RIP rows and distances, BGP routes and the router-path matrix. A
    /// B-tree map counts its entries as packed into the fewest nodes that
    /// hold them (11 entries each), a lower bound: the standard library
    /// does not expose its nodes.
    pub fn footprint(&self) -> [(&'static str, Footprint); 6] {
        let entry = std::mem::size_of::<(Ipv4Prefix, BgpFibRoute)>();
        let bgp = Footprint::of_vec(&self.bgp_routes)
            + self
                .bgp_routes
                .iter()
                .map(|table| Footprint {
                    blocks: table.len().div_ceil(11) as u64,
                    bytes: (table.len() * entry) as u64,
                })
                .sum()
            + self
                .bgp_routes
                .iter()
                .flat_map(|table| table.values())
                .map(|route| Footprint::of_vec(&route.next_hops))
                .sum();
        let paths = self.router_paths.as_ref().map_or_else(Footprint::default, |rp| {
            let dist = Footprint::of_vec(&rp.dist) + rp.dist.iter().map(Footprint::of_vec).sum();
            let hops = Footprint::of_vec(&rp.next_hops)
                + rp.next_hops
                    .iter()
                    .map(|row| Footprint::of_vec(row) + row.iter().map(Footprint::of_vec).sum())
                    .sum();
            dist + hops
        });
        [
            ("ospf_rows", self.ospf_routes.footprint()),
            ("ospf_dist", self.ospf_dist.footprint()),
            ("rip_rows", self.rip_routes.footprint()),
            ("rip_dist", self.rip_dist.footprint()),
            ("bgp", bgp),
            ("router_paths", paths),
        ]
    }
}
