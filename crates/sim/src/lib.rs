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
//! 3. **Warm refresh** ([`WarmControlPlane`]): after inbound-filter edits
//!    on a few routers of an OSPF-only network, only those routers' RIBs
//!    and FIBs are recomputed, from the cached distance vectors.
//! 4. **Data-plane extraction** ([`dataplane`]): per-router FIBs with
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
pub mod sweep;
mod warm;

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
pub use network::{BgpSession, HostNode, IfaceNode, IfaceRemap, Peer, RouterNode, SimNetwork};
pub use ospf::{IgpRoutes, OspfDist, RouterPaths};
pub use rip::{RipDist, RipRoutes};
pub use warm::WarmControlPlane;

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
/// data plane.
pub fn simulate(configs: &NetworkConfigs) -> Result<Simulation, SimError> {
    let (net, fibs) = simulate_control_plane(configs)?;
    let sp = confmask_obs::span("sim.dataplane");
    let dataplane = dataplane::extract_dataplane(&net, &fibs)?;
    sp.finish();
    emit_dataplane_metrics(&dataplane);
    Ok(Simulation {
        net: Arc::new(net),
        fibs,
        dataplane,
    })
}

/// Records the data-plane size metrics every full simulation reports,
/// regardless of which entry point produced it.
fn emit_dataplane_metrics(dataplane: &DataPlane) {
    if confmask_obs::enabled() {
        confmask_obs::counter_add("sim.dataplane.pairs", dataplane.len() as u64);
        for pair in dataplane.pairs() {
            confmask_obs::observe("sim.dataplane.paths_per_pair", pair.path_count() as u64);
        }
    }
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
        "sim.warm.refreshes",
        "sim.warm.full_fallbacks",
    ] {
        confmask_obs::counter_add(name, 0);
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
/// recompute only what a perturbation actually touched. A
/// [`WarmControlPlane`] holds the same state to refresh single routers
/// after filter edits.
#[derive(Debug, Clone)]
pub struct ControlState {
    /// OSPF candidate next-hops per (router, prefix).
    pub ospf_routes: IgpRoutes,
    /// Converged OSPF distance vectors per prefix.
    pub ospf_dist: OspfDist,
    /// RIP candidate next-hops per (router, prefix).
    pub rip_routes: RipRoutes,
    /// Converged RIP distance vectors per prefix.
    pub rip_dist: RipDist,
    /// Router-to-router IGP shortest paths (computed only when some router
    /// speaks BGP — it exists solely to resolve iBGP egresses).
    pub router_paths: Option<RouterPaths>,
    /// BGP RIB contributions per router.
    pub bgp_routes: BgpRoutes,
}

/// Like [`simulate`], but also returns the converged [`ControlState`].
///
/// The `Simulation` half is byte-identical to what [`simulate`] produces:
/// both take the one cold control-plane path ([`WarmControlPlane::new`])
/// and the same dataplane extraction.
pub fn simulate_with_state(
    configs: &NetworkConfigs,
) -> Result<(Simulation, ControlState), SimError> {
    let (net, fibs, state) = WarmControlPlane::new(configs)?.into_parts();
    let sp = confmask_obs::span("sim.dataplane");
    let dataplane = dataplane::extract_dataplane(&net, &fibs)?;
    sp.finish();
    emit_dataplane_metrics(&dataplane);
    let sim = Simulation {
        net: Arc::new(net),
        fibs,
        dataplane,
    };
    Ok((sim, state))
}

/// Control-plane-only simulation: model extraction and FIB computation
/// without the (comparatively expensive) exhaustive data-plane enumeration.
/// Verification uses [`simulate`]; the anonymization pipeline's fixpoint
/// loops, which only inspect FIBs and edit a few routers' filters per
/// round, hold a [`WarmControlPlane`] instead.
pub fn simulate_control_plane(configs: &NetworkConfigs) -> Result<(SimNetwork, Fibs), SimError> {
    let (net, fibs, _) = WarmControlPlane::new(configs)?.into_parts();
    Ok((net, fibs))
}
