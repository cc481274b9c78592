//! Streaming fault sweeps: fold each scenario into a compact digest and
//! drop the full simulation immediately.
//!
//! A scenario's only product is a [`ScenarioDigest`] of tens of bytes —
//! class histogram, worst class, violated-pair bitmap, packed non-unchanged
//! classes. A digest's pair index `i` is the i-th entry of the baseline
//! [`DataPlane`](crate::DataPlane) it was classified against
//! (`entries()[i]`, names through `hosts()`); nothing else defines a pair
//! order, so a digest carries no strings. This is the map-reduce shape of
//! streamed model checking (Plankton, NSDI'20): workers classify
//! scenarios, and the caller's [`SweepReducer`] folds digests in scenario
//! order while the simulations behind them are already freed. No per-pair
//! map is ever built.
//!
//! The sweep driver is the warm incremental `ScenarioSweep` in
//! `confmask-sim-delta`. The cold loop, [`crate::fault::classify_failed`],
//! is both that driver's fallback and the oracle its digests are checked
//! against (`tests/delta_diff.rs`).

use crate::dataplane::PairBits;
use crate::error::SimError;
use crate::fault::DegradationClass;
use std::time::{Duration, Instant};

/// The compact, retainable result of one failure scenario: what a worker
/// keeps after the full simulation is dropped.
///
/// Layout: a degradation-class histogram over all baseline pairs, the
/// worst class reached, a violated-pair bitmap (bit `i` set iff baseline
/// pair `i` is not `Unchanged`), and the non-unchanged classes packed two
/// per byte in ascending pair order. Every pair's class is reconstructible
/// from these plus the baseline data plane the digest indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioDigest {
    /// Pair counts per class, indexed by [`DegradationClass::index`].
    pub histogram: [u32; DegradationClass::COUNT],
    /// The most severe class any pair reached.
    pub worst: DegradationClass,
    /// Bit `i` set iff baseline pair `i` degraded (class ≠ `Unchanged`).
    pub changed: PairBits,
    /// Non-unchanged classes, two nibbles per byte, ascending pair order.
    classes: Vec<u8>,
    /// Number of recorded non-unchanged classes (nibble count).
    changed_n: u32,
}

impl ScenarioDigest {
    /// An all-unchanged digest over `pairs` baseline pairs; callers fold
    /// classes in with [`ScenarioDigest::record`].
    pub fn new(pairs: usize) -> ScenarioDigest {
        ScenarioDigest {
            histogram: [0; DegradationClass::COUNT],
            worst: DegradationClass::Unchanged,
            changed: PairBits::new(pairs),
            classes: Vec::new(),
            changed_n: 0,
        }
    }

    /// Records the class of baseline pair `i`. Must be called once per pair
    /// in ascending pair order (the packed class stream is positional).
    pub fn record(&mut self, i: usize, class: DegradationClass) {
        self.histogram[class.index()] += 1;
        if class == DegradationClass::Unchanged {
            return;
        }
        self.changed.set(i);
        if class > self.worst {
            self.worst = class;
        }
        let nib = class.index() as u8;
        if self.changed_n.is_multiple_of(2) {
            self.classes.push(nib);
        } else {
            *self.classes.last_mut().expect("odd nibble has a byte") |= nib << 4;
        }
        self.changed_n += 1;
    }

    /// Records `n` more `Unchanged` pairs at once: what a caller that
    /// visits only the pairs a scenario may have changed credits for the
    /// rest. Unchanged pairs touch only the histogram, so this may come
    /// before, between or after [`ScenarioDigest::record`] calls.
    pub fn record_unchanged(&mut self, n: usize) {
        self.histogram[DegradationClass::Unchanged.index()] += n as u32;
    }

    /// Number of pairs the digest covers (the baseline's length).
    pub fn pairs(&self) -> usize {
        self.changed.len()
    }

    /// Number of degraded (non-`Unchanged`) pairs.
    pub fn changed_count(&self) -> usize {
        self.changed_n as usize
    }

    /// Whether every pair was unaffected.
    pub fn all_unchanged(&self) -> bool {
        self.changed_n == 0
    }

    /// Iterates `(pair_index, class)` for every degraded pair, in
    /// ascending pair order.
    pub fn changed_classes(&self) -> impl Iterator<Item = (usize, DegradationClass)> + '_ {
        self.changed.iter_ones().enumerate().map(|(k, i)| {
            let byte = self.classes[k / 2];
            let nib = if k % 2 == 0 { byte & 0x0F } else { byte >> 4 };
            let class = DegradationClass::from_index(nib as usize).expect("packed class in range");
            (i, class)
        })
    }

    /// Histogram entries with non-zero counts, least-severe-first.
    pub fn histogram_nonzero(&self) -> impl Iterator<Item = (DegradationClass, usize)> + '_ {
        DegradationClass::ALL
            .iter()
            .zip(self.histogram.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(c, &n)| (*c, n as usize))
    }

    /// Heap + inline bytes this digest retains — what a reducer holding it
    /// actually costs, and what the `sim.sweep.digest_bytes` gauge sums.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.changed.retained_bytes() + self.classes.capacity()
    }

    /// Canonical byte encoding (histogram, worst, pair count, bitmap
    /// words, packed classes — all little-endian). Two digests are equal
    /// iff their encodings are byte-equal; the differential gate in
    /// `tests/delta_diff.rs` asserts on this.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 * DegradationClass::COUNT + 1 + 8 + 8 * self.changed.words().len() + self.classes.len(),
        );
        for h in self.histogram {
            out.extend_from_slice(&h.to_le_bytes());
        }
        out.push(self.worst.index() as u8);
        out.extend_from_slice(&(self.changed.len() as u64).to_le_bytes());
        for w in self.changed.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.changed_n).to_le_bytes());
        out.extend_from_slice(&self.classes);
        out
    }
}

/// The consumer side of a streaming sweep: workers produce digests, the
/// driver delivers them here **in scenario order** (index `i` is the
/// scenario's position in the swept sequence), and the full simulation
/// state behind each digest is already dropped by the time `fold` runs.
pub trait SweepReducer {
    /// Folds the digest of scenario `i`.
    fn fold(&mut self, i: usize, digest: ScenarioDigest);

    /// Folds a scenario whose simulation failed.
    fn fold_err(&mut self, i: usize, error: SimError);
}

/// A reducer that keeps only aggregate statistics — the cheapest possible
/// consumer (O(1) memory regardless of sweep size), used by exhaustive
/// k = 2 enumeration and the frontier's compound-failure columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Scenarios folded successfully.
    pub scenarios: usize,
    /// Scenarios whose simulation failed.
    pub errors: usize,
    /// Total pair counts per class across all scenarios.
    pub pair_histogram: [u64; DegradationClass::COUNT],
    /// Per-scenario worst-class counts (`worst_histogram[0]` = scenarios
    /// where nothing degraded).
    pub worst_histogram: [u64; DegradationClass::COUNT],
}

impl SweepSummary {
    /// The most severe class any scenario reached.
    pub fn worst(&self) -> DegradationClass {
        (0..DegradationClass::COUNT)
            .rev()
            .find(|&i| self.worst_histogram[i] > 0)
            .and_then(DegradationClass::from_index)
            .unwrap_or(DegradationClass::Unchanged)
    }

    /// Fraction of swept scenarios (errors count as dirty) whose worst
    /// class is at most `max_class` — e.g. `clean_fraction(Rerouted)` is
    /// the share of failures under which all traffic still arrives.
    pub fn clean_fraction(&self, max_class: DegradationClass) -> f64 {
        let total = self.scenarios + self.errors;
        if total == 0 {
            return 1.0;
        }
        let clean: u64 = self.worst_histogram[..=max_class.index()].iter().sum();
        clean as f64 / total as f64
    }
}

impl SweepReducer for SweepSummary {
    fn fold(&mut self, _i: usize, digest: ScenarioDigest) {
        self.scenarios += 1;
        for (k, &h) in digest.histogram.iter().enumerate() {
            self.pair_histogram[k] += h as u64;
        }
        self.worst_histogram[digest.worst.index()] += 1;
    }

    fn fold_err(&mut self, _i: usize, _error: SimError) {
        self.errors += 1;
    }
}

/// A reducer that retains every digest, in scenario order — for callers
/// that post-process per-scenario results (equivalence comparison, the
/// differential gate). Retention is digests only: tens of bytes per
/// scenario, not a dataplane.
#[derive(Debug, Clone, Default)]
pub struct DigestList {
    /// One entry per swept scenario, in scenario order.
    pub results: Vec<Result<ScenarioDigest, SimError>>,
}

impl SweepReducer for DigestList {
    fn fold(&mut self, i: usize, digest: ScenarioDigest) {
        debug_assert_eq!(i, self.results.len(), "digests arrive in order");
        self.results.push(Ok(digest));
    }

    fn fold_err(&mut self, i: usize, error: SimError) {
        debug_assert_eq!(i, self.results.len(), "digests arrive in order");
        self.results.push(Err(error));
    }
}

/// Aggregate statistics of one streaming sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Scenarios folded successfully.
    pub scenarios: usize,
    /// Scenarios whose simulation failed.
    pub errors: usize,
    /// Peak bytes of digests live inside the streaming window at once —
    /// the sweep engine's retained-memory high-water mark.
    pub peak_digest_bytes: usize,
    /// Peak number of outcomes (digests) retained in the window at once.
    pub peak_retained: usize,
    /// Wall time of the sweep.
    pub wall: Duration,
}

/// `sim.sweep.*` instrumentation for the streaming driver in
/// `confmask-sim-delta`: scenario/error counters plus live- and
/// peak-memory gauges, updated per streaming window rather than per
/// scenario so metrics cost nothing on multi-thousand-scenario sweeps.
#[derive(Debug)]
pub struct SweepMeter {
    window: usize,
    live_bytes: usize,
    live_n: usize,
    peak_bytes: usize,
    peak_n: usize,
    scenarios: usize,
    errors: usize,
    pending_scenarios: u64,
    pending_errors: u64,
    started: Instant,
}

impl SweepMeter {
    /// A meter for a sweep whose streaming window holds `window` scenarios.
    pub fn new(window: usize) -> SweepMeter {
        SweepMeter {
            window: window.max(1),
            live_bytes: 0,
            live_n: 0,
            peak_bytes: 0,
            peak_n: 0,
            scenarios: 0,
            errors: 0,
            pending_scenarios: 0,
            pending_errors: 0,
            started: Instant::now(),
        }
    }

    fn roll_window(&mut self, i: usize) {
        if i.is_multiple_of(self.window) {
            self.flush();
            confmask_obs::gauge_set("sim.sweep.digest_bytes", self.live_bytes as f64);
            self.live_bytes = 0;
            self.live_n = 0;
        }
    }

    /// Publishes the counter deltas accumulated since the last window roll.
    fn flush(&mut self) {
        if self.pending_scenarios > 0 {
            confmask_obs::counter_add("sim.sweep.scenarios", self.pending_scenarios);
            self.pending_scenarios = 0;
        }
        if self.pending_errors > 0 {
            confmask_obs::counter_add("sim.sweep.errors", self.pending_errors);
            self.pending_errors = 0;
        }
    }

    /// Accounts a successful digest of `bytes` retained bytes at scenario
    /// index `i`.
    pub fn fold_ok(&mut self, i: usize, bytes: usize) {
        self.roll_window(i);
        self.scenarios += 1;
        self.pending_scenarios += 1;
        self.live_bytes += bytes;
        self.live_n += 1;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.peak_n = self.peak_n.max(self.live_n);
    }

    /// Accounts a failed scenario at index `i`.
    pub fn fold_err(&mut self, i: usize) {
        self.roll_window(i);
        self.errors += 1;
        self.pending_errors += 1;
    }

    /// Finishes the sweep: publishes the remaining counter deltas and the
    /// peak gauges, and returns the stats.
    pub fn finish(mut self) -> SweepStats {
        self.flush();
        confmask_obs::gauge_set("sim.sweep.digest_bytes", 0.0);
        confmask_obs::gauge_set("sim.sweep.peak_retained_outcomes", self.peak_n as f64);
        SweepStats {
            scenarios: self.scenarios,
            errors: self.errors,
            peak_digest_bytes: self.peak_bytes,
            peak_retained: self.peak_n,
            wall: self.started.elapsed(),
        }
    }
}

/// Registers every `sim.sweep.*` metric at zero (the register-at-zero
/// convention; called from `confmask-sim-delta`'s registration, which both
/// the CLI and the daemon invoke at startup).
pub fn register_metrics() {
    confmask_obs::counter_add("sim.sweep.scenarios", 0);
    confmask_obs::counter_add("sim.sweep.errors", 0);
    confmask_obs::gauge_set("sim.sweep.digest_bytes", 0.0);
    confmask_obs::gauge_set("sim.sweep.peak_retained_outcomes", 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{enumerate_single_link_failures, run_scenario};
    use crate::simulate;
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

    /// Triangle r1–r2–r3 (all OSPF), host on r1 and on r2.
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
    fn bulk_unchanged_credit_equals_per_pair_records() {
        let classes = [
            DegradationClass::Unchanged,
            DegradationClass::Rerouted,
            DegradationClass::Unchanged,
            DegradationClass::Partitioned,
            DegradationClass::Unchanged,
        ];
        let mut each = ScenarioDigest::new(classes.len());
        for (i, &class) in classes.iter().enumerate() {
            each.record(i, class);
        }
        let mut bulk = ScenarioDigest::new(classes.len());
        bulk.record_unchanged(1);
        bulk.record(1, DegradationClass::Rerouted);
        bulk.record(3, DegradationClass::Partitioned);
        bulk.record_unchanged(2);
        assert_eq!(bulk, each);
        assert_eq!(bulk.encode(), each.encode());
    }

    #[test]
    fn sweep_summary_aggregates() {
        let cfgs = triangle();
        let baseline = simulate(&cfgs).unwrap().dataplane;
        let mut unchanged = ScenarioDigest::new(baseline.len());
        for i in 0..baseline.len() {
            unchanged.record(i, DegradationClass::Unchanged);
        }
        let mut sum = SweepSummary::default();
        for (i, sc) in enumerate_single_link_failures(&cfgs).iter().enumerate() {
            let digest = run_scenario(&cfgs, &baseline, sc).unwrap();
            // Every baseline pair is classified exactly once.
            assert_eq!(
                digest.histogram.iter().map(|&n| n as usize).sum::<usize>(),
                baseline.len()
            );
            assert_eq!(digest.changed_count(), digest.changed.count_ones());
            assert_eq!(digest.all_unchanged(), digest.encode() == unchanged.encode());
            sum.fold(i, digest);
        }
        assert_eq!(sum.scenarios, 3);
        assert_eq!(sum.errors, 0);
        // r1–r2 down reroutes both directions; the other two links carry
        // no h1↔h2 baseline traffic.
        assert_eq!(sum.worst(), DegradationClass::Rerouted);
        assert_eq!(sum.worst_histogram[DegradationClass::Unchanged.index()], 2);
        assert_eq!(sum.worst_histogram[DegradationClass::Rerouted.index()], 1);
        assert_eq!(sum.clean_fraction(DegradationClass::Rerouted), 1.0);
        assert!(sum.clean_fraction(DegradationClass::Unchanged) < 1.0);
        // An errored scenario counts as dirty.
        let mut sum2 = sum.clone();
        sum2.fold_err(3, SimError::BadConfig("x".into()));
        assert!(sum2.clean_fraction(DegradationClass::Looping) < 1.0);
    }
}
