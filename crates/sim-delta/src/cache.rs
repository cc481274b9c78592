//! Bounded, content-addressed cache of converged simulations.
//!
//! Keys are [`structural_hash`](crate::hash::structural_hash) values;
//! every hit additionally compares the stored [`NetworkConfigs`] for
//! equality, so a hash collision can never serve the wrong simulation —
//! it merely degrades to a miss. Eviction is least-recently-used over a
//! fixed capacity (converged simulations of large networks are big; the
//! pipeline only ever needs the handful of baselines it is currently
//! sweeping faults over).
//!
//! Larger caches are **sharded** (lock-striped) so that concurrent fault
//! sweep workers and serve jobs do not serialize on one LRU mutex: the
//! structural hash picks the shard, each shard runs its own LRU over its
//! slice of the capacity. Small caches (capacity < 8) keep a single shard
//! — exact global LRU semantics — because striping a 2-entry cache would
//! change which entry an eviction removes. The (potentially deep) configs
//! equality check of a hit runs *outside* the shard lock; only the map
//! probe and the recency bump are under it.

use crate::ConvergedSim;
use confmask_config::NetworkConfigs;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shard count for caches large enough to stripe.
const SHARDS: usize = 8;

/// A bounded LRU cache from structural hash to converged simulation.
pub struct SimCache {
    shards: Vec<Mutex<Shard>>,
}

struct Shard {
    map: HashMap<u128, Entry>,
    tick: u64,
    capacity: usize,
}

struct Entry {
    value: Arc<ConvergedSim>,
    last_used: u64,
}

impl SimCache {
    /// Creates a cache holding at most `capacity` simulations
    /// (a zero capacity is clamped to one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n = if capacity < SHARDS { 1 } else { SHARDS };
        let shards = (0..n)
            .map(|i| {
                // Distribute the capacity across shards, remainder to the
                // first ones, so the total bound is exactly `capacity`.
                let cap = capacity / n + usize::from(i < capacity % n);
                Mutex::new(Shard {
                    map: HashMap::new(),
                    tick: 0,
                    capacity: cap,
                })
            })
            .collect();
        SimCache { shards }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        let mix = (key as u64) ^ ((key >> 64) as u64);
        &self.shards[(mix as usize) % self.shards.len()]
    }

    /// Looks up a converged simulation, verifying the stored configs are
    /// actually equal to `configs` (collision safety). The equality check
    /// runs outside the shard lock; the candidate's recency is bumped on
    /// the probe (a colliding candidate gets a spurious bump — harmless,
    /// collisions only ever degrade to misses).
    pub fn get(&self, key: u128, configs: &NetworkConfigs) -> Option<Arc<ConvergedSim>> {
        let candidate = {
            let mut shard = self.shard(key).lock().expect("sim cache poisoned");
            shard.tick += 1;
            let tick = shard.tick;
            shard.map.get_mut(&key).map(|entry| {
                entry.last_used = tick;
                Arc::clone(&entry.value)
            })
        };
        match candidate {
            Some(hit) if hit.configs == *configs => {
                confmask_obs::counter_add("sim.cache.hits", 1);
                Some(hit)
            }
            _ => {
                confmask_obs::counter_add("sim.cache.misses", 1);
                None
            }
        }
    }

    /// Inserts a converged simulation, evicting the least-recently-used
    /// entry of its shard when that shard is at capacity.
    ///
    /// The evicted (or replaced) entry is dropped only after the shard
    /// lock is released: freeing the last reference to a large converged
    /// simulation takes milliseconds, and workers probing the shard must
    /// not wait behind it.
    pub fn insert(&self, value: Arc<ConvergedSim>) {
        let key = value.key;
        let (evicted, replaced) = {
            let mut shard = self.shard(key).lock().expect("sim cache poisoned");
            shard.tick += 1;
            let tick = shard.tick;
            let mut evicted = None;
            if !shard.map.contains_key(&key) && shard.map.len() >= shard.capacity {
                if let Some(oldest) = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                {
                    evicted = shard.map.remove(&oldest);
                    confmask_obs::counter_add("sim.cache.evictions", 1);
                }
            }
            let replaced = shard.map.insert(
                key,
                Entry {
                    value,
                    last_used: tick,
                },
            );
            (evicted, replaced)
        };
        drop((evicted, replaced));
        confmask_obs::gauge_set("sim.cache.entries", self.len() as f64);
    }

    /// Number of cached simulations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("sim cache poisoned").map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
