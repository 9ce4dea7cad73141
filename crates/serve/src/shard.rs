//! Shard membership and the in-process shard supervisor.
//!
//! Two pieces live here:
//!
//! - [`Topology`]: the shared, mutable view of the ring — which shard
//!   ids exist, which are alive, and where each one currently listens.
//!   The router reads it on every request ([`Topology::route`]) and
//!   writes it on every observed failure ([`Topology::mark_dead`]); the
//!   supervisor writes it on kill/restart. The consistent-hash
//!   [`Ring`] is rebuilt only when membership
//!   changes, so the hot routing path is a lock, a cached-ring lookup,
//!   and an address clone.
//! - [`ShardSet`]: a supervisor that runs N backend [`serve()`]
//!   instances in-process, all sharing **one cache directory** (the
//!   shared disk tier). Its [`kill`](ShardSet::kill) and
//!   [`restart`](ShardSet::restart) hooks are the fault-injection
//!   surface: tests and `repro route --chaos-kill` use them to take a
//!   shard down mid-run and bring it back. Because a shard's ring
//!   points are a function of its *id*, a restarted shard reclaims
//!   exactly the keys it owned before — and serves their repeats from
//!   the disk tier its peers (or its previous incarnation) populated.
//!
//! Stats across incarnations: killing a shard drops its
//! [`PersistentCache`](stencil_hmls::persist::PersistentCache) and the per-incarnation counters with it, so the
//! supervisor snapshots [`ServeStats`] into a lifetime accumulator at
//! kill time. [`ShardSet::lifetime_stats`] is therefore the number the
//! exactly-once assertions sum — it sees compilations that happened on
//! incarnations that are already gone.

use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use stencil_hmls::persist::ServeStats;

use crate::listener::lock;
use crate::router::Ring;
use crate::server::{serve, ServerConfig, ServerHandle};

/// One shard's entry in the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlot {
    /// Stable shard id — determines the ring points, survives restarts.
    pub id: usize,
    /// Current listen address, if the shard has ever joined.
    pub addr: Option<String>,
    /// Whether the shard is currently routable.
    pub alive: bool,
    /// Times the shard has been marked dead.
    pub deaths: u64,
}

#[derive(Debug, Default)]
struct TopologyState {
    slots: Vec<ShardSlot>,
    ring: Ring,
}

impl TopologyState {
    fn rebuild_ring(&mut self) {
        let alive: Vec<usize> = self
            .slots
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.id)
            .collect();
        self.ring = Ring::new(&alive);
    }
}

/// Shared, mutable ring membership. Cheap to clone behind an `Arc`;
/// every method takes `&self`.
#[derive(Debug, Default)]
pub struct Topology {
    state: Mutex<TopologyState>,
}

impl Topology {
    /// An empty topology (routes nothing until a shard joins).
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add or revive shard `id` at `addr`. A known id is marked alive
    /// at its new address (a restart); a new id grows the ring.
    pub fn join(&self, id: usize, addr: String) {
        let mut state = lock(&self.state);
        match state.slots.iter_mut().find(|s| s.id == id) {
            Some(slot) => {
                slot.addr = Some(addr);
                slot.alive = true;
            }
            None => state.slots.push(ShardSlot {
                id,
                addr: Some(addr),
                alive: true,
                deaths: 0,
            }),
        }
        state.rebuild_ring();
    }

    /// Mark shard `id` dead — but only if it still listens at `addr`.
    /// The address check makes stale failure reports harmless: a router
    /// worker that lost a request to the *old* incarnation cannot kill
    /// the restarted shard at its new address.
    pub fn mark_dead(&self, id: usize, addr: &str) {
        let mut state = lock(&self.state);
        if let Some(slot) = state
            .slots
            .iter_mut()
            .find(|s| s.id == id && s.alive && s.addr.as_deref() == Some(addr))
        {
            slot.alive = false;
            slot.deaths += 1;
            state.rebuild_ring();
        }
    }

    /// Route `key` on the live ring: `(shard id, address)`, or `None`
    /// when no shard is alive.
    pub fn route(&self, key: u64) -> Option<(usize, String)> {
        let state = lock(&self.state);
        let id = state.ring.route(key)?;
        let addr = state.slots.iter().find(|s| s.id == id)?.addr.clone()?;
        Some((id, addr))
    }

    /// Total shards ever joined (alive or dead).
    pub fn len(&self) -> usize {
        lock(&self.state).slots.len()
    }

    /// Whether no shard has ever joined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live shard ids, ascending.
    pub fn alive(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = lock(&self.state)
            .slots
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A point-in-time copy of every slot.
    pub fn snapshot(&self) -> Vec<ShardSlot> {
        lock(&self.state).slots.clone()
    }
}

/// Configuration for an in-process [`ShardSet`].
#[derive(Debug, Clone)]
pub struct ShardSetConfig {
    /// Number of shards to start (ids `0..shards`).
    pub shards: usize,
    /// The **shared** disk tier. `None` runs memory-only shards — then
    /// a restarted shard starts cold and peers cannot warm each other.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Cache capacity per shard ([`ServerConfig::capacity`]).
    pub capacity: usize,
}

impl Default for ShardSetConfig {
    fn default() -> Self {
        ShardSetConfig {
            shards: 3,
            cache_dir: None,
            workers_per_shard: 4,
            capacity: 64,
        }
    }
}

struct ShardProc {
    id: usize,
    handle: Option<ServerHandle>,
    /// Stats accumulated over incarnations that have been killed.
    retired: ServeStats,
}

/// Supervisor for N in-process shards sharing one disk tier.
///
/// Dropping the set shuts every live shard down. The [`Topology`] it
/// maintains outlives individual shards — hand a clone of it (via
/// [`ShardSet::topology`]) to [`start_router`](crate::router::start_router).
pub struct ShardSet {
    config: ShardSetConfig,
    topology: std::sync::Arc<Topology>,
    procs: Mutex<Vec<ShardProc>>,
}

impl ShardSet {
    /// Start `config.shards` backend servers on free ports, join them
    /// all into a fresh topology, and return the supervisor.
    pub fn start(config: ShardSetConfig) -> io::Result<ShardSet> {
        let topology = std::sync::Arc::new(Topology::new());
        let mut procs = Vec::with_capacity(config.shards);
        for id in 0..config.shards.max(1) {
            let handle = serve(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: config.workers_per_shard,
                cache_dir: config.cache_dir.clone(),
                capacity: config.capacity,
            })?;
            topology.join(id, handle.local_addr().to_string());
            procs.push(ShardProc {
                id,
                handle: Some(handle),
                retired: ServeStats::default(),
            });
        }
        Ok(ShardSet {
            config,
            topology,
            procs: Mutex::new(procs),
        })
    }

    /// The shared topology, for wiring up a router.
    pub fn topology(&self) -> std::sync::Arc<Topology> {
        std::sync::Arc::clone(&self.topology)
    }

    /// Live shard ids, ascending.
    pub fn alive(&self) -> Vec<usize> {
        self.topology.alive()
    }

    /// Kill shard `id`: remove it from the ring first (so no new
    /// requests route to it), then shut the server down — in-flight
    /// requests drain before the worker threads join, and any design
    /// they compiled is already persisted to the shared disk tier.
    /// Returns `false` if the shard is unknown or already dead.
    pub fn kill(&self, id: usize) -> bool {
        let mut procs = lock(&self.procs);
        let Some(proc_) = procs.iter_mut().find(|p| p.id == id) else {
            return false;
        };
        let Some(handle) = proc_.handle.take() else {
            return false;
        };
        self.topology
            .mark_dead(id, &handle.local_addr().to_string());
        // Snapshot stats only AFTER shutdown has drained the in-flight
        // requests — a compile finishing during the drain must land in
        // the lifetime accumulator, or the ring-wide exactly-once sum
        // undercounts.
        let cache = std::sync::Arc::clone(handle.cache());
        handle.shutdown();
        proc_.retired.absorb(&cache.stats());
        true
    }

    /// Restart shard `id` on a fresh port, rejoining the ring. Its ring
    /// points depend only on the id, so it reclaims the key ranges it
    /// owned before — and warms them from the shared disk tier.
    /// Returns `false` if the shard is unknown or still alive.
    pub fn restart(&self, id: usize) -> io::Result<bool> {
        let mut procs = lock(&self.procs);
        let Some(proc_) = procs.iter_mut().find(|p| p.id == id) else {
            return Ok(false);
        };
        if proc_.handle.is_some() {
            return Ok(false);
        }
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: self.config.workers_per_shard,
            cache_dir: self.config.cache_dir.clone(),
            capacity: self.config.capacity,
        })?;
        self.topology.join(id, handle.local_addr().to_string());
        proc_.handle = Some(handle);
        Ok(true)
    }

    /// Current-incarnation cache stats for shard `id` (`None` while
    /// dead).
    pub fn stats(&self, id: usize) -> Option<ServeStats> {
        let procs = lock(&self.procs);
        procs
            .iter()
            .find(|p| p.id == id)?
            .handle
            .as_ref()
            .map(|h| h.cache().stats())
    }

    /// Stats for shard `id` summed across every incarnation, including
    /// killed ones. This is the series the ring-wide exactly-once
    /// assertion sums: `Σ lifetime misses == unique keys compiled`.
    pub fn lifetime_stats(&self, id: usize) -> Option<ServeStats> {
        let procs = lock(&self.procs);
        let proc_ = procs.iter().find(|p| p.id == id)?;
        let mut total = proc_.retired;
        if let Some(handle) = &proc_.handle {
            total.absorb(&handle.cache().stats());
        }
        Some(total)
    }

    /// Ring-wide lifetime stats, summed over all shards.
    pub fn total_lifetime_stats(&self) -> ServeStats {
        let procs = lock(&self.procs);
        let mut total = ServeStats::default();
        for proc_ in procs.iter() {
            total.absorb(&proc_.retired);
            if let Some(handle) = &proc_.handle {
                total.absorb(&handle.cache().stats());
            }
        }
        total
    }

    /// Shut every live shard down.
    pub fn shutdown(self) {
        // Drop handles the joins.
    }
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        let mut procs = lock(&self.procs);
        for proc_ in procs.iter_mut() {
            if let Some(handle) = proc_.handle.take() {
                self.topology
                    .mark_dead(proc_.id, &handle.local_addr().to_string());
                handle.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_join_route_and_death() {
        let topology = Topology::new();
        assert!(topology.route(42).is_none());
        topology.join(0, "127.0.0.1:9000".to_string());
        topology.join(1, "127.0.0.1:9001".to_string());
        assert_eq!(topology.alive(), vec![0, 1]);

        let (id, addr) = topology.route(42).unwrap();
        assert!(id < 2);
        assert!(addr.starts_with("127.0.0.1:900"));

        // Death removes the shard from routing.
        let victim_addr = format!("127.0.0.1:900{id}");
        topology.mark_dead(id, &victim_addr);
        assert_eq!(topology.alive().len(), 1);
        let (survivor, _) = topology.route(42).unwrap();
        assert_ne!(survivor, id);

        // A rejoin at a new address revives the shard...
        topology.join(id, "127.0.0.1:9100".to_string());
        assert_eq!(topology.alive(), vec![0, 1]);
        // ...and a stale failure report against the old address is
        // ignored.
        topology.mark_dead(id, &victim_addr);
        assert_eq!(topology.alive(), vec![0, 1]);
        let snapshot = topology.snapshot();
        let slot = snapshot.iter().find(|s| s.id == id).unwrap();
        assert_eq!(slot.deaths, 1);
        assert_eq!(slot.addr.as_deref(), Some("127.0.0.1:9100"));
    }

    #[test]
    fn a_poisoned_topology_still_routes() {
        // `route` runs once per forwarded frame: a router worker that
        // panicked holding the lock must not stop every other worker.
        let topology = Topology::new();
        topology.join(0, "127.0.0.1:9000".to_string());
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = topology.state.lock().unwrap();
                panic!("poison the topology");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(topology.state.is_poisoned());
        assert_eq!(topology.route(42), Some((0, "127.0.0.1:9000".to_string())));
        topology.join(1, "127.0.0.1:9001".to_string());
        topology.mark_dead(0, "127.0.0.1:9000");
        assert_eq!(topology.alive(), vec![1]);
        assert_eq!(topology.route(42).unwrap().0, 1);
    }

    #[test]
    fn restarted_shard_reclaims_its_keys() {
        let topology = Topology::new();
        for id in 0..3 {
            topology.join(id, format!("127.0.0.1:700{id}"));
        }
        let keys: Vec<u64> = (0..256u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let before: Vec<usize> = keys.iter().map(|&k| topology.route(k).unwrap().0).collect();
        topology.mark_dead(1, "127.0.0.1:7001");
        topology.join(1, "127.0.0.1:7101".to_string());
        let after: Vec<usize> = keys.iter().map(|&k| topology.route(k).unwrap().0).collect();
        // Same id => same ring points => identical ownership.
        assert_eq!(before, after);
    }

    #[test]
    fn shard_set_kill_restart_and_lifetime_stats() {
        let set = ShardSet::start(ShardSetConfig {
            shards: 3,
            cache_dir: None,
            workers_per_shard: 1,
            capacity: 8,
        })
        .expect("shard set starts");
        assert_eq!(set.alive(), vec![0, 1, 2]);
        assert!(set.stats(1).is_some());

        assert!(set.kill(1), "first kill succeeds");
        assert!(!set.kill(1), "second kill is a no-op");
        assert_eq!(set.alive(), vec![0, 2]);
        assert!(set.stats(1).is_none());
        // Lifetime stats survive the kill (all-zero here, but present).
        assert!(set.lifetime_stats(1).is_some());

        assert!(set.restart(1).expect("restart io"), "restart succeeds");
        assert!(
            !set.restart(1).expect("restart io"),
            "restart of a live shard is a no-op"
        );
        assert_eq!(set.alive(), vec![0, 1, 2]);
        assert!(set.stats(1).is_some());
        set.shutdown();
    }
}
