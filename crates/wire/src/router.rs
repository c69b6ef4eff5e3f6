//! Per-pseudonym shard routing: the LRS tier's only router.
//!
//! The IA (`services::ia`) asks [`ShardRouter::route`] for each event's
//! owner shard and each read's history shard; `shard_report` partitions
//! its trace with [`ShardRouter::owner`], so the benchmark splits load
//! exactly as the chain does. [`ShardRouter`] wraps the lrs crate's
//! consistent-hash ring ([`pprox_lrs::shard::HashRing`]) with the wire
//! tier's conventions: shard id == [`crate::balancer::SocketBalancer`]
//! slot index, so the supervisor's `replace_backend` readmission needs
//! no ring surgery — a respawned shard re-enters under its old id and
//! the key→shard map is untouched (no re-keying of siblings).
//!
//! Routing is keyed *only* by the pseudonym string the IA enclave
//! already emits: `owner(det_enc(u))` is a pure function of the
//! pseudonym, so the shard label an adversary observes is a
//! deterministic function of data it is already allowed to see under
//! §6 — no new linkage signal. A label that is a function of the
//! request on the departure side only gives the wire estimator nothing
//! to join on (`attack::wire_audit`'s
//! `shard_labels_by_request_hash_add_nothing` scores it equal to the
//! unlabelled trace; routing by arrival order is flagged).
//!
//! The router also keeps per-shard request-count aggregates. Those are
//! the *only* routing statistics the scrape surface may export: counts,
//! never keys.

use pprox_lrs::shard::HashRing;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maps pseudonyms to LRS balancer slots and counts per-shard routes.
#[derive(Debug)]
pub struct ShardRouter {
    ring: HashRing,
    routed: Vec<AtomicU64>,
}

impl ShardRouter {
    /// A router over balancer slots `0..num_shards` with `vnodes`
    /// virtual nodes per shard.
    ///
    /// # Panics
    ///
    /// If `num_shards` or `vnodes` is zero.
    pub fn new(num_shards: usize, vnodes: usize) -> Self {
        ShardRouter {
            ring: HashRing::new(num_shards, vnodes),
            routed: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.routed.len()
    }

    /// The balancer slot owning `pseudonym`, counted into the per-shard
    /// aggregates.
    pub fn route(&self, pseudonym: &str) -> usize {
        let owner = self.ring.owner(pseudonym);
        self.routed[owner].fetch_add(1, Ordering::Relaxed);
        owner
    }

    /// The balancer slot owning `pseudonym`, without counting (pure
    /// lookup: `shard_report` partitions its trace by it).
    pub fn owner(&self, pseudonym: &str) -> usize {
        self.ring.owner(pseudonym)
    }

    /// Per-shard routed-request counts (aggregates only).
    pub fn route_counts(&self) -> Vec<u64> {
        self.routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_counted() {
        let router = ShardRouter::new(4, 32);
        let a = router.route("pseudonym-a");
        assert_eq!(router.route("pseudonym-a"), a);
        assert_eq!(router.owner("pseudonym-a"), a);
        let counts = router.route_counts();
        assert_eq!(counts.iter().sum::<u64>(), 2);
        assert_eq!(counts[a], 2);
    }

    #[test]
    fn rebuilt_router_agrees_with_the_lrs_ring() {
        let router = ShardRouter::new(8, 64);
        let ring = HashRing::new(8, 64);
        for i in 0..200 {
            let key = format!("k{i}");
            assert_eq!(router.owner(&key), ring.owner(&key));
        }
    }
}
