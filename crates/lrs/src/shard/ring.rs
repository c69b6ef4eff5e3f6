//! Consistent-hash ring over LRS shards.
//!
//! Partitioning is keyed by the *pseudonym* string the proxy layers hand
//! the LRS — `det_enc(u, kUA)` for users — so the ring never sees (and
//! never needs) a cleartext identity, and rebalancing after a shard
//! add/remove moves only the keys whose arc changed hands (~K/N of
//! them), with no global re-keying of sibling shards.
//!
//! Each shard owns `vnodes` points on a 64-bit ring (virtual nodes
//! smooth the arc lengths); a key belongs to the shard owning the first
//! point at or clockwise-after the key's hash. The hash is FNV-1a
//! followed by a fixed avalanche mix — stable across processes and
//! platforms, which is what makes routing a pure function of the
//! pseudonym: any router instance, rebuilt at any time, maps the same
//! pseudonym to the same shard.

use std::collections::BTreeSet;

/// Default virtual nodes per shard: enough to keep the ±imbalance of an
/// 8-shard ring within a few percent (verified by the balance proptest).
pub const DEFAULT_VNODES: usize = 128;

/// 64-bit FNV-1a over `bytes` — the ring's stable, dependency-free key
/// hash. Not cryptographic, and deliberately so: inputs are already
/// pseudonyms, and routing must be a cheap pure function of them.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Final avalanche round (splitmix64's finalizer) over the FNV hash.
/// FNV-1a disperses short structured strings poorly in its high bits,
/// which makes vnode arc lengths badly skewed; one fixed multiply-xor
/// cascade restores uniformity without giving up determinism.
fn mix64(h: u64) -> u64 {
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping pseudonym keys to shard ids.
///
/// # Examples
///
/// ```
/// use pprox_lrs::shard::ring::HashRing;
///
/// let ring = HashRing::new(4, 64);
/// let owner = ring.owner("det-enc-pseudonym");
/// assert!(owner < 4);
/// // Routing is a pure function of the key: any rebuilt ring agrees.
/// assert_eq!(HashRing::new(4, 64).owner("det-enc-pseudonym"), owner);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs; ties broken by shard id so the
    /// layout is deterministic even under point collisions.
    points: Vec<(u64, usize)>,
    vnodes: usize,
    shards: BTreeSet<usize>,
}

impl HashRing {
    /// A ring over shard ids `0..shards` with `vnodes` points each.
    ///
    /// # Panics
    ///
    /// If `shards` or `vnodes` is zero.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        Self::with_shards(0..shards, vnodes)
    }

    /// A ring over an explicit shard-id set (ids need not be dense —
    /// a removed shard leaves a hole).
    ///
    /// # Panics
    ///
    /// If `ids` is empty or `vnodes` is zero.
    pub fn with_shards(ids: impl IntoIterator<Item = usize>, vnodes: usize) -> Self {
        assert!(vnodes > 0, "a shard needs at least one virtual node");
        let shards: BTreeSet<usize> = ids.into_iter().collect();
        assert!(!shards.is_empty(), "a ring needs at least one shard");
        let mut ring = HashRing {
            points: Vec::with_capacity(shards.len() * vnodes),
            vnodes,
            shards: BTreeSet::new(),
        };
        for id in shards {
            ring.add_shard(id);
        }
        ring
    }

    /// Shard ids currently on the ring, ascending.
    pub fn shard_ids(&self) -> Vec<usize> {
        self.shards.iter().copied().collect()
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards (never true for a built ring).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning `key`.
    ///
    /// # Panics
    ///
    /// If every shard has been removed.
    pub fn owner(&self, key: &str) -> usize {
        assert!(!self.points.is_empty(), "owner() on an empty ring");
        let h = mix64(fnv1a64(key.as_bytes()));
        // First point at or after the key hash, wrapping to the start.
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }

    /// Adds shard `id` (its virtual nodes claim their arcs; only keys on
    /// those arcs move). No-op if the shard is already present.
    pub fn add_shard(&mut self, id: usize) {
        if !self.shards.insert(id) {
            return;
        }
        for v in 0..self.vnodes {
            let point = mix64(fnv1a64(format!("shard/{id}/vnode/{v}").as_bytes()));
            let at = self.points.partition_point(|&(p, s)| (p, s) < (point, id));
            self.points.insert(at, (point, id));
        }
    }

    /// Removes shard `id`; its arcs fall to the clockwise successors.
    /// No-op if the shard is not present.
    pub fn remove_shard(&mut self, id: usize) {
        if self.shards.remove(&id) {
            self.points.retain(|&(_, s)| s != id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_deterministic_and_in_range() {
        let ring = HashRing::new(4, 32);
        for i in 0..200 {
            let key = format!("pseudonym-{i}");
            let owner = ring.owner(&key);
            assert!(owner < 4);
            assert_eq!(ring.owner(&key), owner);
        }
    }

    #[test]
    fn rebuilt_ring_routes_identically() {
        let a = HashRing::new(8, DEFAULT_VNODES);
        let b = HashRing::new(8, DEFAULT_VNODES);
        assert_eq!(a, b);
        for i in 0..100 {
            let key = format!("k{i}");
            assert_eq!(a.owner(&key), b.owner(&key));
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_keys() {
        let mut ring = HashRing::new(4, 64);
        let keys: Vec<String> = (0..500).map(|i| format!("key-{i}")).collect();
        let before: Vec<usize> = keys.iter().map(|k| ring.owner(k)).collect();
        ring.remove_shard(2);
        for (key, &owner_before) in keys.iter().zip(&before) {
            let owner_after = ring.owner(key);
            if owner_before != 2 {
                assert_eq!(owner_after, owner_before, "sibling key {key} moved");
            } else {
                assert_ne!(owner_after, 2);
            }
        }
    }

    #[test]
    fn add_then_remove_restores_the_layout() {
        let mut ring = HashRing::new(3, 64);
        let pristine = ring.clone();
        ring.add_shard(7);
        assert_ne!(ring, pristine);
        ring.remove_shard(7);
        assert_eq!(ring, pristine);
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1, 8);
        for i in 0..50 {
            assert_eq!(ring.owner(&format!("x{i}")), 0);
        }
    }

    #[test]
    fn sparse_ids_are_supported() {
        let ring = HashRing::with_shards([0, 2, 5], 16);
        assert_eq!(ring.shard_ids(), vec![0, 2, 5]);
        for i in 0..100 {
            assert!([0, 2, 5].contains(&ring.owner(&format!("k{i}"))));
        }
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
