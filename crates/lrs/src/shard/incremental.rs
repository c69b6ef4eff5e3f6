//! Incremental CCO training: per-event indicator/co-occurrence updates.
//!
//! The batch trainer ([`crate::cco::CcoTrainer`]) recounts every pair on
//! every retrain — the Spark-job shape the paper inherits from Harness.
//! At million-user scale that batch is the freshness bottleneck: an
//! association posted right after a retrain is invisible until the next
//! one. This module keeps the *same* count structures the batch job
//! would build (per-user deduplicated/downsampled sets, per-item user
//! counts, pairwise co-occurrence counts) and folds each accepted event
//! into them online, then repairs only the indicator lists the event
//! touched — the incremental item-similarity update of Zhao et al.
//! (scalable item-based top-N, PAPERS.md).
//!
//! ## Exactness invariants
//!
//! * **Counts are always exact.** After any event prefix, user sets,
//!   item counts, co-occurrence counts and interaction totals are
//!   byte-identical to what a batch pass over the same prefix would
//!   count (the acceptance rule is the batch rule, applied online).
//! * **Touched lists are fresh.** Every pair whose `k11` changed is
//!   re-scored immediately and repositioned in both items' top-K lists,
//!   so a new association is queryable as soon as its post returns.
//! * **Untouched lists may drift.** A pair only one of whose marginals
//!   changed (`k12`/`k21`/`k22` via another item's count or a new user)
//!   keeps its last LLR until its item is next touched or [`sync`]
//!   runs. [`sync`](IncrementalCco::sync) recomputes every list from
//!   the exact counts, after which recommendations are byte-identical
//!   to a batch retrain over the same events (the differential test in
//!   `tests/shard_differential.rs` holds this line).

use crate::cco::CcoConfig;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Interned item id (the catalog is bounded — ~100k items — while users
/// are not, so only items are interned).
pub type ItemId = u32;

/// Hasher for the maps keyed by [`ItemId`]: one multiply and a fold.
/// The ids are the model's own dense integers, handed out in arrival
/// order, so nobody outside chooses which keys share a row and the
/// std hasher's HashDoS protection buys nothing here. The maps keyed by
/// strings from outside (`ids`, the engine's `users`) keep it.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Not on any path: `ItemId` keys hash through `write_u32`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(self.0 as u32 ^ u32::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        // The table takes its bucket from the low bits and its tag from
        // the top seven: fold the well-mixed high half down.
        let h = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// One item's co-occurrence row: neighbour → pair count in the low 31
/// bits, and in the top bit whether the neighbour is currently in *this*
/// item's indicator list. Counts are symmetric (`cooc[a][b]` and
/// `cooc[b][a]` agree), the flag is not. It lives here because every
/// event that re-scores a pair has just touched this entry, so
/// membership costs no list scan.
type Row = HashMap<ItemId, u32, BuildHasherDefault<IdHasher>>;

const LISTED: u32 = 1 << 31;

/// Counts one more co-occurrence of the row's item with `other`;
/// returns the new pair count and whether `other` is listed.
fn bump(row: &mut Row, other: ItemId) -> (u64, bool) {
    let v = row.entry(other).or_insert(0);
    *v += 1;
    (u64::from(*v & !LISTED), *v & LISTED != 0)
}

/// `k·ln k` with the `0 ln 0 = 0` convention, on a count.
fn x_log_x(k: u64) -> f64 {
    if k == 0 {
        0.0
    } else {
        k as f64 * (k as f64).ln()
    }
}

/// [`crate::cco::log_likelihood_ratio`] with `x·ln x` read from a table.
///
/// Every argument of the nine `x_log_x` calls in one LLR is an integer
/// no larger than the user count, so the table holds `x_log_x(k)` for
/// `k = 0..=num_users` and an LLR is nine loads. The expression and the
/// order of its additions are the free function's, so the result has
/// the same bits (held by a property test below); the free function
/// stays the reference.
#[derive(Debug, Default)]
struct LlrTable(Vec<f64>);

impl LlrTable {
    /// Extends the table to cover counts up to `max`.
    fn grow(&mut self, max: u64) {
        let have = self.0.len() as u64;
        self.0.extend((have..=max).map(x_log_x));
    }

    fn x_log_x(&self, k: u64) -> f64 {
        let entry = self.0.get(k as usize).copied();
        entry.unwrap_or_else(|| x_log_x(k))
    }

    fn llr(&self, k11: u64, k12: u64, k21: u64, k22: u64) -> f64 {
        let x = |k| self.x_log_x(k);
        let total = x(k11 + k12 + k21 + k22);
        let row_entropy = total - (x(k11 + k12) + x(k21 + k22));
        let column_entropy = total - (x(k11 + k21) + x(k12 + k22));
        let matrix_entropy = total - (((x(k11) + x(k12)) + x(k21)) + x(k22));
        if row_entropy + column_entropy < matrix_entropy {
            return 0.0;
        }
        2.0 * (row_entropy + column_entropy - matrix_entropy)
    }
}

/// Per-thread scoring scratch, indexed by [`ItemId`]: accumulated score
/// and seen/blocked flags for every item, plus the ids a query touched,
/// which is what it clears on the way out. Kept per thread, not
/// allocated per call: a scattered query scores on every shard, and
/// catalogue-length allocations on each of those calls are what its
/// tail latency would be made of.
#[derive(Default)]
struct Scratch {
    score: Vec<f64>,
    flags: Vec<u8>,
    touched: Vec<ItemId>,
}

const SCORED: u8 = 1;
const BLOCKED: u8 = 2;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Aggregate counters of one incremental model, for gauges and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Accepted interactions (after dedup/downsampling) — the batch
    /// trainer's `num_interactions`.
    pub interactions: u64,
    /// Distinct items with at least one accepted interaction.
    pub items: u64,
    /// Items whose indicator lists may have drifted since the last
    /// [`IncrementalCco::sync`] (the ingest-backlog depth gauge).
    pub dirty: u64,
    /// Microseconds the most recent accepted event spent updating the
    /// index — the ingest lag between a post and its queryability.
    pub last_apply_us: u64,
}

/// An incrementally-trained CCO model plus its inverted scoring index.
///
/// Owns the item-side state only; the caller owns per-user sets (they
/// live with the user record) and passes them in, which keeps one map
/// of users instead of two at million-user scale.
pub struct IncrementalCco {
    config: CcoConfig,
    names: Vec<String>,
    ids: HashMap<String, ItemId>,
    /// Users per item (over deduplicated sets) — `k11 + k12` marginal.
    item_count: Vec<u64>,
    /// Co-occurrence counts and list membership, one [`Row`] per item.
    cooc: Vec<Row>,
    /// Per target item: its top-K indicators, ordered (LLR desc, item
    /// name asc) — the same total order the batch trainer sorts by.
    indicators: Vec<Vec<(ItemId, f64)>>,
    /// Inverted index: `postings[h]` lists `(target, llr)` for every
    /// target whose indicator list contains `h`, in no particular order
    /// (a target appears once per posting list, so a score's additions
    /// are ordered by the history alone).
    postings: Vec<Vec<(ItemId, f64)>>,
    llr: LlrTable,
    items_seen: u64,
    interactions: u64,
    /// Per item: touched since the last [`sync`](Self::sync).
    dirty: Vec<bool>,
    dirty_count: u64,
    last_apply_us: u64,
}

impl std::fmt::Debug for IncrementalCco {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalCco")
            .field("items", &self.items_seen)
            .field("interactions", &self.interactions)
            .field("dirty", &self.dirty_count)
            .finish()
    }
}

impl IncrementalCco {
    /// An empty model with the given CCO limits.
    pub fn new(config: CcoConfig) -> Self {
        IncrementalCco {
            config,
            names: Vec::new(),
            ids: HashMap::new(),
            item_count: Vec::new(),
            cooc: Vec::new(),
            indicators: Vec::new(),
            postings: Vec::new(),
            llr: LlrTable::default(),
            items_seen: 0,
            interactions: 0,
            dirty: Vec::new(),
            dirty_count: 0,
            last_apply_us: 0,
        }
    }

    /// The model's CCO limits.
    pub fn config(&self) -> &CcoConfig {
        &self.config
    }

    /// Interns `name`, growing every per-item table in step.
    pub fn intern(&mut self, name: &str) -> ItemId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as ItemId;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        self.item_count.push(0);
        self.cooc.push(Row::default());
        self.indicators.push(Vec::new());
        self.postings.push(Vec::new());
        self.dirty.push(false);
        id
    }

    /// The id of an already-interned item.
    pub fn lookup(&self, name: &str) -> Option<ItemId> {
        self.ids.get(name).copied()
    }

    /// The name of an interned item.
    ///
    /// # Panics
    ///
    /// If `id` was not returned by [`intern`](Self::intern).
    pub fn name(&self, id: ItemId) -> &str {
        &self.names[id as usize]
    }

    /// Applies one interaction: item `item` joins the caller's per-user
    /// `set` under the batch acceptance rule (reject when the set is at
    /// `max_prefs_per_user` or already contains the item), and every
    /// touched pair is re-scored into both top-K lists. `num_users` must
    /// count the user owning `set` (it is the `k22` marginal).
    ///
    /// Returns whether the interaction was accepted.
    pub fn add_to_set(&mut self, set: &mut Vec<ItemId>, item: ItemId, num_users: u64) -> bool {
        if set.len() >= self.config.max_prefs_per_user || set.contains(&item) {
            return false;
        }
        let started = Instant::now();
        set.push(item);
        self.interactions += 1;
        self.item_count[item as usize] += 1;
        if self.item_count[item as usize] == 1 {
            self.items_seen += 1;
        }
        // A pair's count never exceeds either item's, so this keeps the
        // flag bit of every row entry clear of the count.
        assert!(
            self.item_count[item as usize] < u64::from(LISTED),
            "item count overflows the co-occurrence rows"
        );
        self.llr.grow(num_users);
        self.mark_dirty(item);
        // Count and re-score every pair the event touched. `set` ends
        // with `item` itself; skip it.
        for &other in &set[..set.len() - 1] {
            let (k11, other_listed) = bump(&mut self.cooc[item as usize], other);
            let (_, item_listed) = bump(&mut self.cooc[other as usize], item);
            let llr = self.pair_llr(item, other, k11, num_users);
            self.upsert_indicator(item, other, llr, other_listed);
            self.upsert_indicator(other, item, llr, item_listed);
            self.mark_dirty(other);
        }
        self.last_apply_us = started.elapsed().as_micros() as u64;
        true
    }

    fn mark_dirty(&mut self, item: ItemId) {
        let dirty = &mut self.dirty[item as usize];
        self.dirty_count += u64::from(!*dirty);
        *dirty = true;
    }

    /// Dunning LLR of the `(a, b)` pair, which co-occurred `k11` times,
    /// from the current exact counts.
    ///
    /// The pair is canonicalized by item name before building the
    /// contingency table: the batch trainer computes each pair once
    /// with the lexicographically smaller item in the row role, and the
    /// entropy sums are order-sensitive in the last ulps — transposing
    /// the table gives a mathematically equal but not bit-equal f64.
    fn pair_llr(&self, a: ItemId, b: ItemId, k11: u64, num_users: u64) -> f64 {
        let (a, b) = if self.names[a as usize] <= self.names[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        let count_a = self.item_count[a as usize];
        let count_b = self.item_count[b as usize];
        let k12 = count_a - k11;
        let k21 = count_b - k11;
        let k22 = num_users.saturating_sub(count_a + count_b - k11);
        self.llr.llr(k11, k12, k21, k22)
    }

    /// `true` when `(llr_x, name_x)` sorts before `(llr_y, name_y)` in
    /// indicator order: LLR descending, item name ascending — the batch
    /// trainer's exact comparator.
    fn precedes(&self, x: (ItemId, f64), y: (ItemId, f64)) -> bool {
        by_strength(&self.names, x, y) == std::cmp::Ordering::Less
    }

    /// Repositions indicator `ind` in `target`'s top-K list at strength
    /// `llr`, mirroring the change into the inverted postings. Below
    /// `min_llr` (or evicted by a stronger K-th entry) the indicator is
    /// removed instead. `listed` is the pair's membership flag, read by
    /// the caller from the row entry it just counted in: a candidate
    /// that is not listed and does not beat a full list's last entry —
    /// five calls in six on a grown catalogue — is turned away here
    /// without looking at the rest of the list.
    fn upsert_indicator(&mut self, target: ItemId, ind: ItemId, llr: f64, listed: bool) {
        if llr < self.config.min_llr {
            if listed {
                self.indicators[target as usize].retain(|&(i, _)| i != ind);
                self.unlist(target, ind);
            }
            return;
        }
        let entry = (ind, llr);
        if listed {
            let list = &mut self.indicators[target as usize];
            let at = list.iter().position(|&(i, _)| i == ind);
            list.remove(at.expect("a listed indicator is in the list"));
            let posts = &mut self.postings[ind as usize];
            let slot = posts.iter_mut().find(|(t, _)| *t == target);
            slot.expect("a listed indicator has a posting").1 = llr;
        } else {
            let list = &self.indicators[target as usize];
            if list.len() >= self.config.max_indicators_per_item {
                // Full list: the candidate must beat the current weakest.
                let Some(&weakest) = list.last() else {
                    return;
                };
                if !self.precedes(entry, weakest) {
                    return;
                }
                self.indicators[target as usize].pop();
                self.unlist(target, weakest.0);
            }
            // A pair that was not listed has no posting to look for.
            self.postings[ind as usize].push((target, llr));
            *self.row_entry(target, ind) |= LISTED;
        }
        let list = &self.indicators[target as usize];
        let at = list.partition_point(|&e| self.precedes(e, entry));
        self.indicators[target as usize].insert(at, entry);
    }

    /// Drops the posting and the membership flag of an indicator that
    /// has just left `target`'s list.
    fn unlist(&mut self, target: ItemId, ind: ItemId) {
        let posts = &mut self.postings[ind as usize];
        let at = posts.iter().position(|&(t, _)| t == target);
        posts.swap_remove(at.expect("a listed indicator has a posting"));
        *self.row_entry(target, ind) &= !LISTED;
    }

    /// The row entry carrying "`ind` is in `target`'s list".
    fn row_entry(&mut self, target: ItemId, ind: ItemId) -> &mut u32 {
        self.cooc[target as usize]
            .get_mut(&ind)
            .expect("a scored pair has co-occurred")
    }

    /// Accumulates indicator strengths over `history` (in order, one
    /// contribution per `(history item, target)` pair — the same
    /// arithmetic, in the same order, as
    /// [`crate::index::ScoringIndex::recommend_filtered`]), drops what is
    /// in the history or in `exclude`, and returns the `n` strongest
    /// targets, score descending, item name ascending.
    ///
    /// Scores fold into the thread's [`Scratch`] rather than a map:
    /// only the touched targets are read back, selected down to `n`
    /// and then sorted — names are distinct, so the order is total and
    /// selecting first cannot change which `n` win or how they rank.
    pub fn top_n(&self, history: &[ItemId], exclude: &[ItemId], n: usize) -> Vec<(ItemId, f64)> {
        let mut scored: Vec<(ItemId, f64)> = SCRATCH.with(|scratch| {
            let Scratch {
                score,
                flags,
                touched,
            } = &mut *scratch.borrow_mut();
            if score.len() < self.names.len() {
                score.resize(self.names.len(), 0.0);
                flags.resize(self.names.len(), 0);
            }
            for &h in history {
                let Some(posts) = self.postings.get(h as usize) else {
                    continue;
                };
                for &(target, llr) in posts {
                    if flags[target as usize] & SCORED == 0 {
                        flags[target as usize] |= SCORED;
                        touched.push(target);
                    }
                    score[target as usize] += llr;
                }
            }
            let blocked = || history.iter().chain(exclude).map(|&b| b as usize);
            for b in blocked() {
                if let Some(f) = flags.get_mut(b) {
                    *f |= BLOCKED;
                }
            }
            let scored = touched
                .iter()
                .filter(|&&t| flags[t as usize] & BLOCKED == 0)
                .map(|&t| (t, score[t as usize]))
                .collect();
            for t in touched.drain(..) {
                score[t as usize] = 0.0;
                flags[t as usize] = 0;
            }
            for b in blocked() {
                if let Some(f) = flags.get_mut(b) {
                    *f = 0;
                }
            }
            scored
        });
        keep_strongest(&self.names, &mut scored, n);
        scored
    }

    /// Full exact repair: recomputes every indicator list from the
    /// (always-exact) counts and rebuilds the inverted index. After
    /// `sync`, recommendations are byte-identical to a batch retrain
    /// over the same events. Cost is proportional to the number of
    /// distinct co-occurring pairs.
    pub fn sync(&mut self, num_users: u64) {
        self.llr.grow(num_users);
        for posts in &mut self.postings {
            posts.clear();
        }
        let mut candidates: Vec<(ItemId, f64)> = Vec::new();
        for a in 0..self.names.len() {
            candidates.clear();
            candidates.extend(
                self.cooc[a]
                    .iter()
                    .map(|(&b, &v)| {
                        let k11 = u64::from(v & !LISTED);
                        (b, self.pair_llr(a as ItemId, b, k11, num_users))
                    })
                    .filter(|&(_, llr)| llr >= self.config.min_llr),
            );
            keep_strongest(
                &self.names,
                &mut candidates,
                self.config.max_indicators_per_item,
            );
            let row = &mut self.cooc[a];
            for v in row.values_mut() {
                *v &= !LISTED;
            }
            for (ind, _) in &candidates {
                *row.get_mut(ind).expect("candidates come from the row") |= LISTED;
            }
            // A fresh allocation of the kept entries only: the list must
            // not keep the capacity of every co-occurring neighbour.
            self.indicators[a] = candidates.as_slice().into();
        }
        for a in 0..self.names.len() as ItemId {
            for &(ind, llr) in &self.indicators[a as usize] {
                self.postings[ind as usize].push((a, llr));
            }
        }
        self.dirty.fill(false);
        self.dirty_count = 0;
    }

    /// The current indicator list of `name`, strongest first, as
    /// `(item name, llr)` pairs. Empty for unknown items.
    pub fn indicators_of(&self, name: &str) -> Vec<(String, f64)> {
        let Some(id) = self.lookup(name) else {
            return Vec::new();
        };
        self.indicators[id as usize]
            .iter()
            .map(|&(i, llr)| (self.names[i as usize].clone(), llr))
            .collect()
    }

    /// Aggregate counters for gauges and reports.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            interactions: self.interactions,
            items: self.items_seen,
            dirty: self.dirty_count,
            last_apply_us: self.last_apply_us,
        }
    }
}

/// The order of indicator lists and of result lists alike: strength
/// descending, item name ascending — the batch trainer's and
/// [`crate::index::ScoringIndex`]'s comparator. Total, because names
/// are distinct.
fn by_strength(names: &[String], x: (ItemId, f64), y: (ItemId, f64)) -> std::cmp::Ordering {
    y.1.partial_cmp(&x.1)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| names[x.0 as usize].cmp(&names[y.0 as usize]))
}

/// Cuts `entries` down to its `n` first under [`by_strength`], sorted.
fn keep_strongest(names: &[String], entries: &mut Vec<(ItemId, f64)>, n: usize) {
    if n == 0 {
        entries.clear();
    } else if entries.len() > n {
        entries.select_nth_unstable_by(n - 1, |&x, &y| by_strength(names, x, y));
        entries.truncate(n);
    }
    entries.sort_unstable_by(|&x, &y| by_strength(names, x, y));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cco::log_likelihood_ratio;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn model() -> IncrementalCco {
        IncrementalCco::new(CcoConfig {
            min_llr: 0.5,
            ..CcoConfig::default()
        })
    }

    /// Drives `(user, item)` events through per-user sets the way the
    /// shard engine does.
    fn drive(m: &mut IncrementalCco, events: &[(&str, &str)]) {
        let mut users: HashMap<String, Vec<ItemId>> = HashMap::new();
        for &(u, i) in events {
            let id = m.intern(i);
            let is_new = !users.contains_key(u);
            let num_users = users.len() as u64 + is_new as u64;
            let set = users.entry(u.to_owned()).or_default();
            m.add_to_set(set, id, num_users);
        }
    }

    fn clustered() -> Vec<(&'static str, &'static str)> {
        // Contrast users first: an event's LLR is computed against the
        // user population at event time, so the pair events must arrive
        // when the background already exists for "immediately visible"
        // to hold (otherwise the pair waits for the next sync — the
        // documented drift).
        let mut ev = Vec::new();
        for u in ["x1", "x2", "x3", "x4", "x5", "x6"] {
            ev.push((u, "solo"));
        }
        for u in ["u1", "u2", "u3", "u4", "u5", "u6"] {
            ev.push((u, "a"));
            ev.push((u, "b"));
        }
        ev
    }

    #[test]
    fn association_is_visible_immediately() {
        let mut m = model();
        drive(&mut m, &clustered());
        let inds = m.indicators_of("a");
        assert_eq!(inds.len(), 1);
        assert_eq!(inds[0].0, "b");
        assert!(inds[0].1 > 1.0);
    }

    #[test]
    fn duplicates_and_caps_follow_the_batch_rule() {
        let mut m = IncrementalCco::new(CcoConfig {
            max_prefs_per_user: 2,
            ..CcoConfig::default()
        });
        let a = m.intern("a");
        let b = m.intern("b");
        let c = m.intern("c");
        let mut set = Vec::new();
        assert!(m.add_to_set(&mut set, a, 1));
        assert!(!m.add_to_set(&mut set, a, 1), "duplicate rejected");
        assert!(m.add_to_set(&mut set, b, 1));
        assert!(!m.add_to_set(&mut set, c, 1), "cap rejected");
        assert_eq!(m.stats().interactions, 2);
    }

    #[test]
    fn scoring_accumulates_over_history() {
        let mut m = model();
        drive(&mut m, &clustered());
        let a = m.lookup("a").unwrap();
        let b = m.lookup("b").unwrap();
        let once = m.top_n(&[a], &[], 10);
        assert_eq!(once.len(), 1);
        assert_eq!(once[0].0, b);
        assert!(once[0].1 > 0.0);
        let twice = m.top_n(&[a, a], &[], 10);
        assert_eq!(twice, vec![(b, once[0].1 + once[0].1)]);
        assert!(m.top_n(&[a], &[b], 10).is_empty(), "excluded");
        assert_eq!(m.top_n(&[a], &[], 10), once, "the scratch was left clean");
    }

    #[test]
    fn sync_clears_the_dirty_backlog() {
        let mut m = model();
        drive(&mut m, &clustered());
        assert!(m.stats().dirty > 0);
        m.sync(12);
        assert_eq!(m.stats().dirty, 0);
        // Lists survive the repair.
        assert_eq!(m.indicators_of("a")[0].0, "b");
    }

    #[test]
    fn weak_pairs_are_filtered() {
        let mut m = IncrementalCco::new(CcoConfig {
            min_llr: 1000.0,
            ..CcoConfig::default()
        });
        drive(&mut m, &clustered());
        assert!(m.indicators_of("a").is_empty());
        let a = m.lookup("a").unwrap();
        assert!(m.top_n(&[a], &[], 10).is_empty());
    }

    #[test]
    fn top_k_evicts_the_weakest() {
        let mut m = IncrementalCco::new(CcoConfig {
            max_indicators_per_item: 2,
            min_llr: 0.1,
            ..CcoConfig::default()
        });
        // hub pairs with i1 (3 users), i2 (2 users), i3 (1 user), plus
        // background users for contrast.
        let mut ev: Vec<(String, String)> = Vec::new();
        for (strength, other) in [(5, "i1"), (4, "i2"), (2, "i3")] {
            for u in 0..strength {
                ev.push((format!("u-{other}-{u}"), "hub".into()));
                ev.push((format!("u-{other}-{u}"), other.into()));
            }
        }
        for u in 0..30 {
            ev.push((format!("bg{u}"), format!("bg-{u}")));
        }
        let evs: Vec<(&str, &str)> = ev.iter().map(|(u, i)| (u.as_str(), i.as_str())).collect();
        drive(&mut m, &evs);
        m.sync(41);
        let inds = m.indicators_of("hub");
        assert_eq!(inds.len(), 2);
        assert!(inds[0].1 >= inds[1].1);
        assert!(!inds.iter().any(|(n, _)| n == "i3"), "{inds:?}");
    }

    #[test]
    fn sync_leaves_no_list_the_capacity_of_its_neighbourhood() {
        // Every item co-occurs with every other: 3 K neighbours each.
        let config = CcoConfig {
            max_indicators_per_item: 4,
            min_llr: 0.0,
            ..CcoConfig::default()
        };
        let k = config.max_indicators_per_item;
        let mut m = IncrementalCco::new(config);
        let items: Vec<String> = (0..3 * k + 1).map(|i| format!("i{i:02}")).collect();
        let mut ev: Vec<(String, &str)> = Vec::new();
        for u in 0..6 {
            for item in items.iter().skip(u % 2) {
                ev.push((format!("u{u}"), item));
            }
        }
        let evs: Vec<(&str, &str)> = ev.iter().map(|(u, i)| (u.as_str(), *i)).collect();
        drive(&mut m, &evs);
        m.sync(6);
        for (item, list) in items.iter().zip(&m.indicators) {
            assert_eq!(list.len(), k, "{item} has a full list");
            assert!(
                list.capacity() <= k + 1,
                "{item}: capacity {} for {k} indicators",
                list.capacity()
            );
        }
    }

    #[test]
    fn membership_flags_follow_the_lists() {
        // Through evictions, re-scores, drops under `min_llr` and a sync,
        // a row entry is flagged exactly when the list holds that item.
        let mut m = IncrementalCco::new(CcoConfig {
            max_indicators_per_item: 3,
            min_llr: 0.3,
            ..CcoConfig::default()
        });
        let mut state = 0x23u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let ev: Vec<(String, String)> = (0..1500)
            .map(|_| {
                (
                    format!("u{}", next(60)),
                    format!("i{:02}", next(7) * next(4)),
                )
            })
            .collect();
        let evs: Vec<(&str, &str)> = ev.iter().map(|(u, i)| (u.as_str(), i.as_str())).collect();
        let check = |m: &IncrementalCco, when: &str| {
            let mut listed = 0;
            for (target, row) in m.cooc.iter().enumerate() {
                for (&ind, &v) in row {
                    let in_list = m.indicators[target].iter().any(|&(i, _)| i == ind);
                    assert_eq!(v & LISTED != 0, in_list, "{when}: {target} <- {ind}");
                    let posted = m.postings[ind as usize]
                        .iter()
                        .filter(|&&(t, _)| t as usize == target)
                        .count();
                    assert_eq!(posted, usize::from(in_list), "{when}: {target} <- {ind}");
                    listed += usize::from(in_list);
                }
            }
            assert!(listed > 0, "{when}: vacuous");
        };
        let (early, late) = evs.split_at(700);
        drive(&mut m, early);
        check(&m, "after posts");
        m.sync(60);
        check(&m, "after sync");
        // `drive` restarts its user map, so the tail counts as new users'
        // events: more posts on a synced model either way.
        drive(&mut m, late);
        check(&m, "after more posts");
    }

    #[test]
    fn table_llr_equals_the_reference_on_every_small_table() {
        let mut table = LlrTable::default();
        table.grow(64);
        for k11 in 0..=64u64 {
            for k12 in 0..=64 - k11 {
                for k21 in 0..=64 - k11 - k12 {
                    for k22 in 0..=64 - k11 - k12 - k21 {
                        assert_eq!(
                            table.llr(k11, k12, k21, k22).to_bits(),
                            log_likelihood_ratio(k11, k12, k21, k22).to_bits(),
                            "({k11}, {k12}, {k21}, {k22})"
                        );
                    }
                }
            }
        }
    }

    /// One table up to 10⁶ for every sampled case (building it is a
    /// million `ln` calls).
    fn million() -> &'static LlrTable {
        static TABLE: OnceLock<LlrTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = LlrTable::default();
            table.grow(1_000_000);
            table
        })
    }

    proptest! {
        /// The table LLR is the free function bit for bit, whether a
        /// count is read from the table or lies beyond it.
        #[test]
        fn table_llr_equals_the_reference_up_to_a_million(
            k11 in 0u64..250_000,
            k12 in 0u64..250_000,
            k21 in 0u64..250_000,
            k22 in 0u64..250_001,
            small in 0u64..4,
        ) {
            // Three cases in four keep k11 small, as real pair counts are.
            let k11 = if small == 0 { k11 } else { k11 % 100 };
            let reference = log_likelihood_ratio(k11, k12, k21, k22).to_bits();
            prop_assert_eq!(million().llr(k11, k12, k21, k22).to_bits(), reference);
            let mut short = LlrTable::default();
            short.grow(k12);
            prop_assert_eq!(short.llr(k11, k12, k21, k22).to_bits(), reference);
        }
    }
}
