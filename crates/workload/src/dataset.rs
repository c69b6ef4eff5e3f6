//! Synthetic MovieLens-like trace.
//!
//! The paper drives its evaluation with the MovieLens `ml-20m` dataset,
//! restricted to the years 2014–2015: **562,888 ratings for 17,141
//! different movies made by 7,288 different users** (§8). The dataset
//! itself is not redistributable inside this reproduction, so
//! [`Dataset::generate`] synthesizes a trace of given user, item and
//! rating counts with heavy-tailed (Zipf) popularity/activity — the
//! properties that matter for model training and load generation — and
//! [`Dataset::small`] is that trace at 1/64 of the paper's counts.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Users in the paper's 2014–2015 MovieLens slice.
pub const PAPER_USERS: usize = 7_288;

/// Movies in the paper's slice.
pub const PAPER_ITEMS: usize = 17_141;

/// Ratings in the paper's slice.
pub const PAPER_RATINGS: usize = 562_888;

/// One feedback record of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Rating {
    /// User index in `0..num_users` (format with [`Dataset::user_id`]).
    pub user: u32,
    /// Item index in `0..num_items`.
    pub item: u32,
    /// Star rating in 0.5 steps, 0.5–5.0 (MovieLens scale).
    pub rating: f64,
}

/// A synthetic interaction dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Number of distinct users.
    pub num_users: usize,
    /// Number of distinct items.
    pub num_items: usize,
    /// All ratings, in generation order.
    pub ratings: Vec<Rating>,
}

impl Dataset {
    /// Generates a dataset with explicit dimensions.
    ///
    /// Item popularity is Zipf(1.0); user activity is Zipf(0.8) (milder —
    /// MovieLens raters are less skewed than items); `(user, item)` pairs
    /// are unique as in MovieLens.
    ///
    /// # Panics
    ///
    /// Panics when `ratings > users * items` (cannot place that many
    /// unique pairs) or any dimension is zero.
    pub fn generate(num_users: usize, num_items: usize, num_ratings: usize, seed: u64) -> Self {
        assert!(num_users > 0 && num_items > 0 && num_ratings > 0);
        assert!(
            num_ratings <= num_users * num_items,
            "more ratings than unique (user, item) pairs"
        );
        let mut item_popularity = Zipf::new(num_items, 1.0, seed ^ 0x1746);
        let mut user_activity = Zipf::new(num_users, 0.8, seed ^ 0x9e37);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(num_ratings * 2);
        let mut ratings = Vec::with_capacity(num_ratings);
        while ratings.len() < num_ratings {
            let user = user_activity.sample() as u32;
            let item = item_popularity.sample() as u32;
            if !seen.insert((user, item)) {
                continue;
            }
            // Half-star ratings 0.5..=5.0, biased high like MovieLens.
            let star = 1.0 + 4.0 * rng.gen::<f64>().powf(0.6);
            let rating = (star * 2.0).round() / 2.0;
            ratings.push(Rating {
                user,
                item,
                rating: rating.clamp(0.5, 5.0),
            });
        }
        Dataset {
            num_users,
            num_items,
            ratings,
        }
    }

    /// A proportionally scaled-down trace (~1/64 of the paper's size) for
    /// tests and examples.
    pub fn small(seed: u64) -> Self {
        Self::generate(PAPER_USERS / 64, PAPER_ITEMS / 64, PAPER_RATINGS / 64, seed)
    }

    /// Stable string id for a user index (`"u0042"` style).
    pub fn user_id(user: u32) -> String {
        format!("u{user:05}")
    }

    /// Stable string id for an item index.
    pub fn item_id(item: u32) -> String {
        format!("m{item:05}")
    }

    /// `(user_id, item_id)` pairs for feeding a recommender.
    pub fn interactions(&self) -> impl Iterator<Item = (String, String)> + '_ {
        self.ratings
            .iter()
            .map(|r| (Self::user_id(r.user), Self::item_id(r.item)))
    }

    /// Number of distinct users that actually appear in the trace.
    pub fn active_users(&self) -> usize {
        self.ratings
            .iter()
            .map(|r| r.user)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Number of distinct items that actually appear.
    pub fn active_items(&self) -> usize {
        self.ratings
            .iter()
            .map(|r| r.item)
            .collect::<HashSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_exact_rating_count() {
        let d = Dataset::generate(50, 100, 500, 1);
        assert_eq!(d.ratings.len(), 500);
    }

    #[test]
    fn pairs_are_unique() {
        let d = Dataset::generate(30, 40, 600, 2);
        let mut seen = HashSet::new();
        for r in &d.ratings {
            assert!(seen.insert((r.user, r.item)), "duplicate pair");
        }
    }

    #[test]
    fn ratings_on_movielens_scale() {
        let d = Dataset::generate(20, 30, 200, 3);
        for r in &d.ratings {
            assert!((0.5..=5.0).contains(&r.rating));
            let doubled = r.rating * 2.0;
            assert!((doubled - doubled.round()).abs() < 1e-9, "half-star steps");
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let d = Dataset::generate(100, 200, 3000, 4);
        let mut counts = vec![0u32; 200];
        for r in &d.ratings {
            counts[r.item as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: u32 = counts[..20].iter().sum();
        let tail: u32 = counts[180..].iter().sum();
        assert!(head > tail * 3, "head {head} tail {tail}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Dataset::generate(10, 10, 50, 7);
        let b = Dataset::generate(10, 10, 50, 7);
        assert_eq!(a.ratings, b.ratings);
        let c = Dataset::generate(10, 10, 50, 8);
        assert_ne!(a.ratings, c.ratings);
    }

    #[test]
    fn small_has_proportional_shape() {
        let d = Dataset::small(1);
        assert_eq!(d.num_users, PAPER_USERS / 64);
        assert_eq!(d.num_items, PAPER_ITEMS / 64);
        assert_eq!(d.ratings.len(), PAPER_RATINGS / 64);
        assert!(d.active_users() > d.num_users / 2);
        assert!(d.active_items() > 100);
    }

    #[test]
    fn id_formatting() {
        assert_eq!(Dataset::user_id(42), "u00042");
        assert_eq!(Dataset::item_id(7), "m00007");
    }

    #[test]
    #[should_panic(expected = "unique (user, item)")]
    fn impossible_density_panics() {
        let _ = Dataset::generate(2, 2, 5, 0);
    }
}
