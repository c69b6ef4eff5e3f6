//! Correlated Cross-Occurrence (CCO) model training.
//!
//! The Universal Recommender's algorithm (§7 of the paper): aggregate
//! interaction indicators, compute co-occurrence statistics between items,
//! and keep, per item, the most *anomalously* co-occurring items as
//! indicators, scored by Dunning's log-likelihood ratio (LLR) — the same
//! statistic Apache Mahout's `logLikelihoodRatio` uses. In the paper this
//! batch job runs periodically on Apache Spark. The serving engine
//! ([`crate::shard::ShardEngine`]) maintains the same model incrementally
//! and shares this module's [`CcoConfig`] and [`log_likelihood_ratio`];
//! the batch [`CcoTrainer`] itself serves no request — it is the
//! reference the incremental model is proven byte-identical to.
//!
//! Interactions are downsampled per user (`max_prefs_per_user`) exactly as
//! Mahout/UR do, which bounds the quadratic pair-counting cost.

use std::collections::HashMap;

/// `x * ln(x)` with the `0 ln 0 = 0` convention.
fn x_log_x(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.ln()
    }
}

/// Shannon-style entropy helper used by the Mahout LLR formulation:
/// `xLogX(sum) - Σ xLogX(x_i)`.
fn entropy(elements: &[f64]) -> f64 {
    let sum: f64 = elements.iter().sum();
    x_log_x(sum) - elements.iter().map(|&x| x_log_x(x)).sum::<f64>()
}

/// Dunning's log-likelihood ratio over a 2×2 contingency table.
///
/// * `k11` — users who interacted with both items.
/// * `k12` — users with item A but not B.
/// * `k21` — users with item B but not A.
/// * `k22` — users with neither.
///
/// Higher values mean the co-occurrence is more statistically surprising.
///
/// # Examples
///
/// ```
/// use pprox_lrs::cco::log_likelihood_ratio;
///
/// // Strong association scores high …
/// let strong = log_likelihood_ratio(100, 5, 5, 1000);
/// // … independence scores ~0.
/// let indep = log_likelihood_ratio(10, 90, 90, 810);
/// assert!(strong > 100.0);
/// assert!(indep < 1e-6);
/// ```
pub fn log_likelihood_ratio(k11: u64, k12: u64, k21: u64, k22: u64) -> f64 {
    let (k11, k12, k21, k22) = (k11 as f64, k12 as f64, k21 as f64, k22 as f64);
    let row_entropy = entropy(&[k11 + k12, k21 + k22]);
    let column_entropy = entropy(&[k11 + k21, k12 + k22]);
    let matrix_entropy = entropy(&[k11, k12, k21, k22]);
    if row_entropy + column_entropy < matrix_entropy {
        // Rounding artifact; the true value is 0.
        return 0.0;
    }
    2.0 * (row_entropy + column_entropy - matrix_entropy)
}

/// Configuration of the CCO trainer.
#[derive(Debug, Clone)]
pub struct CcoConfig {
    /// Maximum interactions considered per user (Mahout-style
    /// downsampling; bounds the quadratic pair cost).
    pub max_prefs_per_user: usize,
    /// Maximum indicators retained per item.
    pub max_indicators_per_item: usize,
    /// Minimum LLR for an indicator to be kept.
    pub min_llr: f64,
}

impl Default for CcoConfig {
    fn default() -> Self {
        CcoConfig {
            max_prefs_per_user: 500,
            max_indicators_per_item: 50,
            min_llr: 1.0,
        }
    }
}

/// One indicator: "users who interacted with `item` also anomalously often
/// interacted with the target item".
#[derive(Debug, Clone, PartialEq)]
pub struct Indicator {
    /// The co-occurring item.
    pub item: String,
    /// LLR strength of the association.
    pub llr: f64,
}

/// A trained CCO model: per item, its strongest indicators.
#[derive(Debug, Clone, Default)]
pub struct CcoModel {
    indicators: HashMap<String, Vec<Indicator>>,
    /// Number of distinct users seen at training time.
    pub num_users: u64,
    /// Number of distinct items seen at training time.
    pub num_items: u64,
    /// Number of interactions used (after downsampling).
    pub num_interactions: u64,
}

impl CcoModel {
    /// Indicators for `item`, strongest first (empty slice if unknown).
    pub fn indicators(&self, item: &str) -> &[Indicator] {
        self.indicators.get(item).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of items that have at least one indicator.
    pub fn indexed_items(&self) -> usize {
        self.indicators.len()
    }

    /// Iterates over `(item, indicators)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Indicator])> {
        self.indicators
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// Batch CCO trainer (the Spark-job substitute).
#[derive(Debug, Clone, Default)]
pub struct CcoTrainer {
    config: CcoConfig,
}

impl CcoTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: CcoConfig) -> Self {
        CcoTrainer { config }
    }

    /// Trains a model from `(user, item)` interactions.
    ///
    /// Duplicate `(user, item)` pairs collapse to one (CCO works on the
    /// binary interaction matrix).
    pub fn train<'a>(
        &self,
        interactions: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> CcoModel {
        // 1. Gather per-user interaction sets (deduplicated, downsampled).
        let mut by_user: HashMap<&str, Vec<&str>> = HashMap::new();
        for (user, item) in interactions {
            let items = by_user.entry(user).or_default();
            if items.len() < self.config.max_prefs_per_user && !items.contains(&item) {
                items.push(item);
            }
        }
        let num_users = by_user.len() as u64;

        // 2. Per-item user counts and pairwise co-occurrence counts.
        let mut item_count: HashMap<&str, u64> = HashMap::new();
        let mut cooc: HashMap<(&str, &str), u64> = HashMap::new();
        let mut num_interactions = 0u64;
        for items in by_user.values() {
            num_interactions += items.len() as u64;
            for (idx, &a) in items.iter().enumerate() {
                *item_count.entry(a).or_insert(0) += 1;
                for &b in &items[idx + 1..] {
                    let key = if a <= b { (a, b) } else { (b, a) };
                    *cooc.entry(key).or_insert(0) += 1;
                }
            }
        }
        let num_items = item_count.len() as u64;

        // 3. LLR for every co-occurring pair; keep both directions.
        let mut indicators: HashMap<String, Vec<Indicator>> = HashMap::new();
        for (&(a, b), &k11) in &cooc {
            let count_a = item_count[a];
            let count_b = item_count[b];
            let k12 = count_a - k11;
            let k21 = count_b - k11;
            let k22 = num_users.saturating_sub(count_a + count_b - k11);
            let llr = log_likelihood_ratio(k11, k12, k21, k22);
            if llr < self.config.min_llr {
                continue;
            }
            indicators.entry(a.to_owned()).or_default().push(Indicator {
                item: b.to_owned(),
                llr,
            });
            indicators.entry(b.to_owned()).or_default().push(Indicator {
                item: a.to_owned(),
                llr,
            });
        }

        // 4. Keep only the strongest indicators per item. The item-name
        // tie-break makes the order a total one, so the trained model is
        // byte-identical regardless of hash-map iteration order — the
        // property the incremental trainer's differential test leans on.
        for list in indicators.values_mut() {
            list.sort_by(|x, y| {
                y.llr
                    .partial_cmp(&x.llr)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| x.item.cmp(&y.item))
            });
            list.truncate(self.config.max_indicators_per_item);
        }

        CcoModel {
            indicators,
            num_users,
            num_items,
            num_interactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llr_zero_when_independent() {
        // Exactly proportional table → LLR 0.
        assert!(log_likelihood_ratio(10, 10, 10, 10).abs() < 1e-9);
        assert!(log_likelihood_ratio(1, 9, 9, 81).abs() < 1e-9);
    }

    #[test]
    fn llr_positive_for_association() {
        assert!(log_likelihood_ratio(50, 2, 3, 500) > 50.0);
    }

    #[test]
    fn llr_symmetric_in_items() {
        // Swapping A and B swaps k12/k21, leaving LLR unchanged.
        let a = log_likelihood_ratio(7, 3, 11, 200);
        let b = log_likelihood_ratio(7, 11, 3, 200);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn llr_known_value() {
        // Cross-checked against Mahout's logLikelihoodRatio(1,0,0,1) = 2*ln(2)*... :
        // table [[1,0],[0,1]] → LLR = 2 * (2 ln 2) ≈ 2.7726
        let v = log_likelihood_ratio(1, 0, 0, 1);
        assert!((v - 4.0 * std::f64::consts::LN_2).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn llr_handles_zero_cells() {
        assert_eq!(log_likelihood_ratio(0, 0, 0, 0), 0.0);
        assert!(log_likelihood_ratio(5, 0, 0, 0) >= 0.0);
    }

    fn strong_pair_dataset() -> Vec<(String, String)> {
        // Users 0..20 all take (a,b); users 20..40 take unrelated singles.
        let mut data = Vec::new();
        for u in 0..20 {
            data.push((format!("u{u}"), "a".to_owned()));
            data.push((format!("u{u}"), "b".to_owned()));
        }
        for u in 20..40 {
            data.push((format!("u{u}"), format!("solo-{u}")));
        }
        data
    }

    #[test]
    fn trainer_finds_strong_association() {
        let data = strong_pair_dataset();
        let model = CcoTrainer::default().train(data.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        let inds = model.indicators("a");
        assert_eq!(inds.len(), 1);
        assert_eq!(inds[0].item, "b");
        assert!(inds[0].llr > 10.0);
        // Symmetric direction exists too.
        assert_eq!(model.indicators("b")[0].item, "a");
    }

    #[test]
    fn trainer_counts() {
        let data = strong_pair_dataset();
        let model = CcoTrainer::default().train(data.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        assert_eq!(model.num_users, 40);
        assert_eq!(model.num_items, 22);
        assert_eq!(model.num_interactions, 60);
    }

    #[test]
    fn duplicates_collapse() {
        let data = vec![("u1", "a"), ("u1", "a"), ("u1", "b")];
        let model = CcoTrainer::default().train(data);
        assert_eq!(model.num_interactions, 2);
    }

    #[test]
    fn min_llr_filters_weak_pairs() {
        // One co-click, consistent with independence (E[k11] ≈ 8·8/65 ≈ 1).
        let mut data: Vec<(String, String)> =
            vec![("u0".into(), "a".into()), ("u0".into(), "b".into())];
        for u in 1..8 {
            data.push((format!("u{u}"), "a".into()));
            data.push((format!("x{u}"), "b".into()));
        }
        for u in 0..50 {
            data.push((format!("y{u}"), format!("bg-{u}")));
        }
        let strict = CcoTrainer::new(CcoConfig {
            min_llr: 5.0,
            ..CcoConfig::default()
        })
        .train(data.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        assert!(strict.indicators("a").is_empty());
    }

    #[test]
    fn max_indicators_truncates() {
        // Item "hub" co-occurs with 10 others; cap at 3.
        let mut data = Vec::new();
        for (strength, other) in [(9, "i1"), (8, "i2"), (7, "i3"), (6, "i4"), (5, "i5")] {
            for u in 0..strength {
                data.push((format!("u-{other}-{u}"), "hub".to_owned()));
                data.push((format!("u-{other}-{u}"), other.to_owned()));
            }
        }
        // Background users: without them "hub" is in every basket and all
        // its pairs carry zero information (LLR = 0).
        for u in 0..50 {
            data.push((format!("bg{u}"), format!("bg-item-{u}")));
        }
        let model = CcoTrainer::new(CcoConfig {
            max_indicators_per_item: 3,
            min_llr: 0.1,
            ..CcoConfig::default()
        })
        .train(data.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        let inds = model.indicators("hub");
        assert_eq!(inds.len(), 3);
        // Sorted by descending LLR.
        assert!(inds[0].llr >= inds[1].llr && inds[1].llr >= inds[2].llr);
    }

    #[test]
    fn downsampling_caps_user_history() {
        let mut data = Vec::new();
        for i in 0..100 {
            data.push(("u".to_owned(), format!("i{i}")));
        }
        let model = CcoTrainer::new(CcoConfig {
            max_prefs_per_user: 10,
            ..CcoConfig::default()
        })
        .train(data.iter().map(|(u, i)| (u.as_str(), i.as_str())));
        assert_eq!(model.num_interactions, 10);
    }

    #[test]
    fn empty_input_gives_empty_model() {
        let model = CcoTrainer::default().train(std::iter::empty::<(&str, &str)>());
        assert_eq!(model.indexed_items(), 0);
        assert_eq!(model.num_users, 0);
        assert!(model.indicators("x").is_empty());
    }
}
