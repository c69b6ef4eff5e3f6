//! Scoring index over the trained CCO model (Elasticsearch substitute).
//!
//! Harness persists the Universal Recommender model in an Elasticsearch
//! index and answers queries by matching a user's interaction history
//! against each item's indicator field (§7). This module reproduces the
//! same retrieval structure in-process: an inverted index from indicator
//! item → (target item, llr), so that scoring a history of `h` items
//! touches only the postings of those `h` items instead of the whole
//! catalog. Like [`crate::cco::CcoTrainer`], it is kept as the batch
//! reference the serving engine is tested against, not a serving path.

use crate::api::ScoredItem;
use crate::cco::CcoModel;
use std::collections::HashMap;

/// Inverted scoring index built from a [`CcoModel`].
///
/// # Examples
///
/// ```
/// use pprox_lrs::cco::CcoTrainer;
/// use pprox_lrs::index::ScoringIndex;
///
/// let data = vec![("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "b"), ("u3", "c")];
/// let model = CcoTrainer::default().train(data);
/// let index = ScoringIndex::build(&model);
/// // A user who saw "a" gets "b" recommended (co-occurrence), not "a" again.
/// let recs = index.recommend(&["a".to_owned()], 10);
/// assert_eq!(recs[0].item, "b");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScoringIndex {
    /// indicator item -> postings of (target item, llr)
    postings: HashMap<String, Vec<(String, f64)>>,
}

impl ScoringIndex {
    /// Builds the inverted index from a trained model.
    pub fn build(model: &CcoModel) -> Self {
        let mut postings: HashMap<String, Vec<(String, f64)>> = HashMap::new();
        for (target, indicators) in model.iter() {
            for ind in indicators {
                postings
                    .entry(ind.item.clone())
                    .or_default()
                    .push((target.to_owned(), ind.llr));
            }
        }
        ScoringIndex { postings }
    }

    /// Recommends up to `n` items for a user with the given interaction
    /// `history`. Items already in the history are excluded (the user has
    /// them), and results are ordered by descending aggregate LLR with the
    /// item id as a deterministic tiebreak.
    pub fn recommend(&self, history: &[String], n: usize) -> Vec<ScoredItem> {
        self.recommend_filtered(history, n, &[])
    }

    /// Like [`recommend`](Self::recommend), additionally dropping the
    /// `exclude` items (the Universal Recommender blacklist rule).
    pub fn recommend_filtered(
        &self,
        history: &[String],
        n: usize,
        exclude: &[String],
    ) -> Vec<ScoredItem> {
        let mut scores: HashMap<&str, f64> = HashMap::new();
        for h in history {
            if let Some(posts) = self.postings.get(h) {
                for (target, llr) in posts {
                    *scores.entry(target.as_str()).or_insert(0.0) += llr;
                }
            }
        }
        let mut scored: Vec<ScoredItem> = scores
            .into_iter()
            .filter(|(item, _)| {
                !history.iter().any(|h| h == item) && !exclude.iter().any(|e| e == item)
            })
            .map(|(item, score)| ScoredItem {
                item: item.to_owned(),
                score,
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.item.cmp(&b.item))
        });
        scored.truncate(n);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cco::{CcoConfig, CcoTrainer};

    /// Dataset: group A users like {a1, a2, a3}; group B users like {b1, b2}.
    fn clustered_model() -> CcoModel {
        let mut data = Vec::new();
        for u in 0..10 {
            for i in ["a1", "a2", "a3"] {
                data.push((format!("ua{u}"), i.to_owned()));
            }
        }
        for u in 0..10 {
            for i in ["b1", "b2"] {
                data.push((format!("ub{u}"), i.to_owned()));
            }
        }
        CcoTrainer::new(CcoConfig {
            min_llr: 0.5,
            ..CcoConfig::default()
        })
        .train(data.iter().map(|(u, i)| (u.as_str(), i.as_str())))
    }

    #[test]
    fn recommends_within_cluster() {
        let index = ScoringIndex::build(&clustered_model());
        let recs = index.recommend(&["a1".to_owned()], 10);
        let ids: Vec<&str> = recs.iter().map(|r| r.item.as_str()).collect();
        assert!(ids.contains(&"a2") && ids.contains(&"a3"), "{ids:?}");
        assert!(!ids.contains(&"b1") && !ids.contains(&"b2"), "{ids:?}");
    }

    #[test]
    fn excludes_history() {
        let index = ScoringIndex::build(&clustered_model());
        let recs = index.recommend(&["a1".to_owned(), "a2".to_owned()], 10);
        let ids: Vec<&str> = recs.iter().map(|r| r.item.as_str()).collect();
        assert_eq!(ids, vec!["a3"]);
    }

    #[test]
    fn respects_limit_and_order() {
        let index = ScoringIndex::build(&clustered_model());
        let recs = index.recommend(&["a1".to_owned()], 1);
        assert_eq!(recs.len(), 1);
        let all = index.recommend(&["a1".to_owned()], 10);
        for w in all.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn unknown_history_gives_empty() {
        let index = ScoringIndex::build(&clustered_model());
        assert!(index.recommend(&["nope".to_owned()], 10).is_empty());
        assert!(index.recommend(&[], 10).is_empty());
    }

    #[test]
    fn multi_item_history_accumulates_scores() {
        let index = ScoringIndex::build(&clustered_model());
        let single = index.recommend(&["a1".to_owned()], 10);
        let double = index.recommend(&["a1".to_owned(), "a2".to_owned()], 10);
        let s1 = single.iter().find(|r| r.item == "a3").unwrap().score;
        let s2 = double.iter().find(|r| r.item == "a3").unwrap().score;
        assert!(s2 > s1, "two supporting history items must score higher");
    }

    #[test]
    fn exclusions_filter_results() {
        let index = ScoringIndex::build(&clustered_model());
        let all = index.recommend(&["a1".to_owned()], 10);
        assert!(all.iter().any(|r| r.item == "a2"));
        let filtered = index.recommend_filtered(&["a1".to_owned()], 10, &["a2".to_owned()]);
        assert!(!filtered.iter().any(|r| r.item == "a2"));
        assert!(filtered.iter().any(|r| r.item == "a3"));
    }

    #[test]
    fn deterministic_tiebreak() {
        let index = ScoringIndex::build(&clustered_model());
        let a = index.recommend(&["a1".to_owned()], 10);
        let b = index.recommend(&["a1".to_owned()], 10);
        assert_eq!(a, b);
    }
}
