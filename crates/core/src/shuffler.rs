//! Request/response shuffling (§4.3).
//!
//! "Incoming requests are buffered until `S` requests are received, or
//! until a timer expires, and then sent in random order to the next
//! stage." The [`ShuffleBuffer`] implements exactly that policy as a pure
//! data structure over abstract deadlines, so both the live (wall-clock)
//! and simulated (virtual-clock) deployments drive it: callers tell it the
//! current time, it answers with flush decisions. [`Gather`] is the
//! serving chain's response-direction variant: the answers of one released
//! request batch, held until the last of them is back.

use pprox_crypto::rng::SecureRng;

/// Shuffling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleConfig {
    /// Buffer size `S`: a flush happens as soon as `S` items are held.
    /// `S = 1` effectively disables shuffling (m1–m4 configurations).
    pub size: usize,
    /// Timer: the oldest buffered item never waits longer than this many
    /// microseconds before a flush.
    pub timeout_us: u64,
}

impl ShuffleConfig {
    /// Shuffling disabled (`S = 1`): every item flushes immediately.
    pub fn disabled() -> Self {
        ShuffleConfig {
            size: 1,
            timeout_us: 0,
        }
    }

    /// The paper's default micro-benchmark setting `S = 10` with a 500 ms
    /// timer.
    pub fn paper_default() -> Self {
        ShuffleConfig {
            size: 10,
            timeout_us: 500_000,
        }
    }

    /// `true` when shuffling is effectively off.
    pub fn is_disabled(&self) -> bool {
        self.size <= 1
    }
}

/// A batch released by the buffer: items in randomized order plus the
/// (pre-shuffle) arrival times, for latency accounting.
#[derive(Debug)]
pub struct Flush<T> {
    /// Items in randomized forwarding order.
    pub items: Vec<T>,
    /// Arrival time (the `now_us` passed to `push`) of each item, aligned
    /// with the shuffled `items` order — dwell accounting for the
    /// telemetry layer without re-identifying arrival order.
    pub arrived_at_us: Vec<u64>,
    /// Why the flush happened.
    pub reason: FlushReason,
}

/// What triggered a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The buffer reached `S` items.
    Full,
    /// The oldest item hit the timeout.
    Timeout,
    /// Explicit drain (shutdown).
    Drain,
}

/// The §4.3 shuffle buffer.
///
/// # Examples
///
/// ```
/// use pprox_core::shuffler::{ShuffleBuffer, ShuffleConfig};
///
/// let mut buf = ShuffleBuffer::new(ShuffleConfig { size: 3, timeout_us: 1_000 }, 42);
/// assert!(buf.push(0, "a").is_none());
/// assert!(buf.push(10, "b").is_none());
/// let flush = buf.push(20, "c").expect("third item fills the buffer");
/// assert_eq!(flush.items.len(), 3);
/// ```
#[derive(Debug)]
pub struct ShuffleBuffer<T> {
    config: ShuffleConfig,
    held: Vec<(u64, T)>,
    oldest_at_us: Option<u64>,
    rng: SecureRng,
    flushes: u64,
    timeout_flushes: u64,
    order_ablation: bool,
}

impl<T> ShuffleBuffer<T> {
    /// Creates a buffer; `seed` makes the shuffle order reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `config.size` is zero.
    pub fn new(config: ShuffleConfig, seed: u64) -> Self {
        assert!(config.size > 0, "shuffle size must be at least 1");
        ShuffleBuffer {
            config,
            held: Vec::with_capacity(config.size),
            oldest_at_us: None,
            rng: SecureRng::from_seed(seed),
            flushes: 0,
            timeout_flushes: 0,
            order_ablation: false,
        }
    }

    /// Seeded ablation for the attack harnesses: batching still happens
    /// (items dwell until `S` or the timer), but the release permutation
    /// is suppressed — batches leave in arrival order. This deliberately
    /// voids the §4.3 unlinkability argument while keeping every timing
    /// characteristic identical, so a traffic-analysis audit must *catch*
    /// it as a bound violation rather than pass by construction.
    pub fn set_order_ablation(&mut self, on: bool) {
        self.order_ablation = on;
    }

    /// Adds an item arriving at `now_us`; returns a flush when the buffer
    /// reaches `S`.
    pub fn push(&mut self, now_us: u64, item: T) -> Option<Flush<T>> {
        if self.held.is_empty() {
            self.oldest_at_us = Some(now_us);
        }
        self.held.push((now_us, item));
        if self.held.len() >= self.config.size {
            Some(self.flush(FlushReason::Full))
        } else {
            None
        }
    }

    /// The absolute deadline (µs) by which the buffer must flush, if any
    /// items are held. The deployment schedules its timer from this.
    pub fn deadline_us(&self) -> Option<u64> {
        self.oldest_at_us.map(|t| t + self.config.timeout_us)
    }

    /// Checks the timer at `now_us`; flushes if the deadline passed.
    pub fn poll_timeout(&mut self, now_us: u64) -> Option<Flush<T>> {
        match self.deadline_us() {
            Some(deadline) if now_us >= deadline && !self.held.is_empty() => {
                self.timeout_flushes += 1;
                Some(self.flush(FlushReason::Timeout))
            }
            _ => None,
        }
    }

    /// Unconditionally flushes whatever is held (used at shutdown).
    pub fn drain(&mut self) -> Option<Flush<T>> {
        if self.held.is_empty() {
            None
        } else {
            Some(self.flush(FlushReason::Drain))
        }
    }

    fn flush(&mut self, reason: FlushReason) -> Flush<T> {
        // Shuffle (arrival, item) pairs together so the reported arrival
        // times stay attached to their items through the permutation.
        let mut held = std::mem::take(&mut self.held);
        self.oldest_at_us = None;
        if !self.order_ablation {
            self.rng.shuffle(&mut held);
        }
        self.flushes += 1;
        let mut items = Vec::with_capacity(held.len());
        let mut arrived_at_us = Vec::with_capacity(held.len());
        for (at, item) in held {
            arrived_at_us.push(at);
            items.push(item);
        }
        Flush {
            items,
            arrived_at_us,
            reason,
        }
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Total flushes so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Flushes caused by the timer (vs. the buffer filling).
    pub fn timeout_flushes(&self) -> u64 {
        self.timeout_flushes
    }

    /// The configured parameters.
    pub fn config(&self) -> ShuffleConfig {
        self.config
    }
}

/// The response-side mirror of one released request batch (beyond the
/// paper, which runs an independent [`ShuffleBuffer`] in each direction —
/// the simulator and the figure bins still do).
///
/// A batch of `k` requests left the request buffer together, so the set
/// their answers hide in was fixed at that moment: waiting for answers of
/// *other* batches adds dwell, not anonymity. A gather therefore holds the
/// batch's answers until the `k`-th is in and releases all `k` in a fresh
/// permutation, counted under the cause that closed the request batch.
/// The timer stays as a cap: if an answer is late (a hung call fails at
/// its deadline), what is held leaves as a [`FlushReason::Timeout`] flush
/// and the stragglers are regrouped — released together when the last of
/// them is in, never one by one.
///
/// # Examples
///
/// ```
/// use pprox_core::shuffler::{FlushReason, Gather, ShuffleConfig};
///
/// let batch = ShuffleConfig { size: 3, timeout_us: 1_000 };
/// let mut gather = Gather::new(batch, 42, FlushReason::Timeout);
/// assert!(gather.push(0, "a").is_none());
/// assert!(gather.push(10, "b").is_none());
/// let flush = gather.push(20, "c").expect("the last answer releases all three");
/// assert_eq!((flush.items.len(), flush.reason), (3, FlushReason::Timeout));
/// assert!(gather.is_complete());
/// ```
#[derive(Debug)]
pub struct Gather<T> {
    /// Sized to the answers still out, so "full" is "the last one is in".
    buffer: ShuffleBuffer<T>,
    /// What closed the request batch.
    cause: FlushReason,
}

impl<T> Gather<T> {
    /// A gather for a batch of `batch.size` requests that `cause` released;
    /// `batch.timeout_us` is the cap, `seed` makes the release order
    /// reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `batch.size` is zero.
    pub fn new(batch: ShuffleConfig, seed: u64, cause: FlushReason) -> Self {
        Gather {
            buffer: ShuffleBuffer::new(batch, seed),
            cause,
        }
    }

    /// See [`ShuffleBuffer::set_order_ablation`].
    pub fn set_order_ablation(&mut self, on: bool) {
        self.buffer.set_order_ablation(on);
    }

    /// Adds an answer arriving at `now_us`; the last one out releases
    /// everything held, under the request batch's cause.
    pub fn push(&mut self, now_us: u64, item: T) -> Option<Flush<T>> {
        let mut flush = self.buffer.push(now_us, item)?;
        flush.reason = self.cause;
        Some(self.regroup(flush))
    }

    /// The cap: the instant by which what is held must leave, counted from
    /// the oldest held answer.
    pub fn deadline_us(&self) -> Option<u64> {
        self.buffer.deadline_us()
    }

    /// Checks the cap at `now_us`; releases what is held if it passed.
    pub fn poll_timeout(&mut self, now_us: u64) -> Option<Flush<T>> {
        let flush = self.buffer.poll_timeout(now_us)?;
        Some(self.regroup(flush))
    }

    /// Unconditionally releases what is held (shutdown).
    pub fn drain(&mut self) -> Option<Flush<T>> {
        let flush = self.buffer.drain()?;
        Some(self.regroup(flush))
    }

    /// What `flush` released is no longer owed: the buffer shrinks to the
    /// answers still out, which then leave as one group.
    fn regroup(&mut self, flush: Flush<T>) -> Flush<T> {
        self.buffer.config.size = self.buffer.config.size.saturating_sub(flush.items.len());
        flush
    }

    /// Answers currently held.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// `true` when no answer is held.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// `true` once every answer of the batch has been released.
    pub fn is_complete(&self) -> bool {
        self.buffer.config.size == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(size: usize, timeout_us: u64) -> ShuffleBuffer<u32> {
        ShuffleBuffer::new(ShuffleConfig { size, timeout_us }, 1234)
    }

    #[test]
    fn flushes_when_full() {
        let mut b = buf(3, 1_000_000);
        assert!(b.push(0, 1).is_none());
        assert!(b.push(1, 2).is_none());
        let flush = b.push(2, 3).unwrap();
        assert_eq!(flush.reason, FlushReason::Full);
        let mut sorted = flush.items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn output_order_is_shuffled() {
        // Over many flushes of 8 items, at least one must differ from
        // arrival order (probability of failure ≈ (1/8!)^trials ≈ 0).
        let mut b = buf(8, 1_000_000);
        let mut any_permuted = false;
        for _ in 0..20 {
            let mut flush = None;
            for i in 0..8u32 {
                flush = b.push(0, i).or(flush);
            }
            let items = flush.unwrap().items;
            if items != (0..8).collect::<Vec<_>>() {
                any_permuted = true;
            }
        }
        assert!(any_permuted, "shuffling never permuted the batch");
    }

    #[test]
    fn timer_flushes_partial_batch() {
        let mut b = buf(10, 500_000);
        b.push(100, 1);
        b.push(200, 2);
        assert_eq!(b.deadline_us(), Some(500_100));
        assert!(b.poll_timeout(500_099).is_none());
        let flush = b.poll_timeout(500_100).unwrap();
        assert_eq!(flush.reason, FlushReason::Timeout);
        assert_eq!(flush.items.len(), 2);
        assert_eq!(b.timeout_flushes(), 1);
        assert_eq!(b.deadline_us(), None);
    }

    #[test]
    fn deadline_tracks_oldest_item() {
        let mut b = buf(10, 1_000);
        b.push(5_000, 1);
        b.push(9_000, 2);
        // Deadline comes from the first (oldest) item.
        assert_eq!(b.deadline_us(), Some(6_000));
    }

    #[test]
    fn size_one_flushes_every_item() {
        let mut b = buf(1, 0);
        for i in 0..5u32 {
            let flush = b.push(i as u64, i).unwrap();
            assert_eq!(flush.items, vec![i]);
        }
        assert_eq!(b.flushes(), 5);
    }

    #[test]
    fn arrival_times_follow_items_through_the_shuffle() {
        // Tag each item with its own arrival time; after shuffling, the
        // reported arrival must still be the one its item carried in.
        let mut b = buf(16, 1_000_000);
        let mut flush = None;
        for i in 0..16u32 {
            flush = b.push(1_000 + i as u64, i).or(flush);
        }
        let flush = flush.unwrap();
        assert_eq!(flush.items.len(), flush.arrived_at_us.len());
        for (item, at) in flush.items.iter().zip(&flush.arrived_at_us) {
            assert_eq!(*at, 1_000 + *item as u64);
        }
    }

    #[test]
    fn drain_returns_remaining() {
        let mut b = buf(10, 1_000_000);
        assert!(b.drain().is_none());
        b.push(0, 7);
        let flush = b.drain().unwrap();
        assert_eq!(flush.reason, FlushReason::Drain);
        assert_eq!(flush.items, vec![7]);
    }

    #[test]
    fn empty_buffer_never_times_out() {
        let mut b = buf(10, 100);
        assert!(b.poll_timeout(u64::MAX).is_none());
    }

    #[test]
    fn config_constructors() {
        assert!(ShuffleConfig::disabled().is_disabled());
        let paper = ShuffleConfig::paper_default();
        assert_eq!(paper.size, 10);
        assert!(!paper.is_disabled());
    }

    #[test]
    fn order_ablation_preserves_arrival_order() {
        let mut b = buf(8, 1_000_000);
        b.set_order_ablation(true);
        for _ in 0..10 {
            let mut flush = None;
            for i in 0..8u32 {
                flush = b.push(0, i).or(flush);
            }
            assert_eq!(
                flush.unwrap().items,
                (0..8).collect::<Vec<_>>(),
                "ablated buffer must release in arrival order"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_size_panics() {
        let _ = ShuffleBuffer::<u32>::new(
            ShuffleConfig {
                size: 0,
                timeout_us: 0,
            },
            0,
        );
    }
}
