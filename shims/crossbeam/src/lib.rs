//! Offline stand-in for `crossbeam`.
//!
//! Provides the [`channel`] module used by the wire servers: multi-producer
//! multi-consumer channels with bounded and unbounded flavors, blocking
//! and timeout receives, and crossbeam's disconnect semantics (a `recv`
//! on an empty channel whose senders are all gone fails; a `send` fails
//! once every receiver is gone). Built on `Mutex` + `Condvar` rather than
//! lock-free queues — throughput is lower than real crossbeam but the
//! semantics are identical, which is what the correctness of the
//! event-driven deployment rests on.

#![forbid(unsafe_code)]

pub mod channel {
    //! MPMC channels (API subset of `crossbeam-channel`).

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity; the message comes back.
        Full(T),
        /// All receivers are gone; the message comes back.
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    impl<T> std::fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "sending on a full channel",
                TrySendError::Disconnected(_) => "sending on a disconnected channel",
            })
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl std::fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                RecvTimeoutError::Timeout => "timed out waiting on receive operation",
                RecvTimeoutError::Disconnected => "channel is empty and disconnected",
            })
        }
    }

    impl std::fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TryRecvError::Empty => "receiving on an empty channel",
                TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
            })
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for RecvTimeoutError {}
    impl std::error::Error for TryRecvError {}

    /// The sending half of a channel. Clonable (multi-producer).
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel. Clonable (multi-consumer).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel; `send` blocks while `cap` items are
    /// queued. `cap = 0` is treated as capacity 1 (this shim does not
    /// implement rendezvous channels; the workspace never uses them).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// Returns the message when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.inner.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = self
                            .inner
                            .not_full
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    _ => {
                        state.queue.push_back(msg);
                        drop(state);
                        self.inner.not_empty.notify_one();
                        return Ok(());
                    }
                }
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends `msg` without blocking.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded channel is at capacity,
        /// [`TrySendError::Disconnected`] when every receiver is gone;
        /// both return the message.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.inner.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = self.inner.capacity {
                if state.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            state.queue.push_back(msg);
            drop(state);
            self.inner.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.lock().senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut state = self.inner.lock();
                state.senders -= 1;
                state.senders
            };
            if remaining == 0 {
                // Wake receivers blocked on an empty queue so they observe
                // the disconnect.
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives.
        ///
        /// # Errors
        ///
        /// Fails when the channel is empty and all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.inner.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .inner
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Receives a message, waiting at most `timeout`.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when nothing arrived in time,
        /// [`RecvTimeoutError::Disconnected`] when all senders are gone and
        /// the queue is empty.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.inner.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.inner.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _result) = self
                    .inner
                    .not_empty
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                state = guard;
            }
        }

        /// Receives without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when nothing is queued,
        /// [`TryRecvError::Disconnected`] when additionally all senders are
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.inner.lock();
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().queue.len()
        }

        /// `true` when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.inner.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.lock().receivers += 1;
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut state = self.inner.lock();
                state.receivers -= 1;
                state.receivers
            };
            if remaining == 0 {
                // Wake senders blocked on a full queue so they observe the
                // disconnect.
                self.inner.not_full.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_blocks_until_send() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            tx.send(7).unwrap();
            assert_eq!(h.join().unwrap(), Ok(7));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            drop(tx);
            // Queued messages drain before the disconnect surfaces.
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn disconnect_on_receiver_drop() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
        }

        #[test]
        fn recv_timeout_times_out_then_succeeds() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
        }

        #[test]
        fn bounded_blocks_until_capacity_frees() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let tx2 = tx.clone();
            let h = std::thread::spawn(move || tx2.send(2));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            h.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn mpmc_all_items_delivered_once() {
            let (tx, rx) = unbounded();
            let mut producers = Vec::new();
            for p in 0..4u64 {
                let tx = tx.clone();
                producers.push(std::thread::spawn(move || {
                    for i in 0..250u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                }));
            }
            drop(tx);
            let mut consumers = Vec::new();
            for _ in 0..3 {
                let rx = rx.clone();
                consumers.push(std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                }));
            }
            drop(rx);
            for p in producers {
                p.join().unwrap();
            }
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            let expected: Vec<u64> = (0..4u64)
                .flat_map(|p| (0..250u64).map(move |i| p * 1000 + i))
                .collect();
            assert_eq!(all, expected);
        }

        #[test]
        fn waiting_receiver_wakes_on_disconnect() {
            let (tx, rx) = unbounded::<u8>();
            let h = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvError));
        }
    }
}
