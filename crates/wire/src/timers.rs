//! The node's deadline queue.
//!
//! Nothing on the serving path sleeps: a pending uplink call that must
//! fail at its deadline and a retry that must wait out its backoff are
//! both entries here, and one thread per node sleeps until the earliest
//! of them. An entry is a closure run on that thread at (or just after)
//! its instant; [`DeadlineQueue::cancel`] removes it first, which is what
//! an answered call does, so under load the thread wakes for calls that
//! really expired and for retries — not once per request: a registration
//! wakes it only when it is due before the instant the thread is already
//! sleeping towards. With nothing registered it blocks on its condition
//! variable and costs nothing.
//!
//! Tasks run with no lock held. They are short continuations (complete a
//! pending call with `Deadline`, re-submit a request); the thread is
//! started by the first registration, so a client that never makes a
//! call never owns a thread.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Task = Box<dyn FnOnce() + Send>;

/// Names one registered task, for [`DeadlineQueue::cancel`]. Ordered by
/// instant, then by registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerKey(Instant, u64);

struct State {
    tasks: BTreeMap<TimerKey, Task>,
    next_seq: u64,
    stop: bool,
    thread: Option<JoinHandle<()>>,
    /// When the thread, once asleep, next looks at `tasks` by itself;
    /// `None` when it sleeps until notified. (While it runs a task this
    /// is stale, and harmless: it looks again before it sleeps.)
    wakes_at: Option<Instant>,
}

struct Inner {
    state: Mutex<State>,
    wake: Condvar,
}

impl Inner {
    /// No task runs under this lock, so a poisoned guard still protects
    /// a consistent map.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One thread running closures at registered instants.
pub struct DeadlineQueue {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DeadlineQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineQueue")
            .field("pending", &self.inner.state().tasks.len())
            .finish()
    }
}

impl Default for DeadlineQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl DeadlineQueue {
    /// An empty queue; its thread starts with the first registration.
    pub fn new() -> Self {
        DeadlineQueue {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    tasks: BTreeMap::new(),
                    next_seq: 0,
                    stop: false,
                    thread: None,
                    wakes_at: None,
                }),
                wake: Condvar::new(),
            }),
        }
    }

    /// Runs `task` on the queue's thread at `when` (at once if that is
    /// past), unless it is cancelled first.
    pub fn at(&self, when: Instant, task: impl FnOnce() + Send + 'static) -> TimerKey {
        let mut state = self.inner.state();
        let key = TimerKey(when, state.next_seq);
        state.next_seq += 1;
        state.tasks.insert(key, Box::new(task));
        if state.thread.is_none() {
            let inner = self.inner.clone();
            // A failed spawn leaves `thread` empty: the next registration
            // tries again.
            state.thread = std::thread::Builder::new()
                .name("deadline-queue".into())
                .spawn(move || queue_thread(&inner))
                .ok();
        } else if state.wakes_at.is_none_or(|at| when < at) {
            // The thread sleeps towards a later instant, or towards
            // none: re-aim it. (Answered calls cancel, so it is often
            // aimed at an instant nothing is registered for any more —
            // still early enough for this task, and it re-aims itself
            // there.)
            self.inner.wake.notify_one();
        }
        key
    }

    /// Runs `task` after `delay`.
    pub fn after(&self, delay: Duration, task: impl FnOnce() + Send + 'static) -> TimerKey {
        self.at(Instant::now() + delay, task)
    }

    /// Removes a task that has not started; a no-op for one that has.
    pub fn cancel(&self, key: TimerKey) {
        let task = self.inner.state().tasks.remove(&key);
        // Dropped outside the lock: a task may own the last handle of
        // something whose drop takes time.
        drop(task);
    }
}

impl Drop for DeadlineQueue {
    fn drop(&mut self) {
        let (thread, tasks) = {
            let mut state = self.inner.state();
            state.stop = true;
            (state.thread.take(), std::mem::take(&mut state.tasks))
        };
        self.inner.wake.notify_one();
        // What never ran is dropped, not run: every task's captures fail
        // safe on drop (an unsent `Reply` answers `Failed`, a one-shot
        // waiter sees its sender go).
        drop(tasks);
        if let Some(thread) = thread {
            // The last handle can die inside a task, on the queue's own
            // thread, which then ends at its next look at `stop`.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

/// The queue's thread: sleeps until the earliest instant registered, runs
/// what is due with no lock held, and ends when the queue is dropped.
fn queue_thread(inner: &Inner) {
    let mut state = inner.state();
    loop {
        if state.stop {
            return;
        }
        let next = state
            .tasks
            .first_key_value()
            .map(|(&TimerKey(when, _), _)| when);
        let now = Instant::now();
        if next.is_none_or(|when| when > now) {
            state.wakes_at = next;
            state = match next {
                None => inner
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(when) => {
                    inner
                        .wake
                        .wait_timeout(state, when - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            continue;
        }
        let due = state.tasks.pop_first();
        drop(state);
        if let Some((_, task)) = due {
            task();
        }
        state = inner.state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn tasks_run_in_deadline_order_not_registration_order() {
        let queue = DeadlineQueue::new();
        let (tx, rx) = channel();
        let now = Instant::now();
        for (tag, ms) in [(3u8, 60u64), (1, 20), (2, 40)] {
            let tx = tx.clone();
            queue.at(now + Duration::from_millis(ms), move || {
                let _ = tx.send((tag, Instant::now()));
            });
        }
        let ran: Vec<(u8, Instant)> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(ran.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2, 3]);
        for ((_, at), ms) in ran.iter().zip([20u64, 40, 60]) {
            assert!(*at >= now + Duration::from_millis(ms), "ran early");
        }
    }

    #[test]
    fn an_earlier_registration_re_aims_a_sleeping_thread() {
        let queue = DeadlineQueue::new();
        let (tx, rx) = channel();
        let far = tx.clone();
        queue.after(Duration::from_secs(30), move || {
            let _ = far.send("far");
        });
        queue.after(Duration::from_millis(10), move || {
            let _ = tx.send("near");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("near"));
    }

    #[test]
    fn a_cancelled_task_never_runs_and_drop_discards_the_rest() {
        let queue = DeadlineQueue::new();
        let (tx, rx) = channel();
        let cancelled = tx.clone();
        let key = queue.after(Duration::from_millis(20), move || {
            let _ = cancelled.send("cancelled");
        });
        queue.cancel(key);
        let pending = tx.clone();
        queue.after(Duration::from_secs(30), move || {
            let _ = pending.send("pending");
        });
        queue.after(Duration::from_millis(40), move || {
            let _ = tx.send("kept");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("kept"));
        let started = Instant::now();
        drop(queue);
        assert!(started.elapsed() < Duration::from_secs(5), "drop waited");
        // Every sender is gone and nothing else was sent.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn the_last_handle_may_die_inside_a_task() {
        let queue = Arc::new(DeadlineQueue::new());
        let (tx, rx) = channel();
        let held = queue.clone();
        queue.after(Duration::from_millis(5), move || {
            // Runs on the queue's thread and drops the queue there.
            drop(held);
            let _ = tx.send(());
        });
        drop(queue);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(()));
    }
}
