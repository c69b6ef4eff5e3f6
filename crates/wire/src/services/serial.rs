//! Taking turns at an enclave without waiting for it.
//!
//! An enclave runs one ECALL at a time (`Enclave::call` hands out
//! `&mut` state), so a second thread that wants it can only queue. If it
//! queues on the enclave's lock it sleeps, is woken when the lock is
//! released, usually loses the race against the thread that released it
//! and sleeps again — two wasted context switches per ECALL, paid while
//! the enclave idles — and a worker parked there is a worker that does
//! not take the next job. [`Turns`] queues the *work* instead: a caller
//! that finds the enclave busy leaves its task for whoever is using it
//! and returns at once; the thread that is using it runs what was left,
//! back to back, before it goes. One thread at a time computes, nobody
//! waits, and how many workers the server has stops mattering.
//!
//! Tasks marked `first` overtake the others: finishing a request that
//! is already past the LRS (a 30 µs response ECALL) before starting a new
//! one (an RSA-2048 decrypt, ≈ 0.2 ms) keeps the requests in flight
//! few.
//!
//! A service whose ECALL is cheaper per request in a group (the UA: one
//! RSA decrypt each, one ECALL's fixed cost shared) queues the
//! requests themselves in a [`Waiting`] FIFO with [`Turns`] of its own:
//! every push posts one task, and a task takes what has queued, up to a
//! cap, as one group. The thread in the enclave thus finds the requests
//! that arrived during its ECALL waiting together, without anyone
//! waiting for a group to form; a request that finds the enclave free is
//! a group of one.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

type Task = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct State {
    busy: bool,
    first: VecDeque<Task>,
    rest: VecDeque<Task>,
}

/// A serial executor without a thread of its own: tasks run one at a
/// time, on whichever caller found it free.
#[derive(Default)]
pub(crate) struct Turns {
    state: Mutex<State>,
}

/// Ends the running thread's turn if a task unwinds, so the next caller
/// finds the queue free instead of stuck behind a dead holder.
struct Turn<'a>(&'a Turns);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.0.state.lock().busy = false;
    }
}

impl Turns {
    /// Runs `task` now if nothing is running — and then everything left
    /// here meanwhile — or leaves it for the thread that is.
    pub(crate) fn run(&self, first: bool, task: impl FnOnce() + Send + 'static) {
        let mut task: Task = Box::new(task);
        {
            let mut state = self.state.lock();
            if state.busy {
                let queue = if first {
                    &mut state.first
                } else {
                    &mut state.rest
                };
                return queue.push_back(task);
            }
            state.busy = true;
        }
        let turn = Turn(self);
        loop {
            task();
            let mut state = self.state.lock();
            let next = state.first.pop_front().or_else(|| state.rest.pop_front());
            match next {
                Some(next) => task = next,
                None => {
                    // Ended under the same lock that found the queues
                    // empty: a task pushed after this runs on its pusher.
                    state.busy = false;
                    drop(state);
                    return std::mem::forget(turn);
                }
            }
        }
    }
}

/// Requests waiting for a turn at the enclave, oldest first, and the
/// turns that take them in groups.
///
/// Why none is stranded: [`push`](Waiting::push) queues a request and
/// posts one task, and a task that finds the queue non-empty takes at
/// least one request. The tasks not yet run therefore always outnumber
/// the requests waiting, and each request is taken by exactly one of
/// them.
pub(crate) struct Waiting<T> {
    turns: Turns,
    queue: Arc<Mutex<VecDeque<T>>>,
    cap: usize,
}

impl<T: Send + 'static> Waiting<T> {
    /// A queue whose turns take at most `cap` requests each; `cap` must
    /// be at least one.
    pub(crate) fn new(cap: usize) -> Self {
        Waiting {
            turns: Turns::default(),
            queue: Arc::default(),
            cap,
        }
    }

    /// Queues `request` behind those already waiting and posts the turn
    /// that takes it: up to `cap` requests from the front, in arrival
    /// order, handed to `open` as one group. The turn runs on this caller
    /// if the enclave is free, or on the thread that is in it; it does
    /// nothing if an earlier turn already took everything.
    pub(crate) fn push(&self, request: T, open: impl FnOnce(Vec<T>) + Send + 'static) {
        self.queue.lock().push_back(request);
        let (queue, cap) = (self.queue.clone(), self.cap);
        self.turns.run(false, move || {
            let group: Vec<T> = {
                let mut queue = queue.lock();
                let n = queue.len().min(cap);
                queue.drain(..n).collect()
            };
            if !group.is_empty() {
                open(group);
            }
        });
    }

    /// Requests waiting now.
    pub(crate) fn len(&self) -> usize {
        self.queue.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, unbounded};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    #[test]
    fn a_busy_queue_takes_the_task_and_lets_the_caller_go() {
        let turns = Arc::new(Turns::default());
        let (started_tx, started_rx) = bounded(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let (ran_tx, ran_rx) = unbounded();
        let holder = {
            let (turns, ran) = (turns.clone(), ran_tx.clone());
            std::thread::spawn(move || {
                turns.run(false, move || {
                    let _ = started_tx.send(());
                    let _ = release_rx.recv();
                    let _ = ran.send(("held", std::thread::current().id()));
                });
            })
        };
        started_rx.recv().unwrap();
        // The holder is inside its task: these return without running.
        for (name, first) in [("late", false), ("urgent", true)] {
            let ran = ran_tx.clone();
            turns.run(first, move || {
                let _ = ran.send((name, std::thread::current().id()));
            });
        }
        assert!(ran_rx.try_recv().is_err(), "a task ran on the caller");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        let ran: Vec<_> = std::iter::from_fn(|| ran_rx.try_recv().ok()).collect();
        // All on the holder's thread; the `first` task overtook.
        assert_eq!(
            ran.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["held", "urgent", "late"]
        );
        assert!(ran.iter().all(|r| r.1 == ran[0].1));
        assert_ne!(ran[0].1, std::thread::current().id());
    }

    #[test]
    fn every_task_runs_once_and_never_two_at_a_time() {
        let turns = Arc::new(Turns::default());
        let inside = Arc::new(AtomicUsize::new(0));
        let ran = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (turns, inside, ran) = (turns.clone(), inside.clone(), ran.clone());
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let (inside, ran) = (inside.clone(), ran.clone());
                        turns.run(i % 3 == 0, move || {
                            assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                            std::hint::spin_loop();
                            inside.fetch_sub(1, Ordering::SeqCst);
                            ran.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 2000);
        // Free again: the next task runs on its caller.
        let here = std::thread::current().id();
        let (tx, rx) = bounded(1);
        turns.run(false, move || {
            let _ = tx.send(std::thread::current().id());
        });
        assert_eq!(rx.try_recv(), Ok(here));
    }

    #[test]
    fn queued_requests_are_taken_once_each_in_order_and_capped() {
        const CAP: usize = 8;
        let waiting = Arc::new(Waiting::<(usize, usize)>::new(CAP));
        let taken = Arc::new(Mutex::new(Vec::new()));
        let start = Arc::new(Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|pusher| {
                let (waiting, taken) = (waiting.clone(), taken.clone());
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        let taken = taken.clone();
                        waiting.push((pusher, i), move |group| {
                            assert!(!group.is_empty() && group.len() <= CAP);
                            taken.lock().push(group);
                            // An ECALL's worth of time, scaled down, so
                            // that requests queue behind the holder.
                            let until = Instant::now() + Duration::from_micros(20);
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Nothing is stranded, and every request left in exactly one group.
        assert_eq!(waiting.len(), 0);
        let groups = std::mem::take(&mut *taken.lock());
        let all: Vec<(usize, usize)> = groups.iter().flatten().copied().collect();
        assert_eq!(all.len(), 2000);
        // Requests did queue, up to the cap.
        assert!(groups.iter().any(|g| g.len() == CAP), "no full group");
        // Each pusher's requests were taken in the order it queued them.
        for pusher in 0..4 {
            let mine: Vec<usize> = all.iter().filter(|r| r.0 == pusher).map(|r| r.1).collect();
            assert_eq!(mine, (0..500).collect::<Vec<_>>(), "pusher {pusher}");
        }
    }

    #[test]
    fn a_task_that_unwinds_frees_the_queue() {
        let turns = Arc::new(Turns::default());
        let t = turns.clone();
        let _ = std::thread::spawn(move || t.run(false, || panic!("task failed"))).join();
        let (tx, rx) = bounded(1);
        turns.run(false, move || {
            let _ = tx.send(());
        });
        assert_eq!(rx.try_recv(), Ok(()));
    }
}
