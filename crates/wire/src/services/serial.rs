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
//! few. The others run in the order they were left, so requests
//! reach the enclave in the order they arrived.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// One piece of work for the enclave.
pub(crate) type Task = Box<dyn FnOnce() + Send>;

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
        self.run_all(first, vec![Box::new(task)]);
    }

    /// [`Turns::run`] for several tasks in order, left in one step: no
    /// task another caller leaves meanwhile lands between them, so what
    /// one caller hands over in arrival order runs in arrival order.
    pub(crate) fn run_all(&self, first: bool, tasks: Vec<Task>) {
        let mut task = {
            let mut state = self.state.lock();
            let queue = if first {
                &mut state.first
            } else {
                &mut state.rest
            };
            queue.extend(tasks);
            if state.busy {
                return;
            }
            // Not busy, so nothing else was waiting: the next task is the
            // first of these.
            let Some(task) = state.first.pop_front().or_else(|| state.rest.pop_front()) else {
                return;
            };
            state.busy = true;
            task
        };
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

    /// Tasks left here and not yet run.
    pub(crate) fn queued(&self) -> usize {
        let state = self.state.lock();
        state.first.len() + state.rest.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, sync_channel};
    use std::sync::Arc;

    #[test]
    fn a_busy_queue_takes_the_task_and_lets_the_caller_go() {
        let turns = Arc::new(Turns::default());
        let (started_tx, started_rx) = sync_channel(1);
        let (release_tx, release_rx) = sync_channel::<()>(1);
        let (ran_tx, ran_rx) = channel();
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
        for (name, first) in [("late", false), ("urgent", true), ("later", false)] {
            let ran = ran_tx.clone();
            turns.run(first, move || {
                let _ = ran.send((name, std::thread::current().id()));
            });
        }
        assert!(ran_rx.try_recv().is_err(), "a task ran on the caller");
        assert_eq!(turns.queued(), 3);
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        let ran: Vec<_> = std::iter::from_fn(|| ran_rx.try_recv().ok()).collect();
        // All on the holder's thread; the `first` task overtook, the
        // others kept their order.
        assert_eq!(
            ran.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["held", "urgent", "late", "later"]
        );
        assert_eq!(turns.queued(), 0);
        assert!(ran.iter().all(|r| r.1 == ran[0].1));
        assert_ne!(ran[0].1, std::thread::current().id());
    }

    #[test]
    fn tasks_left_in_one_step_are_not_overtaken_by_a_later_caller() {
        // The caller of `run_all` takes the turn and is held in its first
        // task; a task another caller leaves meanwhile runs after all of
        // the batch, not between its tasks.
        let turns = Arc::new(Turns::default());
        let (started_tx, started_rx) = sync_channel(1);
        let (release_tx, release_rx) = sync_channel::<()>(1);
        let (ran_tx, ran_rx) = channel();
        let holder = {
            let (turns, ran) = (turns.clone(), ran_tx.clone());
            std::thread::spawn(move || {
                let mut batch: Vec<Task> = Vec::new();
                let first = ran.clone();
                batch.push(Box::new(move || {
                    let _ = started_tx.send(());
                    let _ = release_rx.recv();
                    let _ = first.send("a1");
                }));
                for name in ["a2", "a3"] {
                    let ran = ran.clone();
                    batch.push(Box::new(move || {
                        let _ = ran.send(name);
                    }));
                }
                turns.run_all(false, batch);
            })
        };
        started_rx.recv().unwrap();
        turns.run(false, move || {
            let _ = ran_tx.send("b");
        });
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        let ran: Vec<_> = std::iter::from_fn(|| ran_rx.try_recv().ok()).collect();
        assert_eq!(ran, ["a1", "a2", "a3", "b"]);
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
        let (tx, rx) = sync_channel(1);
        turns.run(false, move || {
            let _ = tx.send(std::thread::current().id());
        });
        assert_eq!(rx.try_recv(), Ok(here));
    }

    #[test]
    fn a_task_that_unwinds_frees_the_queue() {
        let turns = Arc::new(Turns::default());
        let t = turns.clone();
        let _ = std::thread::spawn(move || t.run(false, || panic!("task failed"))).join();
        let (tx, rx) = sync_channel(1);
        turns.run(false, move || {
            let _ = tx.send(());
        });
        assert_eq!(rx.try_recv(), Ok(()));
    }
}
