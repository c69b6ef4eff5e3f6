//! Offline stand-in for the [`loom`](https://docs.rs/loom) concurrency
//! model checker.
//!
//! The build environment has no registry access, so this shim reimplements
//! the subset of loom's API the workspace uses: [`model`],
//! [`thread::spawn`]/[`thread::JoinHandle`], and the
//! [`sync::atomic`] wrappers. Code under test swaps `std::sync::atomic`
//! for `loom::sync::atomic` when built with `RUSTFLAGS="--cfg loom"`, and
//! each test body runs inside [`model`], which executes it many times
//! under *different thread interleavings*.
//!
//! # How interleavings are explored
//!
//! Unlike real loom (exhaustive DPOR over the C11 memory model), this shim
//! is a bounded-preemption explorer over *sequentially consistent*
//! interleavings:
//!
//! * All controlled threads are serialized — exactly one runs at a time,
//!   handing control back to a central scheduler at every atomic
//!   operation, spawn, join, and explicit yield.
//! * Each execution follows a schedule derived deterministically from an
//!   iteration seed: at every atomic operation the scheduler may preempt
//!   the running thread (budgeted, default 3 preemptions per execution —
//!   the "few preemption points suffice" insight of bounded model
//!   checking), and at every voluntary point it picks the next runnable
//!   thread pseudo-randomly.
//! * A fixed number of seeds (default 300, `LOOM_ITERS`) is explored per
//!   [`model`] call. Any panic in any controlled thread aborts the run and
//!   is re-raised with the offending seed, so counterexamples reproduce.
//!
//! The trade-off is explicit: weak-memory reorderings (`Relaxed` store
//! buffering and friends) are **not** modeled — the checker validates the
//! interleaving-level protocol (seqlock version discipline, counter
//! accounting), while the ordering-level argument is carried by the
//! `pprox-analysis` R7/R8 static rules. Within that scope the exploration
//! is deterministic and reproducible.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default number of schedule seeds explored per [`model`] call.
pub const DEFAULT_ITERS: usize = 300;

/// Default preemption budget per execution (matches loom's notion of
/// bounded preemptions; override with `LOOM_MAX_PREEMPTIONS`).
pub const DEFAULT_MAX_PREEMPTIONS: u32 = 3;

/// How long a single execution may go without a scheduling event before
/// the driver declares it hung.
const HANG_TIMEOUT: Duration = Duration::from_secs(30);

struct State {
    /// Thread currently granted the right to run, if any.
    active: Option<usize>,
    /// Threads ready to run (neither active, finished, nor blocked).
    runnable: Vec<usize>,
    finished: Vec<bool>,
    /// `waiting_on[i] = Some(j)` — thread `i` is blocked joining `j`.
    waiting_on: Vec<Option<usize>>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
    preemptions_left: u32,
    rng: u64,
    panicked: bool,
    panic_msg: Option<String>,
}

impl State {
    fn next_rand(&mut self) -> u64 {
        // Deterministic LCG: execution is fully serialized, so the draw
        // order — and therefore the whole schedule — is a pure function of
        // the seed.
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng >> 33
    }

    fn all_finished(&self) -> bool {
        self.finished.iter().all(|f| *f)
    }

    fn unblock_joiners_of(&mut self, target: usize) {
        for i in 0..self.waiting_on.len() {
            if self.waiting_on[i] == Some(target) {
                self.waiting_on[i] = None;
                self.runnable.push(i);
            }
        }
    }
}

struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Scheduler>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

impl Scheduler {
    fn new(seed: u64, preemptions: u32) -> Scheduler {
        Scheduler {
            state: Mutex::new(State {
                active: None,
                runnable: Vec::new(),
                finished: Vec::new(),
                waiting_on: Vec::new(),
                os_handles: Vec::new(),
                preemptions_left: preemptions,
                // Avoid the all-zero LCG fixed point and decorrelate seeds.
                rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
                panicked: false,
                panic_msg: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Adds a new controlled thread and marks it runnable.
    fn register(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        let id = st.finished.len();
        st.finished.push(false);
        st.waiting_on.push(None);
        st.runnable.push(id);
        id
    }

    fn wait_for_turn(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        while st.active != Some(id) {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// A scheduling point. Voluntary points (spawn, yield_now) always
    /// reschedule; involuntary ones (atomic ops) preempt only while the
    /// bounded budget lasts, with probability 1/3 per draw.
    fn yield_point(&self, me: usize, voluntary: bool) {
        let mut st = self.state.lock().unwrap();
        if st.active != Some(me) {
            return; // called outside its turn (model teardown); ignore
        }
        let preempt = if st.runnable.is_empty() {
            false
        } else if voluntary {
            true
        } else if st.preemptions_left > 0 && st.next_rand().is_multiple_of(3) {
            st.preemptions_left -= 1;
            true
        } else {
            false
        };
        if preempt {
            st.runnable.push(me);
            st.active = None;
            self.cv.notify_all();
            while st.active != Some(me) {
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    fn block_join(&self, me: usize, target: usize) {
        let mut st = self.state.lock().unwrap();
        if st.finished[target] {
            return;
        }
        st.waiting_on[me] = Some(target);
        st.active = None;
        self.cv.notify_all();
        while st.active != Some(me) {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn finish(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.state.lock().unwrap();
        st.finished[me] = true;
        if let Some(msg) = panic_msg {
            st.panicked = true;
            st.panic_msg.get_or_insert(msg);
        }
        st.unblock_joiners_of(me);
        st.active = None;
        self.cv.notify_all();
    }

    /// Runs the schedule to completion on the caller's (uncontrolled)
    /// thread; returns the first panic message if any controlled thread
    /// failed.
    fn drive(&self) -> Option<String> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.all_finished() {
                return st.panic_msg.take();
            }
            if st.active.is_none() {
                if st.runnable.is_empty() {
                    panic!(
                        "loom-shim: deadlock — {} thread(s) blocked with none runnable",
                        st.finished.iter().filter(|f| !**f).count()
                    );
                }
                let idx = (st.next_rand() as usize) % st.runnable.len();
                let id = st.runnable.swap_remove(idx);
                st.active = Some(id);
                self.cv.notify_all();
            }
            let (guard, timeout) = self.cv.wait_timeout(st, HANG_TIMEOUT).unwrap();
            st = guard;
            if timeout.timed_out() && !st.all_finished() {
                panic!("loom-shim: execution made no progress for {HANG_TIMEOUT:?}");
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Explores interleavings of `f`: runs it once per schedule seed under the
/// cooperative scheduler. Panics (with the seed) on the first execution
/// where any controlled thread panics — the counterexample.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let iters = env_usize("LOOM_ITERS", DEFAULT_ITERS);
    let preemptions = env_usize("LOOM_MAX_PREEMPTIONS", DEFAULT_MAX_PREEMPTIONS as usize) as u32;
    for seed in 0..iters as u64 {
        let sched = Arc::new(Scheduler::new(seed, preemptions));
        let root = sched.register();
        let (s2, fc) = (Arc::clone(&sched), Arc::clone(&f));
        let root_handle = std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&s2), root)));
            s2.wait_for_turn(root);
            let result = catch_unwind(AssertUnwindSafe(|| fc()));
            let msg = result.err().map(|p| panic_message(p.as_ref()));
            s2.finish(root, msg);
        });
        let failure = sched.drive();
        let children = std::mem::take(&mut sched.state.lock().unwrap().os_handles);
        for h in children {
            let _ = h.join();
        }
        let _ = root_handle.join();
        if let Some(msg) = failure {
            panic!(
                "loom-shim: counterexample at schedule seed {seed} \
                 (of {iters} explored, preemption budget {preemptions}): {msg}"
            );
        }
    }
}

/// Controlled-thread handles, mirroring `loom::thread`.
pub mod thread {
    use super::{current, panic_message, Arc, AssertUnwindSafe, Mutex, Scheduler};
    use std::panic::catch_unwind;

    /// Handle to a controlled thread; `join` is a scheduling point.
    pub struct JoinHandle<T> {
        target: usize,
        result: Arc<Mutex<Option<std::thread::Result<T>>>>,
        sched: Arc<Scheduler>,
    }

    impl<T> JoinHandle<T> {
        /// Blocks (in model time) until the target thread finishes, then
        /// yields its result exactly like `std::thread::JoinHandle::join`.
        pub fn join(self) -> std::thread::Result<T> {
            let (sched, me) = current().expect("join outside loom::model");
            assert!(
                Arc::ptr_eq(&sched, &self.sched),
                "join across model executions"
            );
            sched.block_join(me, self.target);
            self.result
                .lock()
                .unwrap()
                .take()
                .expect("joined thread recorded no result")
        }
    }

    /// Spawns a controlled thread inside the current model execution.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (sched, me) = current().expect("loom::thread::spawn outside loom::model");
        let id = sched.register();
        let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
        let (s2, r2) = (Arc::clone(&sched), Arc::clone(&result));
        let os = std::thread::spawn(move || {
            super::CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&s2), id)));
            s2.wait_for_turn(id);
            let out = catch_unwind(AssertUnwindSafe(f));
            let msg = out.as_ref().err().map(|p| panic_message(&**p));
            *r2.lock().unwrap() = Some(out);
            s2.finish(id, msg);
        });
        sched.state.lock().unwrap().os_handles.push(os);
        // Spawning is a voluntary scheduling point: the child may run first.
        sched.yield_point(me, true);
        JoinHandle {
            target: id,
            result,
            sched,
        }
    }

    /// Voluntarily offers the scheduler a switch point.
    pub fn yield_now() {
        if let Some((sched, me)) = current() {
            sched.yield_point(me, true);
        }
    }
}

/// `loom::sync` — atomics (instrumented) and `Arc` (std's, re-exported).
pub mod sync {
    pub use std::sync::Arc;

    /// Atomic types whose every operation is a potential preemption point.
    pub mod atomic {
        use super::super::current;
        pub use std::sync::atomic::Ordering;

        fn preemption_point() {
            if let Some((sched, me)) = current() {
                sched.yield_point(me, false);
            }
        }

        /// An atomic fence; a scheduling point like any other atomic op.
        /// (Ordering effects need no modeling: execution is sequentially
        /// consistent by construction here.)
        pub fn fence(order: Ordering) {
            preemption_point();
            std::sync::atomic::fence(order);
        }

        macro_rules! atomic_shim {
            ($(#[$doc:meta])* $name:ident, $std:ident, $raw:ty) => {
                $(#[$doc])*
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: std::sync::atomic::$std,
                }

                impl $name {
                    /// Creates the atomic with an initial value.
                    pub fn new(v: $raw) -> Self {
                        $name { inner: std::sync::atomic::$std::new(v) }
                    }

                    /// Instrumented `load`.
                    pub fn load(&self, order: Ordering) -> $raw {
                        preemption_point();
                        self.inner.load(order)
                    }

                    /// Instrumented `store`.
                    pub fn store(&self, v: $raw, order: Ordering) {
                        preemption_point();
                        self.inner.store(v, order);
                    }

                    /// Instrumented `swap`.
                    pub fn swap(&self, v: $raw, order: Ordering) -> $raw {
                        preemption_point();
                        self.inner.swap(v, order)
                    }

                    /// Instrumented `fetch_add`.
                    pub fn fetch_add(&self, v: $raw, order: Ordering) -> $raw {
                        preemption_point();
                        self.inner.fetch_add(v, order)
                    }

                    /// Instrumented `fetch_sub`.
                    pub fn fetch_sub(&self, v: $raw, order: Ordering) -> $raw {
                        preemption_point();
                        self.inner.fetch_sub(v, order)
                    }

                    /// Instrumented `fetch_max`.
                    pub fn fetch_max(&self, v: $raw, order: Ordering) -> $raw {
                        preemption_point();
                        self.inner.fetch_max(v, order)
                    }

                    /// Instrumented `compare_exchange`.
                    pub fn compare_exchange(
                        &self,
                        cur: $raw,
                        new: $raw,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$raw, $raw> {
                        preemption_point();
                        self.inner.compare_exchange(cur, new, success, failure)
                    }

                    /// Uninstrumented read for post-model assertions.
                    pub fn into_inner(self) -> $raw {
                        self.inner.into_inner()
                    }
                }
            };
        }

        atomic_shim!(
            /// Instrumented `AtomicU64`.
            AtomicU64,
            AtomicU64,
            u64
        );
        atomic_shim!(
            /// Instrumented `AtomicU32`.
            AtomicU32,
            AtomicU32,
            u32
        );
        atomic_shim!(
            /// Instrumented `AtomicUsize`.
            AtomicUsize,
            AtomicUsize,
            usize
        );
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::Arc;
    use super::thread;

    #[test]
    fn model_runs_and_joins() {
        std::env::set_var("LOOM_ITERS", "40");
        super::model(|| {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let t = thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
                7u64
            });
            a.fetch_add(1, Ordering::SeqCst);
            assert_eq!(t.join().unwrap(), 7);
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn interleavings_actually_vary() {
        // A racy check-then-set: across seeds, both outcomes must appear,
        // proving the scheduler explores more than one interleaving.
        use std::sync::atomic::AtomicBool;
        static SAW_RACE: AtomicBool = AtomicBool::new(false);
        static SAW_CLEAN: AtomicBool = AtomicBool::new(false);
        std::env::set_var("LOOM_ITERS", "120");
        super::model(|| {
            let a = Arc::new(AtomicU64::new(0));
            let (a1, a2) = (Arc::clone(&a), Arc::clone(&a));
            let t1 = thread::spawn(move || {
                let seen = a1.load(Ordering::SeqCst);
                a1.store(seen + 1, Ordering::SeqCst);
            });
            let t2 = thread::spawn(move || {
                let seen = a2.load(Ordering::SeqCst);
                a2.store(seen + 1, Ordering::SeqCst);
            });
            t1.join().unwrap();
            t2.join().unwrap();
            match a.load(Ordering::SeqCst) {
                1 => SAW_RACE.store(true, std::sync::atomic::Ordering::Relaxed),
                2 => SAW_CLEAN.store(true, std::sync::atomic::Ordering::Relaxed),
                other => panic!("impossible count {other}"),
            }
        });
        assert!(SAW_RACE.load(std::sync::atomic::Ordering::Relaxed));
        assert!(SAW_CLEAN.load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "counterexample")]
    fn counterexamples_surface_with_seed() {
        std::env::set_var("LOOM_ITERS", "120");
        super::model(|| {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let t = thread::spawn(move || a2.store(1, Ordering::SeqCst));
            // Racy assertion: fails on schedules where the child ran first.
            assert_eq!(a.load(Ordering::SeqCst), 0, "child ran before parent");
            t.join().unwrap();
        });
    }
}
