//! Model-checked interleaving tests for the `WireServer` reader → job
//! queue → worker handoff, run with `RUSTFLAGS="--cfg loom"` (see
//! `scripts/ci.sh`, `loom` stage).
//!
//! The server's shutdown contract is: every connection's reader admits
//! jobs into one bounded queue, workers claim them, and a graceful drain
//! — the acceptor exits, then every reader is closed, and only the last
//! reader to leave drops the queue's last sender — must not strand any
//! admitted job: every admitted request still gets an answer, exactly
//! once, and its admission permit comes back. That is a race between
//! *worker pickup* (claim a slot) and *drain* (observe "no sender left"
//! plus "empty" and exit): a worker that checks emptiness before a
//! reader's final publish, then sees the last sender gone, could exit
//! with work still queued if the protocol ordered its loads wrong.
//!
//! These tests model the handoff with the loom shim's instrumented
//! atomics — readers reserve a slot by CAS on `reserved` and publish by
//! storing the job, workers claim by CAS on `head`, a reader gives up
//! its sender *after* its last publish — and assert under every explored
//! schedule:
//!
//! * every admitted job is answered exactly once (no strands, no dups);
//! * workers terminate (no drain signal is lost);
//! * every admission permit is released, also when the job's peer has
//!   closed and the reply cannot be written.

#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Connections (one reader each) in the model.
const CONNS: usize = 2;
/// Bounded queue depth: small, so `Full` (answered `busy`) is explored.
const QUEUE_CAP: usize = 2;
/// Admission gate size.
const MAX_INFLIGHT: u64 = 3;
/// Slots in the ring; never wraps (more than any test enqueues).
const RING: usize = 8;

/// What one reader admitted: (jobs, sum of their payloads).
type Admitted = (u64, u64);

/// The handoff state: a multi-producer bounded ring with CAS-claiming
/// consumers — the shape of the server's reader → worker queue.
struct Handoff {
    /// Job payloads; 0 means "reserved, not yet published".
    slots: [AtomicU64; RING],
    /// Next slot a reader may reserve (`compare_exchange`).
    reserved: AtomicUsize,
    /// Next slot a worker may claim (`compare_exchange`).
    head: AtomicUsize,
    /// Live senders: the acceptor's original plus one clone per reader.
    /// Workers may exit only on `senders == 0 && empty`.
    senders: AtomicUsize,
    /// Admission permits out (the gate).
    in_flight: AtomicU64,
    /// Set by shutdown's `shutdown(Read)`: the reader's next read is EOF.
    read_closed: [AtomicU64; CONNS],
    /// Cleared when the peer closes: writes to it fail from then on.
    peer_open: [AtomicU64; CONNS],
    /// Cleared by the first failed write (the connection is cut).
    alive: [AtomicU64; CONNS],
    /// Jobs a worker finished, and the sum of their payloads (catches a
    /// slot claimed twice).
    answered: AtomicU64,
    answered_sum: AtomicU64,
    /// Replies written, and replies that found the peer gone.
    written: AtomicU64,
    write_failed: AtomicU64,
}

fn zeros<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

fn ones<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(1))
}

impl Handoff {
    /// A server with `readers` connections accepted and the acceptor
    /// still running (it holds the queue's original sender).
    fn new(readers: usize) -> Self {
        Handoff {
            slots: zeros(),
            reserved: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            senders: AtomicUsize::new(readers + 1),
            in_flight: AtomicU64::new(0),
            read_closed: zeros(),
            peer_open: ones(),
            alive: ones(),
            answered: AtomicU64::new(0),
            answered_sum: AtomicU64::new(0),
            written: AtomicU64::new(0),
            write_failed: AtomicU64::new(0),
        }
    }

    /// The bounded queue's `try_send`: `false` is `Full`.
    fn try_send(&self, job: u64) -> bool {
        loop {
            // `head` first: it never passes `reserved`, so the depth
            // below is an overestimate at worst (a spurious `Full`).
            let h = self.head.load(Ordering::Acquire);
            let r = self.reserved.load(Ordering::Acquire);
            if r - h >= QUEUE_CAP {
                return false;
            }
            if self
                .reserved
                .compare_exchange(r, r + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.slots[r].store(job, Ordering::Release);
                return true;
            }
        }
    }

    /// Reader side: admit up to `frames` requests of connection `conn`
    /// until its read half is closed, then give up the sender. The
    /// `AcqRel` decrement of `senders` *after* the last publish is the
    /// ordering under test.
    fn read(&self, conn: usize, frames: u64) -> Admitted {
        let mut admitted = (0, 0);
        for seq in 1..=frames {
            if self.read_closed[conn].load(Ordering::Acquire) == 1 {
                break;
            }
            if self.in_flight.fetch_add(1, Ordering::AcqRel) >= MAX_INFLIGHT {
                self.in_flight.fetch_sub(1, Ordering::AcqRel); // gate full: `busy`
                continue;
            }
            let job = (conn as u64 + 1) * 100 + seq;
            if self.try_send(job) {
                admitted = (admitted.0 + 1, admitted.1 + job);
            } else {
                self.in_flight.fetch_sub(1, Ordering::AcqRel); // queue full: `busy`
            }
        }
        self.senders.fetch_sub(1, Ordering::AcqRel);
        admitted
    }

    /// Worker side: claim-by-CAS, write the reply, release the permit;
    /// exit when no sender is left and the queue is drained.
    fn work(&self) {
        // The shim's scheduler is deterministic, so a bounded spin is
        // enough: the other threads always make progress between yields.
        for _ in 0..512 {
            let h = self.head.load(Ordering::Acquire);
            if h < self.reserved.load(Ordering::Acquire) {
                let job = self.slots[h].load(Ordering::Acquire);
                // An unpublished slot is a reader mid-`try_send`: wait.
                if job != 0
                    && self
                        .head
                        .compare_exchange(h, h + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    self.reply((job / 100 - 1) as usize);
                    self.answered.fetch_add(1, Ordering::Relaxed);
                    self.answered_sum.fetch_add(job, Ordering::Relaxed);
                    // Whatever the write did, the permit comes back.
                    self.in_flight.fetch_sub(1, Ordering::AcqRel);
                } else {
                    thread::yield_now();
                }
                continue;
            }
            // Empty right now — but only "no sender left" makes that
            // final, and `reserved` must be re-read *after* `senders` so
            // a publish racing the last reader's exit is never missed.
            if self.senders.load(Ordering::Acquire) == 0
                && self.head.load(Ordering::Acquire) == self.reserved.load(Ordering::Acquire)
            {
                return;
            }
            thread::yield_now();
        }
        panic!("worker failed to drain within the spin budget");
    }

    /// The worker's direct write: fails once the peer has closed, and
    /// the first failure cuts the connection for every later reply.
    fn reply(&self, conn: usize) {
        if self.alive[conn].load(Ordering::Acquire) == 1
            && self.peer_open[conn].load(Ordering::Acquire) == 1
        {
            self.written.fetch_add(1, Ordering::Relaxed);
        } else {
            self.alive[conn].store(0, Ordering::Release);
            self.write_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `WireServer::shutdown` up to the joins: the acceptor exits (the
    /// original sender drops), then every connection's read half closes.
    fn begin_shutdown(&self) {
        self.senders.fetch_sub(1, Ordering::AcqRel);
        for closed in &self.read_closed {
            closed.store(1, Ordering::Release);
        }
    }
}

/// Two workers race two readers while shutdown lands somewhere between
/// their admissions: every admitted job must be answered exactly once
/// and every permit released, under every schedule.
#[test]
fn graceful_drain_answers_every_admitted_job() {
    loom::model(|| {
        let q = Arc::new(Handoff::new(CONNS));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.work())
            })
            .collect();
        let readers: Vec<_> = (0..CONNS)
            .map(|conn| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.read(conn, 2))
            })
            .collect();

        q.begin_shutdown();

        let (mut jobs, mut sum) = (0, 0);
        for reader in readers {
            let admitted = reader.join().expect("reader");
            jobs += admitted.0;
            sum += admitted.1;
        }
        for worker in workers {
            worker.join().expect("worker");
        }

        assert_eq!(
            q.answered.load(Ordering::Relaxed),
            jobs,
            "admitted jobs stranded or double-claimed across the drain"
        );
        assert_eq!(
            q.answered_sum.load(Ordering::Relaxed),
            sum,
            "a slot was claimed twice or a payload was torn"
        );
        assert_eq!(q.written.load(Ordering::Relaxed), jobs);
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 0, "a permit leaked");
    });
}

/// The tightest pickup-vs-drain race: one reader, one frame, one worker,
/// with shutdown started at once. The worker may observe "no sender
/// left" before it ever sees the job — it must still answer it (the
/// empty check has to re-read `reserved` after `senders`).
#[test]
fn last_sender_leaving_does_not_strand_the_last_job() {
    loom::model(|| {
        let q = Arc::new(Handoff::new(1));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.work())
        };
        let reader = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.read(0, 1))
        };

        q.begin_shutdown();

        let (jobs, sum) = reader.join().expect("reader");
        worker.join().expect("worker");
        assert_eq!(
            q.answered.load(Ordering::Relaxed),
            jobs,
            "the final pre-drain job was stranded"
        );
        assert_eq!(q.answered_sum.load(Ordering::Relaxed), sum);
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 0, "a permit leaked");
    });
}

/// The peer closes while its jobs are in the queue: the reader sees EOF
/// and leaves, the worker's write fails — and the jobs are still
/// finished exactly once, with their permits released.
#[test]
fn peer_closing_with_jobs_queued_still_releases_the_permits() {
    // Across schedules, not per schedule: proof that the explored set
    // contains the failed write this test is about.
    static FAILED_WRITES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    loom::model(|| {
        let q = Arc::new(Handoff::new(1));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.work())
        };
        let reader = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let admitted = q.read(0, 2);
                q.peer_open[0].store(0, Ordering::Release);
                admitted
            })
        };
        let (jobs, _) = reader.join().expect("reader");
        assert_eq!(jobs, 2, "an idle server admits both requests");

        q.begin_shutdown();
        worker.join().expect("worker");

        let written = q.written.load(Ordering::Relaxed);
        let failed = q.write_failed.load(Ordering::Relaxed);
        assert_eq!(q.answered.load(Ordering::Relaxed), jobs);
        assert_eq!(written + failed, jobs, "a job finished twice or never");
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 0, "a permit leaked");
        // Writes that ran before the close succeeded; once one failed
        // the connection stays cut.
        if failed > 0 {
            assert_eq!(q.alive[0].load(Ordering::Relaxed), 0);
        }
        FAILED_WRITES.fetch_add(failed, Ordering::Relaxed);
    });
    assert!(
        FAILED_WRITES.load(Ordering::Relaxed) > 0,
        "no explored schedule wrote to the closed peer"
    );
}
