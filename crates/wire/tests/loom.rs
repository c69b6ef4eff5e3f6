//! Model-checked interleaving tests for the `WireServer` request path,
//! run with `RUSTFLAGS="--cfg loom"` (see `scripts/ci.sh`, `loom` stage).
//!
//! Four hand-offs carry a request, and all are modelled here with the
//! loom shim's instrumented atomics.
//!
//! **Reader → job queue → worker.** Every connection's reader admits
//! requests at the gate and queues what a pass admitted as one job on the
//! server's queue, under the lock of its table of unanswered requests (a
//! spin lock here; each pass is one frame). The queue has no capacity of
//! its own: every request in it holds a permit, so a push never fails.
//! Workers pop under the same lock, and wait while it is empty and open.
//! Shutdown closes the read half of every connection, joins the readers,
//! and only then closes the queue; a worker leaves when the queue is
//! closed *and* empty. The race under test is a close landing while a
//! worker waits on an empty queue, with a reader's last push just before
//! it: the worker must still take that job. (The real wait is a
//! condition variable that the close notifies; here it is a yield and a
//! re-check under the lock, so a lost wake-up is not modelled.)
//!
//! **Worker → pending → completion.** A worker does not answer a request
//! that has to wait: it registers a call in the uplink's table of pending
//! calls and goes for the next job. From then on the request is finished
//! by whoever takes the call out of that table first — the uplink's
//! reader with the reply, the deadline queue at expiry, or the connection
//! loss that empties the table — and that completion answers the peer by
//! taking the request out of the server's table of unanswered requests,
//! which it races the shutdown that fails what outlives the drain budget
//! for. Each table's `remove` is one atomic swap here (it is a map
//! operation under a mutex there).
//!
//! **Turn → request buffer → submit.** With shuffling on, the UA's turn
//! for a request puts it into the request buffer, which has no thread of
//! its own: the put that fills it submits the batch, and the put that
//! makes it non-empty arms a flush timer naming the batch, whose release
//! is another turn. A timer that outlives its batch must submit nothing,
//! and a buffered batch must never be left without a live timer
//! ([`BufferModel`]).
//!
//! **Completion → gather → release.** With shuffling on, a completion
//! does not answer its request either: it puts the answer into the
//! gather of the request's batch, and the answers leave together — with
//! the push that brings the last one, with the cap on the oldest held
//! answer, or with the graceful drain, after which an answer that finds
//! no gather passes straight through ([`GatherModel`]).
//!
//! Asserted under every explored schedule:
//!
//! * every admitted request is answered exactly once (no strands, no
//!   dups), whichever of reply, expiry, connection loss and drain got
//!   there first;
//! * its admission permit is released exactly once, also when the peer
//!   has closed and the reply cannot be written;
//! * the queue never holds more than the requests admitted and not yet
//!   answered;
//! * workers and readers terminate (no close is missed);
//! * every buffered request is submitted exactly once, a stale flush
//!   timer submits nothing, and no buffered batch is without a live one.

#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Connections (one reader each) in the model.
const CONNS: usize = 2;
/// Admission gate size: below the four frames of the two-reader tests, so
/// `busy` is explored.
const MAX_INFLIGHT: u64 = 3;
/// Queue positions; never wraps (more than any test queues).
const RING: usize = 8;

/// What one reader admitted: (jobs, sum of their payloads).
type Admitted = (u64, u64);

/// The handoff state: the server's job queue under the lock of its table
/// of unanswered requests, popped by several workers.
struct Handoff {
    /// The table's lock (a spin lock): `slots`, `tail`, `head` and
    /// `closed` are read and written only under it.
    lock: AtomicU64,
    /// Job payloads by queue position.
    slots: [AtomicU64; RING],
    /// Next position a reader queues at.
    tail: AtomicUsize,
    /// Next position a worker pops.
    head: AtomicUsize,
    /// Set by shutdown after every reader has been joined.
    closed: AtomicU64,
    /// Times a worker found the queue empty and open, and waited.
    waits: AtomicU64,
    /// Admission permits out (the gate).
    in_flight: AtomicU64,
    /// Set by shutdown's `shutdown(Read)`: the reader's next read is EOF.
    read_closed: [AtomicU64; CONNS],
    /// Cleared when the peer closes: writes to it fail from then on.
    peer_open: [AtomicU64; CONNS],
    /// Cleared by the first failed write (the connection is cut).
    alive: [AtomicU64; CONNS],
    /// Set for the tests of the pending path: a worker parks what it
    /// claims on the uplink instead of answering it.
    parks: bool,
    /// The server's table of unanswered requests, by queue position: 1
    /// while the request is admitted and unanswered. `swap(0)` is its
    /// `remove`.
    unanswered: [AtomicU64; RING],
    /// The uplink's table of pending calls, by queue position: 1 while
    /// the call waits. `swap(0)` is its `remove`.
    pending: [AtomicU64; RING],
    /// Cleared by connection loss: nothing registers any more.
    uplink_open: AtomicU64,
    /// Answers written or attempted per request (exactly one, each).
    answers: [AtomicU64; RING],
    /// Jobs a worker took, and the sum of their payloads (catches a
    /// position popped twice).
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
    /// A server with its connections accepted and its queue open.
    fn new() -> Self {
        Handoff {
            lock: AtomicU64::new(0),
            slots: zeros(),
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            closed: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            parks: false,
            unanswered: zeros(),
            pending: zeros(),
            uplink_open: AtomicU64::new(1),
            answers: zeros(),
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

    /// `section` under the table's lock.
    fn locked<T>(&self, section: impl FnOnce() -> T) -> T {
        while self
            .lock
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            thread::yield_now();
        }
        let out = section();
        self.lock.store(0, Ordering::Release);
        out
    }

    /// `Shared::hand_off`: the request enters the table of unanswered
    /// requests and the queue in one critical section. Never fails: the
    /// queue's depth is bounded by the permits out.
    fn push(&self, job: u64) {
        self.locked(|| {
            let t = self.tail.load(Ordering::Relaxed);
            self.unanswered[t].store(1, Ordering::Relaxed);
            self.slots[t].store(job, Ordering::Relaxed);
            self.tail.store(t + 1, Ordering::Relaxed);
            let depth = (t + 1 - self.head.load(Ordering::Relaxed)) as u64;
            // The gate's count may read one over the cap while another
            // reader backs out of it; the depth never does.
            let admitted = self.in_flight.load(Ordering::Acquire);
            assert!(
                depth <= admitted && depth <= MAX_INFLIGHT,
                "queue depth {depth} beyond the {admitted} requests admitted"
            );
        });
    }

    /// `Shared::next_pass`: the oldest job, or `None` once the queue is
    /// closed and empty; `Some(None)` is "empty and open: wait".
    fn pop(&self) -> Option<Option<usize>> {
        self.locked(|| {
            let h = self.head.load(Ordering::Relaxed);
            if h < self.tail.load(Ordering::Relaxed) {
                self.head.store(h + 1, Ordering::Relaxed);
                return Some(Some(h));
            }
            if self.closed.load(Ordering::Relaxed) == 1 {
                return None;
            }
            Some(None)
        })
    }

    /// `Shared::close`, made by shutdown once every reader has been
    /// joined.
    fn close(&self) {
        self.locked(|| self.closed.store(1, Ordering::Relaxed));
    }

    /// `Shared::answer`: whoever removes the request from the table of
    /// unanswered requests writes its one answer and frees its permit.
    /// Tells whether this call was the one.
    fn answer(&self, slot: usize, conn: usize) -> bool {
        let first = self.unanswered[slot].swap(0, Ordering::AcqRel) == 1;
        if first {
            self.reply(conn);
            self.answers[slot].fetch_add(1, Ordering::Relaxed);
            // Whatever the write did, the permit comes back.
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
        first
    }

    /// A completion's side of the uplink table: the reply, the expiry
    /// and the connection loss each try to take call `slot`; the one
    /// that does answers the request.
    fn complete(&self, slot: usize) -> bool {
        let took = self.pending[slot].swap(0, Ordering::AcqRel) == 1;
        if took {
            let conn = (self.slots[slot].load(Ordering::Acquire) / 100 - 1) as usize;
            self.answer(slot, conn);
        }
        took
    }

    /// `Link::fail_all`: close the table, then fail what is in it.
    fn lose_uplink(&self) {
        self.uplink_open.store(0, Ordering::Release);
        for slot in 0..RING {
            self.complete(slot);
        }
    }

    /// `Shared::fail_unanswered`, at the end of the drain budget. Tells
    /// how many requests it was the one to answer.
    fn fail_unanswered(&self) -> usize {
        (0..RING)
            .filter(|&slot| {
                let job = self.slots[slot].load(Ordering::Acquire);
                job != 0 && self.answer(slot, (job / 100 - 1) as usize)
            })
            .count()
    }

    /// Reader side: admit up to `frames` requests of connection `conn`,
    /// one pass each, until its read half is closed.
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
            self.push(job);
            admitted = (admitted.0 + 1, admitted.1 + job);
        }
        admitted
    }

    /// Worker side: pop, then either answer (a service that never waits)
    /// or park the request on the uplink and move on; wait while the
    /// queue is empty and open, exit once it is closed and empty.
    fn work(&self) {
        // The shim's scheduler is deterministic, so a bounded spin is
        // enough: the other threads always make progress between yields.
        for _ in 0..512 {
            let h = match self.pop() {
                None => return,
                Some(None) => {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                    thread::yield_now();
                    continue;
                }
                Some(Some(h)) => h,
            };
            let job = self.slots[h].load(Ordering::Acquire);
            self.answered.fetch_add(1, Ordering::Relaxed);
            self.answered_sum.fetch_add(job, Ordering::Relaxed);
            let conn = (job / 100 - 1) as usize;
            if !self.parks {
                self.answer(h, conn);
            } else {
                // `Link::register`, then the check that the table was
                // still open: a call registered into a table that
                // connection loss has already emptied is failed by its
                // own submitter.
                self.pending[h].store(1, Ordering::Release);
                if self.uplink_open.load(Ordering::Acquire) == 0 {
                    self.complete(h);
                }
            }
        }
        panic!("worker failed to drain within the spin budget");
    }

    /// The one write site: fails once the peer has closed, and the
    /// first failure cuts the connection for every later reply.
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

    /// `WireServer::shutdown` up to the reader joins: the acceptor
    /// exits, then every connection's read half closes.
    fn begin_shutdown(&self) {
        for closed in &self.read_closed {
            closed.store(1, Ordering::Release);
        }
    }
}

/// `n` workers on `q`.
fn spawn_workers(q: &Arc<Handoff>, n: usize) -> Vec<thread::JoinHandle<()>> {
    (0..n)
        .map(|_| {
            let q = Arc::clone(q);
            thread::spawn(move || q.work())
        })
        .collect()
}

/// Two workers race two readers while shutdown lands somewhere between
/// their admissions: every admitted job must be answered exactly once
/// and every permit released, under every schedule.
#[test]
fn graceful_drain_answers_every_admitted_job() {
    loom::model(|| {
        let q = Arc::new(Handoff::new());
        let workers = spawn_workers(&q, 2);
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
        q.close();
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
            "a position was popped twice or a payload was torn"
        );
        assert_eq!(q.written.load(Ordering::Relaxed), jobs);
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 0, "a permit leaked");
    });
}

/// The close lands while the worker waits on an empty queue: one reader,
/// one frame, one worker, shutdown started at once. Whether the reader's
/// push came before the worker's first look, between its waits or never,
/// the worker must take what was queued before it leaves — a worker that
/// leaves on `closed` without draining, or a close made before the
/// readers are joined, strands the job.
#[test]
fn a_close_landing_while_a_worker_waits_strands_no_job() {
    // Across schedules: proof that the worker did wait on an empty, open
    // queue and then took a job.
    static WAITED_THEN_TOOK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    loom::model(|| {
        let q = Arc::new(Handoff::new());
        let workers = spawn_workers(&q, 1);
        let reader = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.read(0, 1))
        };

        q.begin_shutdown();

        let (jobs, sum) = reader.join().expect("reader");
        q.close();
        for worker in workers {
            worker.join().expect("worker");
        }
        assert_eq!(
            q.answered.load(Ordering::Relaxed),
            jobs,
            "the final pre-drain job was stranded"
        );
        assert_eq!(q.answered_sum.load(Ordering::Relaxed), sum);
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 0, "a permit leaked");
        if jobs == 1 && q.waits.load(Ordering::Relaxed) > 0 {
            WAITED_THEN_TOOK.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    });
    assert!(
        WAITED_THEN_TOOK.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no explored schedule had the worker wait before the job came"
    );
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
        let q = Arc::new(Handoff::new());
        let workers = spawn_workers(&q, 1);
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
        q.close();
        for worker in workers {
            worker.join().expect("worker");
        }

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

/// Everything admitted in `q`, checked: one answer each, no permit out.
fn assert_each_answered_once(q: &Handoff, admitted: u64) {
    let answers: Vec<u64> = q
        .answers
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    assert!(
        answers.iter().all(|&n| n <= 1),
        "a request was answered twice: {answers:?}"
    );
    assert_eq!(
        answers.iter().sum::<u64>(),
        admitted,
        "an admitted request was never answered: {answers:?}"
    );
    assert_eq!(
        q.written.load(Ordering::Relaxed) + q.write_failed.load(Ordering::Relaxed),
        admitted
    );
    assert_eq!(q.in_flight.load(Ordering::Relaxed), 0, "a permit leaked");
}

/// One parked request, four ways to finish it, all at once: the reply
/// (uplink reader), the expiry (deadline queue), the loss of the uplink
/// connection, and the shutdown that fails what outlives the drain
/// budget. Whichever takes the table entry answers; the others find
/// nothing and do nothing.
#[test]
fn reply_expiry_loss_and_drain_race_for_one_request() {
    // Across schedules: proof that the race is really open.
    static WON_BY: [std::sync::atomic::AtomicU64; 4] =
        [const { std::sync::atomic::AtomicU64::new(0) }; 4];
    loom::model(|| {
        let mut q = Handoff::new();
        q.parks = true;
        let q = Arc::new(q);
        let workers = spawn_workers(&q, 1);
        let reader = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.read(0, 1))
        };
        let (jobs, _) = reader.join().expect("reader");
        assert_eq!(jobs, 1, "an idle server admits the request");

        // Slot 0 is the request's: the three completions of its call,
        // racing each other and the worker that is still parking it.
        let reply = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.complete(0))
        };
        let expiry = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.complete(0))
        };
        let loss = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.lose_uplink())
        };
        // Shutdown, with the drain budget already spent.
        q.begin_shutdown();
        q.close();
        for worker in workers {
            worker.join().expect("worker");
        }
        let by_drain = q.fail_unanswered() == 1;

        let by_reply = reply.join().expect("uplink reader");
        let by_expiry = expiry.join().expect("deadline queue");
        loss.join().expect("connection loss");
        assert_each_answered_once(&q, 1);
        assert!(
            u64::from(by_reply) + u64::from(by_expiry) <= 1,
            "the call was taken out of the pending table twice"
        );
        // Neither of the three: the connection loss took the call out,
        // or closed the table before the worker registered it.
        let winner = if by_drain {
            3
        } else if by_reply {
            0
        } else if by_expiry {
            1
        } else {
            2
        };
        WON_BY[winner].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    let won: Vec<u64> = WON_BY
        .iter()
        .map(|w| w.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    assert!(
        won.iter().all(|&n| n > 0),
        "reply/expiry/loss/drain wins across schedules: {won:?}"
    );
}

/// The graceful drain with a service that parks: two readers admit, two
/// workers park, the uplink's reader and its deadline queue complete
/// whatever they find while shutdown lands in between, and shutdown
/// fails what is left. Every admitted request is answered once.
#[test]
fn graceful_drain_answers_what_is_parked_on_the_uplink() {
    loom::model(|| {
        let mut q = Handoff::new();
        q.parks = true;
        let q = Arc::new(q);
        let workers = spawn_workers(&q, 2);
        let readers: Vec<_> = (0..CONNS)
            .map(|conn| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.read(conn, 2))
            })
            .collect();
        // One pass each over the table, wherever the workers have got to.
        let completers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for slot in 0..RING {
                        q.complete(slot);
                    }
                })
            })
            .collect();

        q.begin_shutdown();
        let mut jobs = 0;
        for reader in readers {
            jobs += reader.join().expect("reader").0;
        }
        q.close();
        for worker in workers {
            worker.join().expect("worker");
        }
        for completer in completers {
            completer.join().expect("completer");
        }
        // Calls registered after the completers passed are still pending:
        // the end of the drain budget answers their requests.
        q.fail_unanswered();
        assert_eq!(q.answered.load(Ordering::Relaxed), jobs);
        assert_each_answered_once(&q, jobs);
    });
}

/// One gather of the UA's response direction, as `services::ua` runs
/// it: a batch of three answers, the state a completion, the cap and
/// the drain each change under the stage's `gathers` lock (a spin lock
/// here), and the release each performs after letting the lock go.
struct GatherModel {
    lock: AtomicU64,
    /// The gather is in the map: cleared by the release that completes
    /// it and by the drain.
    open: AtomicU64,
    /// Answers held, as a bit set.
    held: AtomicU64,
    /// Answers not yet released: what "the last one is in" is sized to.
    owed: AtomicU64,
    /// Replies written per answer (exactly one, each).
    sent: [AtomicU64; 3],
}

/// Who performed a release.
#[derive(Clone, Copy)]
enum By {
    LastAnswer = 0,
    Cap = 1,
    Drain = 2,
    PassThrough = 3,
}

impl GatherModel {
    fn new() -> Self {
        GatherModel {
            lock: AtomicU64::new(0),
            open: AtomicU64::new(1),
            held: AtomicU64::new(0),
            owed: AtomicU64::new(3),
            sent: zeros(),
        }
    }

    fn locked<T>(&self, section: impl FnOnce() -> T) -> T {
        while self
            .lock
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            thread::yield_now();
        }
        let out = section();
        self.lock.store(0, Ordering::Release);
        out
    }

    /// `Reply::send_all` on what a critical section took, lock released.
    fn release(&self, taken: u64) -> bool {
        for (answer, sent) in self.sent.iter().enumerate() {
            if taken & (1 << answer) != 0 {
                sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        taken != 0
    }

    /// Takes what is held; it is no longer owed.
    fn take_held(&self) -> u64 {
        let taken = self.held.swap(0, Ordering::Relaxed);
        self.owed
            .fetch_sub(u64::from(taken.count_ones()), Ordering::Relaxed);
        taken
    }

    /// `Shuffle::gather`: a completion brings `answer`.
    fn gather(&self, answer: u64) -> Option<By> {
        let (taken, by) = self.locked(|| {
            if self.open.load(Ordering::Relaxed) == 0 {
                return (1 << answer, By::PassThrough);
            }
            let held = self.held.load(Ordering::Relaxed) | 1 << answer;
            self.held.store(held, Ordering::Relaxed);
            if u64::from(held.count_ones()) < self.owed.load(Ordering::Relaxed) {
                return (0, By::LastAnswer);
            }
            self.open.store(0, Ordering::Relaxed);
            (self.take_held(), By::LastAnswer)
        });
        self.release(taken).then_some(by)
    }

    /// `Shuffle::cap`, due: what is held leaves, the gather stays open
    /// for the stragglers.
    fn cap(&self) -> Option<By> {
        let taken = self.locked(|| match self.open.load(Ordering::Relaxed) {
            0 => 0,
            _ => self.take_held(),
        });
        self.release(taken).then_some(By::Cap)
    }

    /// `Shuffle::drain`.
    fn drain(&self) -> Option<By> {
        let taken = self.locked(|| match self.open.swap(0, Ordering::Relaxed) {
            0 => 0,
            _ => self.take_held(),
        });
        self.release(taken).then_some(By::Drain)
    }
}

/// The first answer of three is held and its cap is due; the other two
/// completions (an uplink reader, the deadline queue), the cap and the
/// graceful drain all arrive at once. Whatever the order, every answer is
/// written exactly once, nothing stays held, and the held answer leaves
/// in exactly one release.
#[test]
fn last_answer_cap_and_drain_race_for_one_gather() {
    static RELEASED_BY: [std::sync::atomic::AtomicU64; 4] =
        [const { std::sync::atomic::AtomicU64::new(0) }; 4];
    loom::model(|| {
        let g = Arc::new(GatherModel::new());
        assert!(g.gather(0).is_none(), "one of three releases nothing");
        let spawn = |run: fn(&GatherModel) -> Option<By>| {
            let g = Arc::clone(&g);
            thread::spawn(move || run(&g))
        };
        let racers = [
            spawn(|g| g.gather(1)),
            spawn(|g| g.gather(2)),
            spawn(GatherModel::cap),
            spawn(GatherModel::drain),
        ];
        for racer in racers {
            if let Some(by) = racer.join().expect("racer") {
                RELEASED_BY[by as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        for (answer, sent) in g.sent.iter().enumerate() {
            assert_eq!(sent.load(Ordering::Relaxed), 1, "answer {answer}");
        }
        assert_eq!(g.held.load(Ordering::Relaxed), 0, "an answer stayed held");
    });
    let by: Vec<u64> = RELEASED_BY
        .iter()
        .map(|n| n.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    assert!(
        by.iter().all(|&n| n > 0),
        "last-answer/cap/drain/pass-through releases across schedules: {by:?}"
    );
}

/// The UA's request buffer as `services::ua` runs it, with no thread of
/// its own: a put, a flush timer's release and the drain each run inside
/// a turn at the enclave — the one lock modelled here (a spin lock), as
/// the buffer's own lock is only ever taken inside one — and submit what
/// they release before the turn ends. `S = 3`: requests 0 and 1 are
/// buffered as the buffer's second batch, after a first batch that left
/// full; the put of request 2 fills it.
struct BufferModel {
    turn: AtomicU64,
    /// Requests buffered, as a bit set.
    held: AtomicU64,
    /// `ShuffleBuffer::flushes`: the batch a timer armed now names.
    flushes: AtomicU64,
    /// Set by the graceful drain before it takes its turn.
    draining: AtomicU64,
    /// Submits per request (exactly one, each).
    submitted: [AtomicU64; 3],
    /// Timers registered and not yet fired, by the batch they name.
    pending: [AtomicU64; 3],
}

/// What a flush timer's turn did.
#[derive(PartialEq)]
enum Fired {
    /// Its batch had left: nothing.
    Stale,
    /// Its batch was due: released.
    Released,
    /// Early: registered again for the batch's deadline.
    Rearmed,
}

impl BufferModel {
    const S: u32 = 3;

    fn new() -> Self {
        let pending = zeros();
        // The first batch's timer, stale since that batch left full, and
        // the second batch's, armed by the put of request 0.
        pending[0].store(1, Ordering::Relaxed);
        pending[1].store(1, Ordering::Relaxed);
        BufferModel {
            turn: AtomicU64::new(0),
            held: AtomicU64::new(0b011),
            flushes: AtomicU64::new(1),
            draining: AtomicU64::new(0),
            submitted: zeros(),
            pending,
        }
    }

    /// A task in a turn: `Turns::run`, which runs one task at a time.
    /// A task that fails an assertion ends its turn as it unwinds, as
    /// `Turns` does, so the other racers still finish.
    fn in_turn<T>(&self, task: impl FnOnce() -> T) -> T {
        struct Turn<'a>(&'a AtomicU64);
        impl Drop for Turn<'_> {
            fn drop(&mut self) {
                self.0.store(0, Ordering::Release);
            }
        }
        while self
            .turn
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            thread::yield_now();
        }
        let _turn = Turn(&self.turn);
        let out = task();
        self.check_no_stranded_batch();
        out
    }

    /// Between turns, a non-empty buffer has a live timer for its batch —
    /// before the drain's turn and after it alike, since a put that
    /// finds `draining` set leaves nothing behind.
    fn check_no_stranded_batch(&self) {
        let batch = self.flushes.load(Ordering::Relaxed) as usize;
        if self.held.load(Ordering::Relaxed) != 0 {
            let live = self.pending[batch].load(Ordering::Relaxed);
            assert_eq!(live, 1, "batch {batch} stranded");
        }
    }

    /// `ShuffleBuffer::{poll_timeout, drain}` or a full push: takes what
    /// is held, one flush more.
    fn take_held(&self) -> u64 {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.held.swap(0, Ordering::Relaxed)
    }

    /// `UaNode::submit`.
    fn submit(&self, taken: u64) -> bool {
        for (request, submitted) in self.submitted.iter().enumerate() {
            if taken & (1 << request) != 0 {
                submitted.fetch_add(1, Ordering::Relaxed);
            }
        }
        taken != 0
    }

    /// `UaNode::flush_after`: one live timer per batch.
    fn arm(&self, batch: u64) {
        let pending = &self.pending[batch as usize];
        assert_eq!(pending.fetch_add(1, Ordering::Relaxed), 0, "a second timer");
    }

    /// `UaNode::put`.
    fn put(&self, request: u64) -> Option<By> {
        self.in_turn(|| {
            let was_empty = self.held.load(Ordering::Relaxed) == 0;
            let held = self.held.load(Ordering::Relaxed) | 1 << request;
            self.held.store(held, Ordering::Relaxed);
            let draining = self.draining.load(Ordering::Relaxed) == 1;
            if held.count_ones() == Self::S || draining {
                let by = if was_empty {
                    By::PassThrough
                } else {
                    By::LastAnswer
                };
                return self.submit(self.take_held()).then_some(by);
            }
            if was_empty {
                self.arm(self.flushes.load(Ordering::Relaxed));
            }
            None
        })
    }

    /// `UaNode::flush_due` for the timer that names `batch`; `due` is
    /// whether that batch's deadline has passed.
    fn fire(&self, batch: u64, due: bool) -> Fired {
        self.in_turn(|| {
            self.pending[batch as usize].fetch_sub(1, Ordering::Relaxed);
            if self.flushes.load(Ordering::Relaxed) != batch {
                return Fired::Stale;
            }
            if due {
                assert!(self.submit(self.take_held()), "a due batch is never empty");
                return Fired::Released;
            }
            self.arm(batch);
            Fired::Rearmed
        })
    }

    /// A timer on the deadline queue: fired, and fired again at the
    /// batch's deadline whenever it was early.
    fn timer(&self, batch: u64, due: bool) -> Option<By> {
        let mut fired = self.fire(batch, due);
        while fired == Fired::Rearmed {
            fired = self.fire(batch, true);
        }
        (fired == Fired::Released).then_some(By::Cap)
    }

    /// `Service::drain`: `draining` is set, then whatever is buffered
    /// leaves in a turn.
    fn drain(&self) -> Option<By> {
        self.draining.store(1, Ordering::Relaxed);
        self.in_turn(|| {
            let taken = match self.held.load(Ordering::Relaxed) {
                0 => 0,
                _ => self.take_held(),
            };
            self.submit(taken).then_some(By::Drain)
        })
    }
}

/// Two requests of three are buffered and their batch's timer is
/// pending, beside the stale timer of the batch before; the put that
/// fills the buffer, both timers and the graceful drain arrive at once
/// (`LastAnswer` names the filling put, `Cap` the timer, `PassThrough` a
/// put that finds the buffer drained). Whatever the order, every request
/// is submitted exactly once, the stale timer — and every timer still
/// pending at the end — submits nothing, and between turns a non-empty
/// buffer never lacks a live timer (so never waits on the drain).
#[test]
fn filling_put_timers_and_drain_race_for_one_request_batch() {
    static RELEASED_BY: [std::sync::atomic::AtomicU64; 4] =
        [const { std::sync::atomic::AtomicU64::new(0) }; 4];
    loom::model(|| {
        let b = Arc::new(BufferModel::new());
        let spawn = |run: fn(&BufferModel) -> Option<By>| {
            let b = Arc::clone(&b);
            thread::spawn(move || run(&b))
        };
        let racers = [
            spawn(|b| b.put(2)),
            spawn(|b| {
                assert!(b.timer(0, true).is_none(), "the stale timer submitted");
                None
            }),
            spawn(|b| b.timer(1, false)),
            spawn(BufferModel::drain),
        ];
        for racer in racers {
            if let Some(by) = racer.join().expect("racer") {
                RELEASED_BY[by as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        for (request, submitted) in b.submitted.iter().enumerate() {
            assert_eq!(submitted.load(Ordering::Relaxed), 1, "request {request}");
        }
        assert_eq!(b.held.load(Ordering::Relaxed), 0, "a request stayed");
        // What the deadline queue still holds fires later, on a batch
        // that has left.
        for batch in 0..3u64 {
            while b.pending[batch as usize].load(Ordering::Relaxed) > 0 {
                assert!(b.fire(batch, true) == Fired::Stale, "batch {batch}");
            }
        }
    });
    let by: Vec<u64> = RELEASED_BY
        .iter()
        .map(|n| n.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    assert!(
        by.iter().all(|&n| n > 0),
        "filling-put/timer/drain/pass-through releases across schedules: {by:?}"
    );
}
