//! Readings taken from outside the program: `/proc` for the process, the
//! box's speed, and the aggregates the cluster already exports
//! (`telemetry().stages()`, `NodeMetrics::snapshot_json()`), read at the
//! edges of a window and reported as differences. And the idle guard,
//! which keeps the box in one state while they are taken.

use pprox::core::telemetry::histogram::HistogramSnapshot;
use pprox::core::telemetry::Stage;
use pprox::json::Value;
use pprox::wire::LoopbackCluster;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100
/// on every Linux this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// The tiers of the chain, in `LoopbackCluster::node_metrics()` order
/// (one instance each).
pub const TIERS: [&str; 3] = ["ua", "ia", "lrs"];

extern "C" {
    /// `sched_setscheduler(2)` of the C library `std` already links.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_IDLE` of `<sched.h>`: runs only when nothing else wants the
/// core and is preempted the moment anything does.
const SCHED_IDLE: i32 = 5;

/// `/proc` directories of the idle guard's threads, whose CPU time and
/// context switches are not the program's.
static GUARD_TASKS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Keeps every core of the box out of its idle state for as long as it
/// lives: one `SCHED_IDLE` thread per core that spins.
///
/// A shared virtual machine that goes idle is descheduled by its host,
/// and for the first few hundred microseconds after it wakes the same
/// instructions take up to half as long again (README, "Idle guard"). How
/// often that happens depends on how much the program sleeps, so without
/// the guard both the program's figures and the speed samples below
/// would move with the program's own duty cycle. With it the box is in
/// one state whatever the program does.
pub struct IdleGuard {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl IdleGuard {
    /// Starts one spinner per core. `None` when the kernel refuses to
    /// lower a thread to `SCHED_IDLE`: spinning at normal priority would
    /// take the cores from the program.
    pub fn start() -> Option<IdleGuard> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = mpsc::channel();
        let threads: Vec<_> = (0..cores)
            .map(|_| {
                let (stop, ready_tx) = (stop.clone(), ready_tx.clone());
                std::thread::spawn(move || {
                    let priority = 0i32;
                    // SAFETY: pid 0 names the calling thread, and `param`
                    // points at a live `sched_param`, which on Linux is
                    // one `int`; the call changes nothing but this
                    // thread's scheduling class.
                    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
                    let task = std::fs::read_link("/proc/thread-self").ok();
                    let lowered = rc == 0 && task.is_some();
                    let _ = ready_tx.send(task.filter(|_| lowered));
                    while lowered && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let tasks: Option<Vec<PathBuf>> = (0..cores)
            .map(|_| ready_rx.recv().ok().flatten())
            .map(|task| task.map(|t| Path::new("/proc").join(t)))
            .collect();
        let guard = IdleGuard { stop, threads };
        *GUARD_TASKS.lock().expect("no holder panics") = tasks?;
        Some(guard)
    }
}

impl Drop for IdleGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        if let Ok(mut tasks) = GUARD_TASKS.lock() {
            tasks.clear();
        }
    }
}

fn guard_tasks() -> Vec<PathBuf> {
    GUARD_TASKS.lock().expect("no holder panics").clone()
}

/// utime + stime in a `/proc/.../stat` file, seconds.
fn stat_cpu_seconds(path: &Path) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// utime + stime of the whole process without the idle guard, seconds.
pub fn cpu_seconds() -> f64 {
    let guard: f64 = guard_tasks()
        .iter()
        .map(|task| stat_cpu_seconds(&task.join("stat")))
        .sum();
    stat_cpu_seconds(Path::new("/proc/self/stat")) - guard
}

fn status_kib(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of the process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kib(&status, "VmHWM:") / 1024.0
}

/// Threads of the process and their context switches (voluntary and
/// not) so far, without the idle guard's.
pub fn threads_and_ctx_switches() -> (u64, u64) {
    let guard = guard_tasks();
    let is_guard = |task: &Path| guard.iter().any(|g| g.file_name() == task.file_name());
    let mut threads = 0;
    let mut switches = 0.0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten().filter(|t| !is_guard(&t.path())) {
            threads += 1;
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            switches += status_kib(&status, "voluntary_ctxt_switches:")
                + status_kib(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    (threads, switches as u64)
}

/// Duration of [`speed_kernel_us`] on the 2-core box the benchmark was
/// sized on, when no other tenant disturbs it, µs. On another box the
/// index is off by one fixed factor.
pub const SPEED_REFERENCE_US: f64 = 32.1;

/// How often the speed probe samples.
const SPEED_SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// A fixed piece of integer work — forty 2048-bit schoolbook
/// multiplications, the instruction mix of the RSA that dominates the
/// chain — timed on the calling thread. It calls nothing of the program.
pub fn speed_kernel_us() -> f64 {
    const LIMBS: usize = 32;
    let a = [0x9e37_79b9_7f4a_7c15u64; LIMBS];
    let mut b = [0xd134_2543_de82_ef95u64; LIMBS];
    let t = Instant::now();
    for round in 0..40u64 {
        let mut out = [0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let cur = out[i + j] as u128 + (a[i] as u128) * (b[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + LIMBS] = carry as u64;
        }
        for j in 0..LIMBS {
            b[j] = out[j] ^ out[j + LIMBS] ^ round;
        }
    }
    std::hint::black_box(b);
    t.elapsed().as_nanos() as f64 / 1000.0
}

/// Samples the box's speed until `deadline`, from the calling thread
/// (the benchmark's main thread, which otherwise only sleeps during a
/// run): two passes of the kernel every 10 ms, the second one timed,
/// about 0.6 % of one core. Returns the median over
/// [`SPEED_REFERENCE_US`] — 0.99 on the quiet reference box, 1.3 when
/// this box currently needs 30 % longer for the same instructions
/// (another tenant on the sibling hyperthread, a lower clock). Under the
/// [`IdleGuard`] it follows the load of the process it is sampled in only
/// while the host is contended, which [`check_speed_probe`] tells
/// (README, "Speed index").
pub fn speed_index_until(deadline: Instant) -> f64 {
    let mut samples = Vec::new();
    while Instant::now() + SPEED_SAMPLE_EVERY < deadline {
        std::thread::sleep(SPEED_SAMPLE_EVERY);
        // The first pass refills the cache the sleep gave away.
        speed_kernel_us();
        samples.push(speed_kernel_us());
    }
    if samples.is_empty() {
        samples.push(speed_kernel_us());
    }
    crate::stats::median(&mut samples) / SPEED_REFERENCE_US
}

/// Tells whether the speed index follows the load of the process it is
/// sampled in, as it does while the host is contended and does not on a
/// quiet one. The rest of the process is idle, or two of its
/// threads compute without pause, or sixty sleep 200 µs at a time (the
/// cluster's poll loops): the three conditions take turns of
/// [`CHECK_SLICE`], `rounds` times over, so that whatever else happens on
/// the box meanwhile happens to all three alike. Prints the median index
/// of each condition's slices and returns the largest difference between
/// two of them, as a share of the smallest.
pub fn check_speed_probe(rounds: usize) -> f64 {
    const CHECK_SLICE: Duration = Duration::from_millis(250);
    const CONDITIONS: [&str; 3] = ["idle", "two busy threads", "sixty 200 us sleepers"];
    let condition = std::sync::atomic::AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut slices: [Vec<f64>; 3] = Default::default();
    std::thread::scope(|scope| {
        for thread in 0..62 {
            let (condition, stop) = (&condition, &stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match (condition.load(Ordering::Relaxed), thread) {
                        (1, 0..=1) => {
                            speed_kernel_us();
                        }
                        (2, 2..) => std::thread::sleep(Duration::from_micros(200)),
                        _ => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            });
        }
        for _ in 0..rounds {
            for (c, of_condition) in slices.iter_mut().enumerate() {
                condition.store(c, Ordering::Relaxed);
                // Long enough for every thread to see the new condition.
                std::thread::sleep(Duration::from_millis(20));
                of_condition.push(speed_index_until(Instant::now() + CHECK_SLICE));
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let medians = slices.map(|mut of_condition| crate::stats::median(&mut of_condition));
    for (name, median) in CONDITIONS.iter().zip(medians) {
        println!("speed index, {name:<22} {median:.4}");
    }
    let lowest = medians.iter().copied().fold(f64::MAX, f64::min);
    let highest = medians.iter().copied().fold(f64::MIN, f64::max);
    (highest - lowest) / lowest
}

/// One tier's server counters at an instant.
#[derive(Debug, Clone, Default)]
pub struct TierReading {
    /// Request frames read.
    pub frames_in: u64,
    /// Requests answered `busy`.
    pub shed: u64,
    /// Deepest the job queue has been since launch.
    pub queue_depth_high_water: u64,
    /// Worker threads.
    pub workers: u64,
    /// Time workers spent in the handler, µs.
    pub worker_busy_us: u64,
    /// Busy passes of the IO poll loop.
    pub poll_loop: HistogramSnapshot,
    /// Reconnects of this node's uplink clients.
    pub reconnects: u64,
    /// Retries of this node's uplink clients.
    pub retries: u64,
}

/// Everything read from the cluster at one instant.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Process CPU, seconds.
    pub cpu_s: f64,
    /// Stage histograms of the shared telemetry sink.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Per-tier server counters, in [`TIERS`] order.
    pub tiers: Vec<TierReading>,
    /// UA shuffle flush counts: full, timeout, drain.
    pub flushes: [u64; 3],
    /// Highest shuffle buffer occupancy since launch.
    pub shuffle_high_water: u64,
    /// Threads of the process.
    pub threads: u64,
    /// Context switches of all its threads so far.
    pub ctx_switches: u64,
}

fn u64_at(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn histogram_at(v: &Value, path: &[&str]) -> HistogramSnapshot {
    let Some(h) = path.iter().try_fold(v, |v, key| v.get(key)) else {
        return HistogramSnapshot::empty();
    };
    let mut counts = Vec::new();
    for pair in h
        .get("counts")
        .and_then(Value::as_array)
        .map_or(&[][..], |a| a)
    {
        if let Some([index, count]) = pair.as_array() {
            let (Some(index), Some(count)) = (index.as_u64(), count.as_u64()) else {
                continue;
            };
            let index = index as usize;
            if counts.len() <= index {
                counts.resize(index + 1, 0);
            }
            counts[index] = count;
        }
    }
    HistogramSnapshot::from_parts(counts, u64_at(h, &["sum_us"]), u64_at(h, &["max_us"]))
}

/// Reads the process and the cluster's exported aggregates.
pub fn read(cluster: &LoopbackCluster) -> Reading {
    let nodes: Vec<Value> = cluster
        .node_metrics()
        .iter()
        .map(|m| m.snapshot_json())
        .collect();
    let tiers = nodes
        .iter()
        .map(|n| TierReading {
            frames_in: u64_at(n, &["server", "frames_in"]),
            shed: u64_at(n, &["server", "shed"]),
            queue_depth_high_water: u64_at(n, &["server", "queue_depth_high_water"]),
            workers: u64_at(n, &["server", "workers"]),
            worker_busy_us: u64_at(n, &["server", "worker_busy_us"]),
            poll_loop: histogram_at(n, &["server", "poll_loop"]),
            reconnects: u64_at(n, &["client", "reconnects"]),
            retries: u64_at(n, &["client", "retries"]),
        })
        .collect();
    let ua = &nodes[0];
    let (threads, ctx_switches) = threads_and_ctx_switches();
    Reading {
        threads,
        ctx_switches,
        cpu_s: cpu_seconds(),
        stages: cluster.telemetry().stages().snapshot(),
        tiers,
        flushes: [
            u64_at(ua, &["shuffle", "flush_full"]),
            u64_at(ua, &["shuffle", "flush_timeout"]),
            u64_at(ua, &["shuffle", "flush_drain"]),
        ],
        shuffle_high_water: u64_at(ua, &["shuffle", "high_water"]),
    }
}

/// Observations added to a histogram between two snapshots of it.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let counts = after
        .bucket_counts()
        .iter()
        .zip(before.bucket_counts())
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    HistogramSnapshot::from_parts(
        counts,
        after.sum_us().saturating_sub(before.sum_us()),
        after.max_us(),
    )
}

impl Reading {
    /// The histogram of `stage`.
    pub fn stage(&self, stage: Stage) -> HistogramSnapshot {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or_else(HistogramSnapshot::empty, |(_, h)| h.clone())
    }

    /// Observations `stage` gained between `self` and the later `after`.
    pub fn stage_delta(&self, after: &Reading, stage: Stage) -> HistogramSnapshot {
        histogram_delta(&self.stage(stage), &after.stage(stage))
    }

    /// Items the UA shuffle released per flush between `self` and
    /// `after`, both directions together; 1.0 when nothing was flushed
    /// (shuffling off: every request leaves alone).
    pub fn anonymity_set_mean(&self, after: &Reading) -> f64 {
        let released = self.stage_delta(after, Stage::ShuffleRequest).count()
            + self.stage_delta(after, Stage::ShuffleResponse).count();
        let flushes: u64 = after
            .flushes
            .iter()
            .zip(self.flushes)
            .map(|(a, b)| a.saturating_sub(b))
            .sum();
        if flushes == 0 {
            1.0
        } else {
            released as f64 / flushes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_keeps_only_new_observations() {
        let before = HistogramSnapshot::from_parts(vec![0, 2, 1], 4, 2);
        let after = HistogramSnapshot::from_parts(vec![0, 2, 4, 1], 13, 3);
        let delta = histogram_delta(&before, &after);
        assert_eq!(delta.count(), 4);
        assert_eq!(delta.sum_us(), 9);
        assert_eq!(&delta.bucket_counts()[..4], &[0, 0, 3, 1]);
    }

    #[test]
    fn idle_guard_is_left_out_of_the_process_figures() {
        let Some(guard) = IdleGuard::start() else {
            return; // SCHED_IDLE refused: nothing to leave out.
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(guard_tasks().len(), cores);
        // Its threads are in /proc but in no figure of the process.
        let in_proc = std::fs::read_dir("/proc/self/task").unwrap().count();
        assert_eq!(threads_and_ctx_switches().0 as usize, in_proc - cores);
        for task in guard_tasks() {
            assert!(task.join("stat").is_file(), "{}", task.display());
        }
        drop(guard);
        assert!(guard_tasks().is_empty());
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mib() > 0.5);
        let (threads, _) = threads_and_ctx_switches();
        assert!(threads >= 1);
        assert!(cpu_seconds() >= 0.0);
    }
}
