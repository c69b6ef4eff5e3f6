//! The PProx benchmark: launches the real wire chain on loopback, drives
//! it from one connection, checks every answer and prints the metrics.
//!
//! ```text
//! pprox-benchmark [--workload <name>] [--seed <n>] [--seconds <n>] [--trace [0|1]]
//! pprox-benchmark --check-speed-probe
//! ```
//!
//! Without `--workload` all four workloads run in turn, each in a process
//! of its own. The last line of standard output is the result object
//! described in `README.md`. `--check-speed-probe` runs no workload: it
//! tells whether the speed index follows the process's own load just now.

mod driver;
mod probe;
mod report;
mod setup;
mod stats;
mod trace;
mod walk;
mod workload;

use driver::{sleep_until, Answer, Outcome, RunLog, RunSpec};
use pprox::core::telemetry::Stage;
use probe::{Reading, TIERS};
use report::{Report, Values};
use setup::{LrsHandle, SetupParts};
use stats::{per_second_median, percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Load, Plan, Workload, WARMUP_SECONDS, WORKLOADS};

/// Timed window when `--seconds` is not given (as in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 25;

/// Rounds of `--check-speed-probe`, and how far the medians of two
/// conditions may differ before it fails.
const SPEED_CHECK_ROUNDS: usize = 60;
const SPEED_CHECK_LIMIT: f64 = 0.03;

/// How long the idle-CPU probe watches the idle cluster.
const IDLE_PROBE: Duration = Duration::from_secs(2);

/// Start of the timed window, ns from the run's origin.
const WINDOW_START_NS: u64 = WARMUP_SECONDS * 1_000_000_000;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_speed_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_speed_probe: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = it.next_if(|v| v == "0").is_none();
                it.next_if(|v| v == "1");
            }
            "--check-speed-probe" => args.check_speed_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sorted latencies (ms, due → answer read) of the verified answers.
fn latencies_ms<'a>(answers: impl Iterator<Item = &'a Answer>) -> Vec<f64> {
    let mut v: Vec<f64> = answers
        .filter(|a| a.outcome == Outcome::Ok)
        .map(|a| ms(a.read_ns.saturating_sub(a.due_ns)))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The cluster's aggregates and the recommender's own `(events,
/// queries)` counters at one edge of the timed window.
type Edge = (Reading, (u64, u64));

/// Everything one run measured, before it is turned into metrics.
struct Measured {
    seconds: u64,
    /// Process start → first timed request due, seconds.
    setup_s: f64,
    /// The parts of set-up that build things.
    parts: SetupParts,
    /// Cluster and request stream ready → first timed request due, seconds.
    warmup_s: f64,
    /// The chain that was driven, still up.
    cluster: pprox::wire::LoopbackCluster,
    log: RunLog,
    start: Edge,
    end: Edge,
    /// How much slower than on the quiet reference box a fixed piece of
    /// work ran during the window.
    speed_index: f64,
}

impl Measured {
    fn window_end_ns(&self) -> u64 {
        WINDOW_START_NS + self.seconds * 1_000_000_000
    }

    fn in_window(&self, ns: u64) -> bool {
        (WINDOW_START_NS..self.window_end_ns()).contains(&ns)
    }

    /// Answers to the requests due in the timed window.
    fn timed(&self) -> impl Iterator<Item = &Answer> + Clone {
        self.log.answers.iter().filter(|a| self.in_window(a.due_ns))
    }

    /// Read instants (µs into the window) of the verified answers read
    /// during the window, whichever request they answer.
    fn verified_in_window_us(&self) -> Vec<u64> {
        self.log
            .answers
            .iter()
            .filter(|a| a.outcome == Outcome::Ok && self.in_window(a.read_ns))
            .map(|a| (a.read_ns - WINDOW_START_NS) / 1000)
            .collect()
    }

    /// Median dwell in one direction of the UA shuffle over the window, ms.
    fn dwell_ms(&self, stage: Stage) -> f64 {
        self.start.0.stage_delta(&self.end.0, stage).p50() as f64 / 1000.0
    }
}

/// Sets `w` up, warms it up and drives it for `seconds` seconds.
fn measure(
    w: &'static Workload,
    plan: &Plan,
    seconds: u64,
    traced: bool,
    started: Instant,
) -> (Measured, LrsHandle) {
    let setup::Built {
        cluster,
        lrs,
        client,
        requests,
        parts,
    } = setup::build(w, plan);
    let built_at = Instant::now();

    let spec = RunSpec {
        workload: w,
        seconds,
        traced,
    };
    let window_end_ns = WINDOW_START_NS + seconds * 1_000_000_000;
    let ua = cluster.ua_addrs()[0];
    // While the two driver threads work, this thread reads the cluster
    // at both edges of the window and samples the box's speed between.
    let (log, (start, speed_index, end)) = driver::run(&spec, ua, requests, client, |origin| {
        let edge = |ns: u64| -> Edge {
            sleep_until(origin + Duration::from_nanos(ns));
            (probe::read(&cluster), lrs.counters())
        };
        let start = edge(WINDOW_START_NS);
        let speed = probe::speed_index_until(origin + Duration::from_nanos(window_end_ns));
        (start, speed, edge(window_end_ns))
    })
    .unwrap_or_else(|e| panic!("driver connection failed: {e}"));

    let window_start = log.origin + Duration::from_nanos(WINDOW_START_NS);
    let measured = Measured {
        seconds,
        setup_s: window_start.duration_since(started).as_secs_f64(),
        parts,
        warmup_s: window_start.duration_since(built_at).as_secs_f64(),
        cluster,
        log,
        start,
        end,
        speed_index,
    };
    (measured, lrs)
}

/// Median latency of the verified requests among `answers`, ms: the
/// median of each kind of operation sent, averaged over the kinds. With
/// one kind it is the plain median. With posts and gets in equal shares
/// the plain median would fall in the gap between the two kinds'
/// latencies, where a few requests more of one kind move it from one
/// mode to the other.
fn latency_p50_ms<'a>(answers: impl Iterator<Item = &'a Answer> + Clone) -> f64 {
    let medians: Vec<f64> = [false, true]
        .into_iter()
        .map(|post| latencies_ms(answers.clone().filter(|a| a.is_post == post)))
        .filter(|latencies| !latencies.is_empty())
        .map(|latencies| percentile(&latencies, 0.5))
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// The five end-to-end metrics a run knows before the process ends
/// (`peak_rss_mb` is read last), with the raw figures behind the three
/// that are reported at the reference speed.
fn end_to_end(w: &Workload, m: &Measured) -> (Values, Values) {
    let verified = m.verified_in_window_us();
    let raw_latency_ms = latency_p50_ms(m.timed());
    let raw_cpu_ms = (m.end.0.cpu_s - m.start.0.cpu_s) * 1000.0 / verified.len().max(1) as f64;
    let raw_goodput = per_second_median(&verified, m.seconds);
    // Other tenants slow the box by tens of percent for minutes at a time
    // (README, "Speed index"), so what follows the box's speed is reported
    // at the reference speed, with the raw figure beside it: CPU time,
    // latency, and goodput when it is capacity. In open loop the time a
    // request waits in a shuffle buffer is set by the arrival schedule and
    // the timer, not by the box; in closed loop the arrivals are the
    // system's own answers, so there it follows the box like the rest.
    let closed = matches!(w.load, Load::Closed { .. });
    let waiting_ms = if closed {
        0.0
    } else {
        (m.dwell_ms(Stage::ShuffleRequest) + m.dwell_ms(Stage::ShuffleResponse)).min(raw_latency_ms)
    };

    let mut gated = Values::new();
    let mut put = |name: &str, value: f64| gated.insert(name.to_owned(), value);
    put("setup_s", m.setup_s);
    put(
        "latency_p50_ms",
        waiting_ms + (raw_latency_ms - waiting_ms) / m.speed_index,
    );
    put(
        "goodput_rps",
        if closed {
            raw_goodput * m.speed_index
        } else {
            raw_goodput
        },
    );
    put("cpu_ms_per_req", raw_cpu_ms / m.speed_index);
    put("anonymity_set_mean", m.start.0.anonymity_set_mean(&m.end.0));

    let raw = Values::from([
        ("driver.speed_index".to_owned(), m.speed_index),
        ("driver.latency_p50_raw_ms".to_owned(), raw_latency_ms),
        ("driver.cpu_raw_ms_per_req".to_owned(), raw_cpu_ms),
        ("driver.goodput_raw_rps".to_owned(), raw_goodput),
    ]);
    (gated, raw)
}

/// The per-layer metrics of a traced run: the layer walk, the
/// differences of the cluster's aggregates over the window, and the
/// driver's ungated figures. Returns them with the number of walked
/// requests that came out wrong.
fn per_layer(
    w: &Workload,
    plan: &Plan,
    lrs: &LrsHandle,
    m: &Measured,
    idle_cores: f64,
) -> (Values, u64) {
    let mut out = Values::new();
    let mut put = |name: String, value: f64| out.insert(name, value);

    let walked = walk::walk(w, plan, lrs);
    let layer = trace::self_time_medians_us(&walked.spans);
    for span in [
        "crypto.rsa_decrypt",
        "crypto.rsa_encrypt",
        "crypto.det_ctr",
        "crypto.aes_ctr_list",
        "core.client.get",
        "core.client.post",
        "core.client.open_response",
        "core.ua.process",
        "core.ia.process_get",
        "core.ia.process_post",
        "core.ia.process_get_response",
        "core.message.codec",
        "sgx.ecall",
        "wire.frame.encode",
        "wire.frame.decode",
        "wire.hop_rtt",
        "lrs.query",
        "lrs.event",
        "lrs.stub",
        "json.parse",
        "json.write",
    ] {
        // A layer this workload never calls reads 0.
        put(
            format!("{span}_us"),
            layer.get(span).copied().unwrap_or(0.0),
        );
    }

    let ((a, lrs_before), (b, lrs_after)) = (&m.start, &m.end);
    for (stage, name) in [(Stage::Ua, "ua"), (Stage::Ia, "ia"), (Stage::Lrs, "lrs")] {
        put(
            format!("core.stage.{name}_p50_us"),
            a.stage_delta(b, stage).p50() as f64,
        );
    }
    let request_dwell_ms = m.dwell_ms(Stage::ShuffleRequest);
    let response_dwell_ms = m.dwell_ms(Stage::ShuffleResponse);
    put(
        "core.shuffler.request_dwell_p50_ms".into(),
        request_dwell_ms,
    );
    put(
        "core.shuffler.response_dwell_p50_ms".into(),
        response_dwell_ms,
    );
    for (i, cause) in ["full", "timeout", "drain"].into_iter().enumerate() {
        put(
            format!("core.shuffler.flush_{cause}"),
            (b.flushes[i] - a.flushes[i]) as f64,
        );
    }
    put(
        "core.shuffler.occupancy_high_water".into(),
        b.shuffle_high_water as f64,
    );
    put("core.shuffler.push_ns".into(), walked.shuffle_push_ns);

    let window_us = m.seconds as f64 * 1e6;
    let (mut reconnects, mut retries) = (0, 0);
    for (tier, (ta, tb)) in TIERS.iter().zip(a.tiers.iter().zip(&b.tiers)) {
        put(
            format!("wire.{tier}.queue_depth_high_water"),
            tb.queue_depth_high_water as f64,
        );
        put(
            format!("wire.{tier}.worker_busy_share"),
            (tb.worker_busy_us - ta.worker_busy_us) as f64 / (tb.workers.max(1) as f64 * window_us),
        );
        put(
            format!("wire.{tier}.poll_pass_p50_us"),
            probe::histogram_delta(&ta.poll_loop, &tb.poll_loop).p50() as f64,
        );
        put(format!("wire.{tier}.shed"), (tb.shed - ta.shed) as f64);
        put(
            format!("wire.{tier}.frames_in"),
            (tb.frames_in - ta.frames_in) as f64,
        );
        reconnects += tb.reconnects - ta.reconnects;
        retries += tb.retries - ta.retries;
    }
    put("wire.client.reconnects".into(), reconnects as f64);
    put("wire.client.retries".into(), retries as f64);

    put("lrs.build_s".into(), m.parts.lrs_build_s);
    put(
        "lrs.events_ingested".into(),
        (lrs_after.0 - lrs_before.0) as f64,
    );
    put(
        "lrs.queries_served".into(),
        (lrs_after.1 - lrs_before.1) as f64,
    );

    let verified = m.verified_in_window_us().len().max(1) as f64;
    put("process.idle_cpu_cores".into(), idle_cores);
    put(
        "process.ctx_switches_per_req".into(),
        (b.ctx_switches - a.ctx_switches) as f64 / verified,
    );
    put("process.threads".into(), b.threads as f64);

    put("setup.keygen_s".into(), walked.keygen_s);
    put("setup.lrs_build_s".into(), m.parts.lrs_build_s);
    put("setup.launch_s".into(), m.parts.launch_s);
    put("setup.client_encrypt_s".into(), m.parts.client_encrypt_s);
    put("setup.warmup_s".into(), m.warmup_s);

    let latency = latencies_ms(m.timed());
    let p50_where = |keep: &dyn Fn(&Answer) -> bool| {
        percentile(&latencies_ms(m.timed().filter(|a| keep(a))), 0.5)
    };
    let mut lag: Vec<f64> = m
        .timed()
        .map(|a| ms(a.sent_ns.saturating_sub(a.due_ns)))
        .collect();
    lag.sort_by(f64::total_cmp);
    put("driver.latency_p90_ms".into(), percentile(&latency, 0.9));
    put("driver.latency_p99_ms".into(), percentile(&latency, 0.99));
    put("driver.latency_max_ms".into(), percentile(&latency, 1.0));
    put(
        "driver.get_latency_p50_ms".into(),
        p50_where(&|a| !a.is_post),
    );
    put(
        "driver.post_latency_p50_ms".into(),
        p50_where(&|a| a.is_post),
    );
    put("driver.sched_lag_p99_ms".into(), percentile(&lag, 0.99));
    put("driver.sched_lag_max_ms".into(), percentile(&lag, 1.0));
    put(
        "driver.residual_ms".into(),
        latency_p50_ms(m.timed()) - walked.chain_ms - request_dwell_ms - response_dwell_ms,
    );
    // Driver spans are recorded in the odd seconds only; the even
    // seconds of the same run are the untraced reference.
    let untraced_p50 = p50_where(&|a| !driver::in_traced_second(a.read_ns));
    let traced_p50 = p50_where(&|a| driver::in_traced_second(a.read_ns));
    put(
        "driver.tracing_overhead_pct".into(),
        (traced_p50 - untraced_p50) / untraced_p50.max(f64::MIN_POSITIVE) * 100.0,
    );

    let path = out_dir().join(format!("trace-{}.jsonl", w.name));
    if let Err(e) = trace::write_jsonl(&path, &[&walked.spans, &m.log.spans]) {
        eprintln!("could not write {}: {e}", path.display());
    }
    (out, walked.failures)
}

fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    started: Instant,
) -> Report {
    let plan = workload::plan(w, seed, seconds);
    let (mut m, lrs) = measure(w, &plan, seconds, traced, started);

    // Account for every timed request: one that was answered `busy` or
    // with another error, was never answered or did not verify is failed
    // and in no latency figure.
    let count = |outcome| m.timed().filter(|a| a.outcome == outcome).count() as u64;
    let (ok, busy, refused, wrong) = (
        count(Outcome::Ok),
        count(Outcome::Busy),
        count(Outcome::Refused),
        count(Outcome::Wrong),
    );
    let unanswered = m.log.unanswered.iter().filter(|&&d| m.in_window(d)).count() as u64;
    let attempted = m.timed().count() as u64 + unanswered;
    let failed = attempted - ok;
    let warmup = || m.log.answers.iter().filter(|a| a.due_ns < WINDOW_START_NS);
    let warmup_wrong = warmup().filter(|a| a.outcome == Outcome::Wrong).count();
    let warmup_unserved = warmup().filter(|a| a.outcome != Outcome::Ok).count() - warmup_wrong
        + m.log
            .unanswered
            .iter()
            .filter(|&&d| d < WINDOW_START_NS)
            .count();

    let (mut end_to_end, mut per_layer_values) = end_to_end(w, &m);
    let mut walk_failures = 0;
    if traced {
        // What the cluster's poll loops burn with no traffic at all.
        let idle_from = probe::cpu_seconds();
        std::thread::sleep(IDLE_PROBE);
        let idle_cores = (probe::cpu_seconds() - idle_from) / IDLE_PROBE.as_secs_f64();
        let (layers, failures) = per_layer(w, &plan, &lrs, &m, idle_cores);
        walk_failures = failures;
        per_layer_values.extend(layers);
        for (name, value) in [
            ("driver.requests_sent", attempted),
            ("driver.requests_ok", ok),
            ("driver.requests_failed", failed),
            ("driver.busy_replies", busy),
        ] {
            per_layer_values.insert(name.to_owned(), value as f64);
        }
    }
    m.cluster.shutdown();
    drop(m);
    end_to_end.insert("peak_rss_mb".to_owned(), probe::peak_rss_mib());

    if failed + warmup_wrong as u64 + warmup_unserved as u64 + walk_failures > 0 {
        // For whoever reads the end of a failed run's standard error.
        eprintln!(
            "{}: {failed} of {attempted} timed requests failed ({busy} busy, {refused} refused, \
             {wrong} wrong, {unanswered} unanswered); warm-up: {warmup_wrong} wrong, \
             {warmup_unserved} not served; layer walk: {walk_failures} wrong",
            w.name
        );
    }
    Report {
        workload: w,
        // The outputs are correct when no answer was a wrong one and some
        // were right. A request the chain refused or lost is a failed
        // request, counted above, but no wrong output.
        correct: ok > 0 && wrong == 0 && warmup_wrong == 0 && walk_failures == 0,
        attempted,
        failed,
        traced,
        end_to_end,
        per_layer: per_layer_values,
    }
}

/// Where the span files go: `benchmark/out` of the checkout the binary
/// runs in, or of the one it was built in.
fn out_dir() -> std::path::PathBuf {
    let here = std::path::Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Runs every workload in a process of its own, as the driver does, so
/// that each one's set-up time and peak memory are its own. Prints each
/// child's report and, last, one object of their result lines by name.
fn run_all(args: &Args) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut lines = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
        println!("{report}");
        lines.push(format!("\"{}\":{}", w.name, line));
        all_correct &= child.status.success() && !line.is_empty();
    }
    println!("{{{}}}", lines.join(","));
    Ok(all_correct)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.check_speed_probe {
        let _guard = probe::IdleGuard::start();
        let moved = probe::check_speed_probe(SPEED_CHECK_ROUNDS);
        println!(
            "largest difference between two conditions: {:.1} %",
            moved * 100.0
        );
        return if moved <= SPEED_CHECK_LIMIT {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let correct = match args.workload {
        None => run_all(&args).unwrap_or_else(|e| {
            eprintln!("could not run a workload: {e}");
            false
        }),
        Some(w) => {
            // Held until every figure is read, the last being peak memory.
            let guard = probe::IdleGuard::start();
            let report = run_workload(w, args.seed, args.seconds, args.trace, started);
            // Printed after measuring: it runs `rustc` and `git`.
            println!("{}", report::environment(guard.is_some()));
            print!("{}", report.table());
            println!("{}", report.result_line());
            report.correct
        }
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(is_post: bool, latency_ms: u64, outcome: Outcome) -> Answer {
        Answer {
            due_ns: 1_000_000,
            sent_ns: 1_000_000,
            read_ns: (1 + latency_ms) * 1_000_000,
            is_post,
            outcome,
        }
    }

    #[test]
    fn latency_median_is_taken_per_kind_of_operation() {
        // Posts at 1 ms, gets at 3 ms: one get more or less must not
        // carry the figure from one mode to the other.
        let mut answers: Vec<Answer> = (0..10).map(|_| answer(true, 1, Outcome::Ok)).collect();
        answers.extend((0..11).map(|_| answer(false, 3, Outcome::Ok)));
        assert_eq!(latency_p50_ms(answers.iter()), 2.0);
        answers.truncate(19);
        assert_eq!(latency_p50_ms(answers.iter()), 2.0);
        // One kind only: the plain median; failed requests are in no figure.
        let gets = [
            answer(false, 2, Outcome::Ok),
            answer(false, 4, Outcome::Ok),
            answer(false, 6, Outcome::Ok),
            answer(false, 90, Outcome::Wrong),
        ];
        assert_eq!(latency_p50_ms(gets.iter()), 4.0);
        assert_eq!(latency_p50_ms([].iter()), 0.0);
    }
}
