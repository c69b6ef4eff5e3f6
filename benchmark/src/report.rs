//! Metric names and units, and the two forms a report is printed in: a
//! table for people and, as the last line, the JSON object the driver
//! reads.

use std::collections::BTreeMap;

/// The gated end-to-end metrics: `(name, unit)`, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("anonymity_set_mean", "req/flush"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run: `(name, unit)`, as in
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("crypto.rsa_decrypt_us", "us"),
    ("crypto.rsa_encrypt_us", "us"),
    ("crypto.det_ctr_us", "us"),
    ("crypto.aes_ctr_list_us", "us"),
    ("core.client.get_us", "us"),
    ("core.client.post_us", "us"),
    ("core.client.open_response_us", "us"),
    ("core.ua.process_us", "us"),
    ("core.ia.process_get_us", "us"),
    ("core.ia.process_post_us", "us"),
    ("core.ia.process_get_response_us", "us"),
    ("core.message.codec_us", "us"),
    ("sgx.ecall_us", "us"),
    ("core.stage.ua_p50_us", "us"),
    ("core.stage.ia_p50_us", "us"),
    ("core.stage.lrs_p50_us", "us"),
    ("core.shuffler.request_dwell_p50_ms", "ms"),
    ("core.shuffler.response_dwell_p50_ms", "ms"),
    ("core.shuffler.flush_full", "count"),
    ("core.shuffler.flush_timeout", "count"),
    ("core.shuffler.flush_drain", "count"),
    ("core.shuffler.occupancy_high_water", "count"),
    ("core.shuffler.push_ns", "ns"),
    ("wire.frame.encode_us", "us"),
    ("wire.frame.decode_us", "us"),
    ("wire.hop_rtt_us", "us"),
    ("wire.ua.queue_depth_high_water", "count"),
    ("wire.ua.worker_busy_share", "share"),
    ("wire.ua.poll_pass_p50_us", "us"),
    ("wire.ua.shed", "count"),
    ("wire.ua.frames_in", "count"),
    ("wire.ia.queue_depth_high_water", "count"),
    ("wire.ia.worker_busy_share", "share"),
    ("wire.ia.poll_pass_p50_us", "us"),
    ("wire.ia.shed", "count"),
    ("wire.ia.frames_in", "count"),
    ("wire.lrs.queue_depth_high_water", "count"),
    ("wire.lrs.worker_busy_share", "share"),
    ("wire.lrs.poll_pass_p50_us", "us"),
    ("wire.lrs.shed", "count"),
    ("wire.lrs.frames_in", "count"),
    ("wire.client.reconnects", "count"),
    ("wire.client.retries", "count"),
    ("lrs.query_us", "us"),
    ("lrs.event_us", "us"),
    ("lrs.stub_us", "us"),
    ("lrs.build_s", "s"),
    ("lrs.events_ingested", "count"),
    ("lrs.queries_served", "count"),
    ("json.parse_us", "us"),
    ("json.write_us", "us"),
    ("process.idle_cpu_cores", "cores"),
    ("process.ctx_switches_per_req", "1/req"),
    ("process.threads", "count"),
    ("setup.keygen_s", "s"),
    ("setup.lrs_build_s", "s"),
    ("setup.launch_s", "s"),
    ("setup.client_encrypt_s", "s"),
    ("setup.warmup_s", "s"),
    ("driver.speed_index", "ratio"),
    ("driver.latency_p50_raw_ms", "ms"),
    ("driver.cpu_raw_ms_per_req", "ms"),
    ("driver.goodput_raw_rps", "1/s"),
    ("driver.latency_p90_ms", "ms"),
    ("driver.latency_p99_ms", "ms"),
    ("driver.latency_max_ms", "ms"),
    ("driver.get_latency_p50_ms", "ms"),
    ("driver.post_latency_p50_ms", "ms"),
    ("driver.sched_lag_p99_ms", "ms"),
    ("driver.sched_lag_max_ms", "ms"),
    ("driver.requests_sent", "count"),
    ("driver.requests_ok", "count"),
    ("driver.requests_failed", "count"),
    ("driver.busy_replies", "count"),
    ("driver.residual_ms", "ms"),
    ("driver.tracing_overhead_pct", "%"),
];

/// Metric values by name, as measured.
pub type Values = BTreeMap<String, f64>;

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload that ran.
    pub workload: &'static crate::workload::Workload,
    /// No answer — timed, warm-up or (traced) of the layer walk — was a
    /// wrong one, and some timed request was answered.
    pub correct: bool,
    /// Timed requests.
    pub attempted: u64,
    /// Timed requests that were answered `busy` or with another error,
    /// were never answered, or failed verification.
    pub failed: u64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// The six end-to-end metrics.
    pub end_to_end: Values,
    /// The per-layer metrics (a traced run has them all; an untraced one
    /// only the speed index and the raw figures behind the metrics that
    /// are reported at the reference speed).
    pub per_layer: Values,
}

fn metrics_json(table: &[(&'static str, &'static str)], values: &Values) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl Report {
    /// The table of metrics the result line carries: per-layer for a
    /// traced run, end-to-end otherwise.
    fn gated(&self) -> (&'static [(&'static str, &'static str)], &Values) {
        if self.traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let (table, values) = self.gated();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(table, values)
        )
    }

    /// The report for people: every metric by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}) — attempted {}, failed {}, {}\n   {}\n",
            self.workload.name,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            if self.correct {
                "no wrong answer"
            } else {
                "VERIFICATION FAILED"
            },
            self.workload.why,
        );
        let mut section = |table: &[(&'static str, &'static str)], values: &Values| {
            for (name, unit) in table {
                if let Some(value) = values.get(*name) {
                    out.push_str(&format!("{name:<40} {value:>14.4} {unit}\n"));
                }
            }
        };
        section(&END_TO_END, &self.end_to_end);
        section(&PER_LAYER, &self.per_layer);
        out
    }
}

/// What every report says about where it was measured.
pub fn environment(idle_guard: bool) -> String {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "environment: nproc={nproc} profile={profile} rustc=\"{}\" commit={} link=loopback(not a real link) instances_per_layer=1 (I=1) idle_guard={}",
        run("rustc", &["--version"]),
        run("git", &["rev-parse", "--short", "HEAD"]),
        if idle_guard { "on" } else { "off (SCHED_IDLE refused)" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use pprox::json::Value;

    fn filled(table: &[(&'static str, &'static str)]) -> Values {
        table
            .iter()
            .map(|(name, _)| (name.to_string(), 1.5))
            .collect()
    }

    fn report(traced: bool) -> Report {
        Report {
            workload: &WORKLOADS[0],
            correct: true,
            attempted: 10,
            failed: 0,
            traced,
            end_to_end: filled(&END_TO_END),
            per_layer: if traced {
                filled(&PER_LAYER)
            } else {
                Values::new()
            },
        }
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metric_names() {
        for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = report(traced).result_line();
            let v = Value::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
            let mut want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            want.sort_unstable();
            assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want);
            for (name, unit) in table {
                assert_eq!(
                    metrics[*name].get("unit").and_then(Value::as_str),
                    Some(*unit)
                );
                assert_eq!(
                    metrics[*name].get("value").and_then(Value::as_f64),
                    Some(1.5)
                );
            }
        }
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let text = report(true).table();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.lines()
                    .any(|l| l.starts_with(name) && l.ends_with(unit)),
                "{name} missing"
            );
        }
    }

    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let v = Value::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&v, "workloads"), workloads);
        for (w, entry) in WORKLOADS
            .iter()
            .zip(v.get("workloads").and_then(Value::as_array).unwrap())
        {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&v, "per_layer"), layers);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (entry, (_, unit)) in v
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .zip(table)
            {
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit));
            }
        }
    }
}
