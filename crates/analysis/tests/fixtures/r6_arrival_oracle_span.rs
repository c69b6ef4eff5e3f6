// fixture-role: crates/wire/src/services/ua.rs
// expect: R6
//
// The PR-3 arrival-oracle regression: recording a stage as a *span* gives
// the exporter per-request arrival timestamps that §6.2's shuffle argument
// assumes do not exist. The span plane is gone; any record_span call fires,
// whatever stage it names. Durations go through record_duration.

pub fn finish(telemetry: &Telemetry, trace: TraceId, start_us: u64, duration_us: u64) {
    telemetry.record_span(SpanRecord {
        trace,
        stage: Stage::Ua,
        instance: 0,
        start_us,
        duration_us,
        ok: true,
    });
}
