// fixture-role: crates/core/src/ia.rs
// expect: R6
//
// An enclave layer state that times its own transform: the clock read is
// a call out to the host, and the histogram it writes is host memory
// shared across the boundary. The wire service times the ECALL instead.

pub struct IaState {
    processing_histogram: Option<Arc<LatencyHistogram>>,
}

impl IaState {
    pub fn process_post(&mut self) {
        let started = Instant::now();
        if let Some(h) = &self.processing_histogram {
            h.record(started.elapsed().as_micros() as u64);
        }
    }
}
