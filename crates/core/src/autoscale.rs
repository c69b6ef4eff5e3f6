//! Elastic scaling of the proxy layers (§5).
//!
//! "The two proxy layers need, therefore, to elastically scale up and
//! down based on observed request load, dynamically implementing a
//! compromise between throughput and latency." Two forces pull in
//! opposite directions:
//!
//! * **Throughput** — each UA+IA pair sustains ~250 requests/s before
//!   queueing explodes (Figure 8), so high load needs more instances.
//! * **Latency/privacy** — shuffling needs each instance's buffer to fill
//!   before its timer: over-provisioning starves the buffers and either
//!   adds timer latency (Figure 8's 50-RPS cells) or, with short timers,
//!   shrinks the effective anonymity set below `S`.
//!
//! [`Autoscaler`] implements that policy as a pure function of observed
//! load plus hysteresis, so it is testable and usable by both the serving
//! chain and the simulator.

/// Autoscaler policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Sustainable requests/s per UA+IA instance pair (≈250 in the
    /// paper's evaluation).
    pub rps_per_pair: f64,
    /// Target utilization at the chosen scale (leave headroom below the
    /// saturation knee).
    pub target_utilization: f64,
    /// Minimum per-instance request rate needed to fill shuffle buffers
    /// of size `S` within the timer: `S / timeout`. Scaling *up* beyond
    /// this starves the buffers.
    pub min_rps_per_instance_for_shuffling: f64,
    /// Upper bound on instances per layer.
    pub max_instances: usize,
    /// Scale down only when the target drops below the current scale by
    /// this fraction (hysteresis against flapping).
    pub scale_down_headroom: f64,
    /// Tail-latency SLO for the worst *processing* stage (UA, IA or the
    /// LRS call), microseconds at p99. Fed from
    /// [`crate::telemetry::StageSet::worst_processing_p99_us`]; when the
    /// observed p99 breaches it, capacity is added even if mean throughput
    /// looks fine — queueing inflates the tail long before the mean moves.
    pub stage_p99_slo_us: u64,
}

impl AutoscaleConfig {
    /// Policy matching the paper's deployment: 250 RPS per pair, 80%
    /// target utilization, `S = 10` with a 500 ms timer (so an instance
    /// needs ≥20 RPS to fill its buffer), up to 16 instances.
    pub fn paper_default() -> Self {
        AutoscaleConfig {
            rps_per_pair: 250.0,
            target_utilization: 0.8,
            min_rps_per_instance_for_shuffling: 10.0 / 0.5,
            max_instances: 16,
            scale_down_headroom: 0.25,
            // The paper's proxy adds ~10 ms overhead per request (§7.3);
            // a 50 ms p99 on any single processing stage means queueing.
            stage_p99_slo_us: 50_000,
        }
    }
}

/// A scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleDecision {
    /// Instances per layer to run.
    pub instances: usize,
    /// Whether the chosen scale can still fill shuffle buffers by count
    /// (false = the timer will pad out batches; §6.3's low-traffic
    /// caveat applies).
    pub shuffling_healthy: bool,
}

/// Elastic scaling controller for the proxy layers.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    current: usize,
}

impl Autoscaler {
    /// Creates a controller starting at `initial` instances per layer.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is zero or exceeds `config.max_instances`.
    pub fn new(config: AutoscaleConfig, initial: usize) -> Self {
        assert!(initial >= 1 && initial <= config.max_instances);
        Autoscaler {
            config,
            current: initial,
        }
    }

    /// Current instances per layer.
    pub fn instances(&self) -> usize {
        self.current
    }

    /// The ideal instance count for a given load, before hysteresis.
    pub fn target_for(&self, observed_rps: f64) -> usize {
        let capacity_needed =
            (observed_rps / (self.config.rps_per_pair * self.config.target_utilization)).ceil();
        (capacity_needed.max(1.0) as usize).min(self.config.max_instances)
    }

    /// Observes the current load and returns (and adopts) the decision.
    pub fn observe(&mut self, observed_rps: f64) -> ScaleDecision {
        let target = self.target_for(observed_rps.max(0.0));
        if target > self.current {
            // Scale up immediately: saturation hurts every request.
            self.current = target;
        } else if target < self.current {
            // Scale down only with headroom to avoid flapping.
            let down_threshold = self.current as f64 * (1.0 - self.config.scale_down_headroom);
            if (target as f64) <= down_threshold {
                self.current = target;
            }
        }
        let per_instance = observed_rps / self.current as f64;
        ScaleDecision {
            instances: self.current,
            shuffling_healthy: per_instance >= self.config.min_rps_per_instance_for_shuffling,
        }
    }

    /// Like [`observe`](Self::observe), but additionally aware of two
    /// pressure signals that throughput alone misses:
    ///
    /// * `rejection_fraction` — the share of submissions shed at the
    ///   ingress gate (see
    ///   [`crate::resilience::AdmissionGate::rejection_fraction`]).
    ///   Rejected requests never become observed load, so observed RPS
    ///   under-estimates demand while the gate is shedding.
    /// * `stage_p99_us` — the p99 latency of the worst processing stage
    ///   from the telemetry histograms
    ///   ([`crate::telemetry::StageSet::worst_processing_p99_us`]); `None`
    ///   when no stage has observations yet. A queue building in front of
    ///   one stage inflates its tail long before the mean (which a few
    ///   fast requests keep low) reports trouble.
    ///
    /// Either signal firing — more than 1% rejections, or a p99 above
    /// `stage_p99_slo_us` — adds one instance beyond the
    /// throughput-derived target (up to `max_instances`), so capacity
    /// chases offered load and tail health, not just admitted throughput.
    pub fn observe_with_pressure(
        &mut self,
        observed_rps: f64,
        rejection_fraction: f64,
        stage_p99_us: Option<u64>,
    ) -> ScaleDecision {
        let mut decision = self.observe(observed_rps);
        let tail_breached = stage_p99_us.is_some_and(|p99| p99 > self.config.stage_p99_slo_us);
        if (rejection_fraction > 0.01 || tail_breached) && self.current < self.config.max_instances
        {
            self.current += 1;
            decision.instances = self.current;
            let per_instance = observed_rps / self.current as f64;
            decision.shuffling_healthy =
                per_instance >= self.config.min_rps_per_instance_for_shuffling;
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> Autoscaler {
        Autoscaler::new(AutoscaleConfig::paper_default(), 1)
    }

    #[test]
    fn targets_match_figure8_steps() {
        let s = scaler();
        // 250 RPS/pair at 80% target → 200 effective per pair.
        assert_eq!(s.target_for(50.0), 1);
        assert_eq!(s.target_for(200.0), 1);
        assert_eq!(s.target_for(201.0), 2);
        assert_eq!(s.target_for(500.0), 3);
        assert_eq!(s.target_for(1000.0), 5);
    }

    #[test]
    fn scales_up_immediately() {
        let mut s = scaler();
        let d = s.observe(900.0);
        assert_eq!(d.instances, 5);
    }

    #[test]
    fn scales_down_with_hysteresis() {
        let mut s = scaler();
        s.observe(900.0);
        assert_eq!(s.instances(), 5);
        // Small dip: no change (5 → 4 is within the 25% headroom band).
        s.observe(700.0);
        assert_eq!(s.instances(), 5);
        // Large dip: scale down.
        s.observe(100.0);
        assert_eq!(s.instances(), 1);
    }

    #[test]
    fn respects_max_instances() {
        let mut s = Autoscaler::new(
            AutoscaleConfig {
                max_instances: 4,
                ..AutoscaleConfig::paper_default()
            },
            1,
        );
        assert_eq!(s.observe(100_000.0).instances, 4);
    }

    #[test]
    fn detects_shuffle_starvation() {
        let mut s = scaler();
        s.observe(900.0); // 5 instances
                          // Load collapses to 40 RPS but hysteresis holds 5 instances for a
                          // beat: 8 RPS per instance cannot fill S=10 within 500 ms.
        let d = s.observe(40.0 * 5.0 / 5.0); // still 5 instances this tick
                                             // After the big dip the scaler drops to 1 and shuffling recovers.
        let d2 = s.observe(40.0);
        let _ = d;
        assert_eq!(d2.instances, 1);
        assert!(d2.shuffling_healthy, "40 RPS on one instance fills S=10");
    }

    #[test]
    fn starved_when_overprovisioned() {
        // Figure 8's m9-at-50-RPS cell: a *statically* provisioned 4-pair
        // deployment (scale-down disabled) at 50 RPS = 12.5 RPS per
        // instance < 20 needed → unhealthy shuffling (timer-bound).
        let mut s = Autoscaler::new(
            AutoscaleConfig {
                scale_down_headroom: 1.0, // never scale down
                ..AutoscaleConfig::paper_default()
            },
            4,
        );
        let d = s.observe(50.0);
        assert_eq!(d.instances, 4);
        assert!(!d.shuffling_healthy);
    }

    #[test]
    fn rejection_pressure_scales_beyond_observed_rps() {
        let mut s = scaler();
        // 150 RPS admitted would normally fit one pair, but 10% of
        // submissions are being shed: add capacity for the unseen demand.
        let d = s.observe_with_pressure(150.0, 0.10, None);
        assert_eq!(d.instances, 2);
        // No pressure → identical to plain observe.
        let mut s2 = scaler();
        let d2 = s2.observe_with_pressure(150.0, 0.0, None);
        assert_eq!(d2.instances, 1);
        // Pressure never exceeds max_instances.
        let mut s3 = Autoscaler::new(
            AutoscaleConfig {
                max_instances: 2,
                ..AutoscaleConfig::paper_default()
            },
            2,
        );
        assert_eq!(s3.observe_with_pressure(100.0, 0.5, None).instances, 2);
    }

    #[test]
    fn tail_inflation_scales_out_where_the_mean_is_blind() {
        use crate::telemetry::LatencyHistogram;
        // A workload whose mean hides the queue: 980 requests at 1 ms and
        // 20 stragglers (2%) at 400 ms. Mean ≈ 9 ms (healthy-looking);
        // p99 is 400 ms — far past the 50 ms stage SLO.
        let h = LatencyHistogram::new();
        for _ in 0..980 {
            h.record(1_000);
        }
        for _ in 0..20 {
            h.record(400_000);
        }
        let snap = h.snapshot();
        assert!(
            snap.mean_us() < 10_000.0,
            "mean {} looks fine",
            snap.mean_us()
        );
        let p99 = snap.p99();
        assert!(p99 >= 390_000, "p99 {p99} must expose the stragglers");

        // The mean-driven signal (what `observe` effectively consumed
        // before): 100 RPS with no rejections → stays at 1 instance.
        let mut mean_driven = scaler();
        assert_eq!(
            mean_driven
                .observe_with_pressure(100.0, 0.0, None)
                .instances,
            1,
            "without the tail signal the scaler is blind to the queue"
        );
        // The p99-driven signal scales out on the same throughput.
        let mut tail_driven = scaler();
        let d = tail_driven.observe_with_pressure(100.0, 0.0, Some(p99));
        assert_eq!(d.instances, 2, "p99 breach must add capacity");
        // A healthy tail adds nothing.
        let mut healthy = scaler();
        assert_eq!(
            healthy
                .observe_with_pressure(100.0, 0.0, Some(4_000))
                .instances,
            1
        );
    }

    #[test]
    fn zero_load_stays_alive() {
        let mut s = scaler();
        let d = s.observe(0.0);
        assert_eq!(d.instances, 1);
        assert!(!d.shuffling_healthy);
    }

    #[test]
    #[should_panic]
    fn invalid_initial_panics() {
        let _ = Autoscaler::new(AutoscaleConfig::paper_default(), 0);
    }
}
