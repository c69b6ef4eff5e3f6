//! The pipeline stages a latency histogram can describe.

/// A pipeline stage a latency histogram can describe: what a node
/// measures around the work it does. Each sample is taken by the node's
/// wire service, outside any enclave (an enclave has no clock of its
/// own); a client's own timings stay on the client's device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Dwell inside the request-direction shuffle buffer.
    ShuffleRequest = 0,
    /// One UA ECALL (decrypt + pseudonymize), refused ones included.
    Ua = 1,
    /// One request-side IA ECALL (post or get), refused ones included.
    Ia = 2,
    /// One LRS attempt (per try), submit to completion.
    LrsAttempt = 3,
    /// The full resilient LRS call: retries, backoff, breaker included.
    Lrs = 4,
    /// One IA get-response ECALL (re-encrypting the list), refused ones
    /// included.
    IaResponse = 5,
    /// Dwell inside the response-direction shuffle buffer.
    ShuffleResponse = 6,
}

impl Stage {
    /// All stages, in pipeline order — which is discriminant order:
    /// [`super::StageSet`] indexes its histograms by `stage as usize`.
    pub const ALL: [Stage; 7] = [
        Stage::ShuffleRequest,
        Stage::Ua,
        Stage::Ia,
        Stage::LrsAttempt,
        Stage::Lrs,
        Stage::IaResponse,
        Stage::ShuffleResponse,
    ];

    /// Exported label (Prometheus `stage` label / JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::ShuffleRequest => "shuffle_request",
            Stage::Ua => "ua",
            Stage::Ia => "ia",
            Stage::LrsAttempt => "lrs_attempt",
            Stage::Lrs => "lrs",
            Stage::IaResponse => "ia_response",
            Stage::ShuffleResponse => "shuffle_response",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(labels.len(), Stage::ALL.len());
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i);
        }
    }
}
