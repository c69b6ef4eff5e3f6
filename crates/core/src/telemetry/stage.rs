//! The pipeline stages a latency histogram can describe.

/// A pipeline stage a latency histogram can describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client-side envelope encryption (user-side library).
    ClientEncrypt = 0,
    /// Dwell inside the request-direction shuffle buffer.
    ShuffleRequest = 1,
    /// UA enclave processing (decrypt + pseudonymize).
    Ua = 2,
    /// IA enclave processing (item pseudonymization, response keys).
    Ia = 3,
    /// One LRS attempt (per try), submit to completion.
    LrsAttempt = 4,
    /// The full resilient LRS call: retries, backoff, breaker included.
    Lrs = 5,
    /// Dwell inside the response-direction shuffle buffer.
    ShuffleResponse = 6,
    /// Whole-request latency, admission to delivery.
    E2e = 7,
}

impl Stage {
    /// All stages, in pipeline order — which is discriminant order:
    /// [`super::StageSet`] indexes its histograms by `stage as usize`.
    pub const ALL: [Stage; 8] = [
        Stage::ClientEncrypt,
        Stage::ShuffleRequest,
        Stage::Ua,
        Stage::Ia,
        Stage::LrsAttempt,
        Stage::Lrs,
        Stage::ShuffleResponse,
        Stage::E2e,
    ];

    /// Exported label (Prometheus `stage` label / JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::ClientEncrypt => "client_encrypt",
            Stage::ShuffleRequest => "shuffle_request",
            Stage::Ua => "ua",
            Stage::Ia => "ia",
            Stage::LrsAttempt => "lrs_attempt",
            Stage::Lrs => "lrs",
            Stage::ShuffleResponse => "shuffle_response",
            Stage::E2e => "e2e",
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
