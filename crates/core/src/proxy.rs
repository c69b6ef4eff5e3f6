//! An in-process PProx deployment: enclaves, layers, and an LRS behind
//! them — the differential oracle for the serving chain.
//!
//! [`PProxDeployment`] wires the full §4.2 lifecycle with *real*
//! cryptography and the simulated SGX platform: user-side library →
//! UA enclave → IA enclave → LRS REST handler, and back. Requests are
//! processed synchronously on the caller's thread: no threads, no
//! sockets, no shuffling, no retries. That is its role. The one
//! concurrent request path is `pprox-wire` (`services::{ua, ia, lrs}`
//! behind `LoopbackCluster`: shuffle stages, breaker and retries,
//! supervised respawn — what the repo's benchmark drives); this
//! deployment runs the same layer transforms with nothing around them,
//! so a seeded trace replayed through both must give the same
//! recommendations and leave the same events in the LRS
//! (`tests/wire_e2e.rs`). It also hands its enclaves to the attack
//! harness (`pprox-attack`, `security_analysis`), and serves the
//! functional tests, the examples and the criterion micro-benchmarks of
//! per-request cost.

use crate::client::{GetTicket, UserClient};
use crate::config::PProxConfig;
use crate::ia::{IaOptions, IaState};
use crate::keys::{KeyProvisioner, IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use crate::message::{ClientEnvelope, EncryptedList, Op};
use crate::ua::UaState;
use crate::PProxError;
use pprox_crypto::rng::SecureRng;
use pprox_lrs::api::{HttpRequest, RecommendationList, RestHandler, EVENTS_PATH, QUERIES_PATH};
use pprox_sgx::{Enclave, Platform};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A complete in-process PProx deployment.
pub struct PProxDeployment {
    platform: Platform,
    provisioner: KeyProvisioner,
    ua_layer: Vec<Arc<Enclave<UaState>>>,
    ia_layer: Vec<Arc<Enclave<IaState>>>,
    lrs: Arc<dyn RestHandler>,
    config: PProxConfig,
    next_ua: AtomicUsize,
    next_ia: AtomicUsize,
    client_seq: AtomicUsize,
}

impl std::fmt::Debug for PProxDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PProxDeployment")
            .field("ua_instances", &self.ua_layer.len())
            .field("ia_instances", &self.ia_layer.len())
            .field("encryption", &self.config.encryption)
            .finish()
    }
}

impl PProxDeployment {
    /// Builds a deployment: generates layer keys, loads and attests
    /// `ua_instances + ia_instances` enclaves, and provisions them.
    ///
    /// # Errors
    ///
    /// Propagates attestation/provisioning failures (none occur with a
    /// well-formed platform).
    pub fn new(
        config: PProxConfig,
        lrs: Arc<dyn RestHandler>,
        seed: u64,
    ) -> Result<Self, PProxError> {
        // Platform first, layer keys second: the order `LoopbackCluster`
        // draws them in, so one seed gives both deployments the same keys
        // — and the same pseudonyms, which the differential test compares.
        let mut rng = SecureRng::from_seed(seed);
        let platform = Platform::new(&mut rng);
        let provisioner = KeyProvisioner::generate(config.modulus_bits, &mut rng);
        let mut ua_layer = Vec::with_capacity(config.ua_instances);
        for _ in 0..config.ua_instances.max(1) {
            let enclave = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
            provisioner.provision_ua(&platform, &enclave)?;
            ua_layer.push(enclave);
        }
        let mut ia_layer = Vec::with_capacity(config.ia_instances);
        for _ in 0..config.ia_instances.max(1) {
            let enclave = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
            provisioner.provision_ia(&platform, &enclave)?;
            ia_layer.push(enclave);
        }
        Ok(PProxDeployment {
            platform,
            provisioner,
            ua_layer,
            ia_layer,
            lrs,
            config,
            next_ua: AtomicUsize::new(0),
            next_ia: AtomicUsize::new(0),
            client_seq: AtomicUsize::new(0),
        })
    }

    /// A fresh user-side library instance wired to this deployment's
    /// public keys.
    pub fn client(&self) -> UserClient {
        let seq = self.client_seq.fetch_add(1, Ordering::Relaxed) as u64;
        if self.config.encryption {
            UserClient::new(self.provisioner.client_keys(), 0x5eed ^ seq)
        } else {
            UserClient::new_passthrough(self.provisioner.client_keys(), 0x5eed ^ seq)
        }
    }

    /// The simulated SGX platform (exposed for the attack harness).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// UA-layer enclaves (exposed for the attack harness).
    pub fn ua_layer(&self) -> &[Arc<Enclave<UaState>>] {
        &self.ua_layer
    }

    /// IA-layer enclaves (exposed for the attack harness).
    pub fn ia_layer(&self) -> &[Arc<Enclave<IaState>>] {
        &self.ia_layer
    }

    /// Deployment configuration.
    pub fn config(&self) -> &PProxConfig {
        &self.config
    }

    fn ia_options(&self) -> IaOptions {
        IaOptions {
            encryption: self.config.encryption,
            item_pseudonymization: self.config.item_pseudonymization,
        }
    }

    fn pick_ua(&self) -> &Arc<Enclave<UaState>> {
        let i = self.next_ua.fetch_add(1, Ordering::Relaxed) % self.ua_layer.len();
        &self.ua_layer[i]
    }

    fn pick_ia(&self) -> &Arc<Enclave<IaState>> {
        let i = self.next_ia.fetch_add(1, Ordering::Relaxed) % self.ia_layer.len();
        &self.ia_layer[i]
    }

    /// Drives a `post` envelope through UA → IA → LRS (Figure 3).
    ///
    /// # Errors
    ///
    /// Crypto/format errors from the layers, or [`PProxError::Lrs`] when
    /// the LRS rejects the pseudonymized event.
    pub fn handle_post(&self, envelope: &ClientEnvelope) -> Result<(), PProxError> {
        debug_assert_eq!(envelope.op, Op::Post);
        let encryption = self.config.encryption;
        let layer_env = self
            .pick_ua()
            .call(|ua| ua.process(envelope, encryption))??;
        let options = self.ia_options();
        let event = self
            .pick_ia()
            .call(|ia| ia.process_post(&layer_env, options))??;
        let response = self
            .lrs
            .handle(&HttpRequest::post(EVENTS_PATH, event.to_json()));
        if !response.is_success() {
            return Err(PProxError::Lrs {
                status: response.status,
            });
        }
        Ok(())
    }

    /// Drives a `get` envelope through UA → IA → LRS and the response
    /// back through IA (Figure 4), returning the encrypted list for the
    /// client to open.
    ///
    /// # Errors
    ///
    /// Crypto/format errors from the layers, or [`PProxError::Lrs`] when
    /// the LRS rejects the query or returns an unparsable body.
    pub fn handle_get(&self, envelope: &ClientEnvelope) -> Result<EncryptedList, PProxError> {
        debug_assert_eq!(envelope.op, Op::Get);
        let encryption = self.config.encryption;
        let layer_env = self
            .pick_ua()
            .call(|ua| ua.process(envelope, encryption))??;
        let options = self.ia_options();
        let ia = self.pick_ia();
        let (query, token) = ia.call(|ia| ia.process_get(&layer_env, options))??;
        let response = self
            .lrs
            .handle(&HttpRequest::post(QUERIES_PATH, query.to_json()));
        if !response.is_success() {
            return Err(PProxError::Lrs {
                status: response.status,
            });
        }
        let list =
            RecommendationList::from_json(&response.body).ok_or(PProxError::MalformedMessage)?;
        let ids: Vec<String> = list.items.into_iter().map(|s| s.item).collect();
        ia.call(|ia| ia.process_get_response(token, &ids, options))?
    }

    /// Convenience: full `get(u)` round trip for one user, returning the
    /// plaintext recommendations as the application sees them.
    ///
    /// # Errors
    ///
    /// Any layer or LRS error from the round trip.
    pub fn get_recommendations(
        &self,
        client: &mut UserClient,
        user: &str,
    ) -> Result<Vec<String>, PProxError> {
        let (envelope, ticket) = client.get(user)?;
        let encrypted = self.handle_get(&envelope)?;
        client.open_response(&ticket, &encrypted)
    }

    /// Convenience: `get(u)` with a blacklist of items the user must not
    /// be recommended (the Universal Recommender business rule, carried
    /// encrypted to the IA layer).
    ///
    /// # Errors
    ///
    /// Any layer or LRS error from the round trip.
    pub fn get_recommendations_with_rules(
        &self,
        client: &mut UserClient,
        user: &str,
        exclude: &[&str],
    ) -> Result<Vec<String>, PProxError> {
        let (envelope, ticket) = client.get_with_rules(user, exclude)?;
        let encrypted = self.handle_get(&envelope)?;
        client.open_response(&ticket, &encrypted)
    }

    /// Convenience: full `post(u, i[, p])` round trip.
    ///
    /// # Errors
    ///
    /// Any layer or LRS error from the round trip.
    pub fn post_feedback(
        &self,
        client: &mut UserClient,
        user: &str,
        item: &str,
        payload: Option<f64>,
    ) -> Result<(), PProxError> {
        let envelope = client.post(user, item, payload)?;
        self.handle_post(&envelope)
    }

    /// Consumes a get ticket and response (re-exported for callers that
    /// split the round trip).
    pub fn open(
        &self,
        client: &UserClient,
        ticket: &GetTicket,
        response: &EncryptedList,
    ) -> Result<Vec<String>, PProxError> {
        client.open_response(ticket, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprox_lrs::shard::ShardEngine;
    use pprox_lrs::stub::StubLrs;
    use pprox_lrs::MAX_RECOMMENDATIONS;

    fn stub_deployment() -> PProxDeployment {
        PProxDeployment::new(PProxConfig::for_tests(), Arc::new(StubLrs::new()), 99).unwrap()
    }

    #[test]
    fn post_reaches_stub() {
        let d = stub_deployment();
        let mut client = d.client();
        d.post_feedback(&mut client, "alice", "m00001", Some(4.0))
            .unwrap();
    }

    #[test]
    fn get_roundtrip_through_stub() {
        let d = stub_deployment();
        let mut client = d.client();
        let items = d.get_recommendations(&mut client, "alice").unwrap();
        // Stub ids are not pseudonyms; they pass through the IA unchanged
        // and arrive, decrypted by the client, as the full canned list.
        assert_eq!(items.len(), MAX_RECOMMENDATIONS);
        assert!(items[0].starts_with("stub-item-"));
    }

    #[test]
    fn end_to_end_with_real_engine() {
        let engine = Arc::new(ShardEngine::new());
        let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), 7).unwrap();
        let mut client = d.client();

        // Two clusters of taste, inserted THROUGH the proxy.
        for u in 0..6 {
            d.post_feedback(&mut client, &format!("sci-{u}"), "alien", None)
                .unwrap();
            d.post_feedback(&mut client, &format!("sci-{u}"), "dune", None)
                .unwrap();
        }
        for u in 0..6 {
            d.post_feedback(&mut client, &format!("rom-{u}"), "amelie", None)
                .unwrap();
            d.post_feedback(&mut client, &format!("rom-{u}"), "notebook", None)
                .unwrap();
        }
        engine.sync();

        d.post_feedback(&mut client, "newbie", "alien", None)
            .unwrap();
        let recs = d.get_recommendations(&mut client, "newbie").unwrap();
        assert!(recs.contains(&"dune".to_owned()), "{recs:?}");
        assert!(!recs.contains(&"amelie".to_owned()));
        // Padding was stripped: only real items remain.
        assert!(recs.len() < MAX_RECOMMENDATIONS);
    }

    #[test]
    fn lrs_never_sees_plaintext_ids() {
        let engine = Arc::new(ShardEngine::new());
        let d = PProxDeployment::new(PProxConfig::for_tests(), engine.clone(), 8).unwrap();
        let mut client = d.client();
        d.post_feedback(&mut client, "secret-user", "secret-item", None)
            .unwrap();
        // The event was stored — but under pseudonyms: querying the LRS by
        // the plaintext user id finds nothing.
        assert_eq!(engine.gauges().events, 1);
        assert!(engine.history("secret-user").is_empty());
    }

    #[test]
    fn round_robin_across_instances() {
        let config = PProxConfig {
            ua_instances: 2,
            ia_instances: 2,
            ..PProxConfig::for_tests()
        };
        let d = PProxDeployment::new(config, Arc::new(StubLrs::new()), 9).unwrap();
        let mut client = d.client();
        for i in 0..4 {
            d.post_feedback(&mut client, &format!("u{i}"), "m", None)
                .unwrap();
        }
        for ua in d.ua_layer() {
            assert_eq!(ua.ecall_count(), 2, "posts split across UA instances");
        }
    }

    #[test]
    fn passthrough_mode_end_to_end() {
        let engine = Arc::new(ShardEngine::new());
        let config = PProxConfig {
            encryption: false,
            item_pseudonymization: false,
            ..PProxConfig::for_tests()
        };
        let d = PProxDeployment::new(config, engine.clone(), 10).unwrap();
        let mut client = d.client();
        d.post_feedback(&mut client, "alice", "m1", None).unwrap();
        // In passthrough mode the LRS sees plaintext ids (this is m1).
        assert_eq!(engine.history("alice"), vec!["m1"]);
    }

    #[test]
    fn deployment_debug() {
        let d = stub_deployment();
        let s = format!("{d:?}");
        assert!(s.contains("ua_instances: 1"));
    }
}
