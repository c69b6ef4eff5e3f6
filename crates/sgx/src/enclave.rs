//! Simulated SGX enclaves and the platform that hosts them.
//!
//! The contract enforced here is exactly what the PProx security analysis
//! (§6.1) relies on:
//!
//! * Enclave state (layer secrets, pending response keys) is reachable only
//!   through [`Enclave::call`] — the simulated ECALL boundary. Code outside
//!   the enclave (the proxy's event-driven server, the adversary observing
//!   the host) cannot read it.
//! * Secrets are installed only via [`Enclave::provision`], which consumes
//!   a [`ProvisioningToken`] obtained from successful remote attestation.
//! * An adversary *can* break an enclave through a side-channel attack —
//!   [`Platform::break_enclave`] — obtaining its [`SecretBag`]. But the
//!   platform enforces the paper's §2.3 assumption: attacks are slow and
//!   detectable, so **at most one measurement group** (i.e. one proxy
//!   layer) can be in a compromised state at any time. Breaking a second
//!   group requires first calling [`Platform::detect_and_recover`], which
//!   models breach detection plus key rotation and clears the first breach.

use crate::attestation::{AttestationService, ProvisioningToken, Quote};
use crate::measurement::Measurement;
use crate::sealing::SealingKey;
use crate::{EnclaveError, EnclaveId};
use parking_lot::Mutex;
use pprox_crypto::rng::SecureRng;
use pprox_crypto::secret::SecretBytes;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Secrets extracted from a broken enclave, as named byte strings.
///
/// The attack harness inspects these to mount the §6.1 case analysis
/// (e.g. a broken UA enclave yields `sk_ua` and `k_ua` but never `k_ia`).
/// Values live in [`SecretBytes`]: the derived `Debug` therefore prints
/// names and lengths but never key material, and dropping the bag zeroes
/// every buffer.
// analysis-allow: R4 every value is a SecretBytes, whose own Debug prints
// lengths only — the derived impl is redacting by construction
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecretBag {
    entries: BTreeMap<String, SecretBytes>,
}

impl SecretBag {
    /// Creates an empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named secret.
    pub fn insert(&mut self, name: impl Into<String>, value: Vec<u8>) {
        self.entries.insert(name.into(), SecretBytes::new(value));
    }

    /// Looks up a secret by name.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.entries.get(name).map(|v| v.expose())
    }

    /// Names of all contained secrets.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|k| k.as_str())
    }

    /// Number of secrets in the bag.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no secrets were extracted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// State held inside an enclave must describe what an attacker would steal.
pub trait EnclaveApp: Send + 'static {
    /// The secrets an adversary obtains by breaking this enclave.
    fn leak_secrets(&self) -> SecretBag;
}

struct EnclaveInner<T> {
    state: Option<T>,
}

/// A simulated SGX enclave holding application state `T`.
///
/// Created via [`Platform::load_enclave`]; see the crate docs for the full
/// lifecycle (load → attest → provision → call).
pub struct Enclave<T: EnclaveApp> {
    id: EnclaveId,
    measurement: Measurement,
    inner: Mutex<EnclaveInner<T>>,
    compromised: AtomicBool,
    crashed: AtomicBool,
    ecalls: AtomicU64,
    platform: Weak<PlatformShared>,
}

impl<T: EnclaveApp> std::fmt::Debug for Enclave<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("id", &self.id)
            .field("measurement", &self.measurement)
            .field("compromised", &self.compromised.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: EnclaveApp> Enclave<T> {
    /// This enclave instance's id.
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The enclave's code measurement.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Requests a quote binding `report_data` (the attestation step).
    pub fn quote(&self, report_data: Vec<u8>) -> Quote {
        let platform = self.platform.upgrade().expect("platform dropped");
        platform
            .attestation
            .quote(self.id, self.measurement, report_data)
    }

    /// Installs application state (secrets) after attestation.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::TokenMismatch`] when the token was issued for a
    /// different enclave; [`EnclaveError::AlreadyProvisioned`] on double
    /// provisioning.
    pub fn provision(&self, token: ProvisioningToken, state: T) -> Result<(), EnclaveError> {
        if token.enclave_id != self.id || token.measurement != self.measurement {
            return Err(EnclaveError::TokenMismatch);
        }
        let mut inner = self.inner.lock();
        if inner.state.is_some() {
            return Err(EnclaveError::AlreadyProvisioned);
        }
        inner.state = Some(state);
        Ok(())
    }

    /// Executes `f` against the enclave state — the simulated ECALL.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::NotProvisioned`] before [`provision`](Self::provision)
    /// succeeds; [`EnclaveError::Crashed`] after a fault-injected crash
    /// (the state is dropped — a crashed enclave cannot be revived, only
    /// replaced).
    pub fn call<R>(&self, f: impl FnOnce(&mut T) -> R) -> Result<R, EnclaveError> {
        if self.crashed.load(Ordering::Acquire) {
            return Err(EnclaveError::Crashed);
        }
        self.ecalls.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if self.crashed.load(Ordering::Acquire) {
            return Err(EnclaveError::Crashed);
        }
        match inner.state.as_mut() {
            Some(state) => Ok(f(state)),
            None => Err(EnclaveError::NotProvisioned),
        }
    }

    /// Number of ECALLs performed so far (performance accounting: each
    /// world switch has a cost, dissected in the paper's Figure 6).
    pub fn ecall_count(&self) -> u64 {
        self.ecalls.load(Ordering::Relaxed)
    }

    /// Whether this enclave is currently in a compromised state.
    pub fn is_compromised(&self) -> bool {
        self.compromised.load(Ordering::Relaxed)
    }

    /// Whether this enclave has crashed (see [`Platform::crash_enclave`]).
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }
}

/// Object-safe view of an enclave used by the platform registry.
trait AnyEnclave: Send + Sync {
    fn id(&self) -> EnclaveId;
    fn measurement(&self) -> Measurement;
    fn leak(&self) -> Result<SecretBag, EnclaveError>;
    fn mark_compromised(&self, v: bool);
    fn compromised(&self) -> bool;
    fn crash(&self);
    fn has_crashed(&self) -> bool;
}

impl<T: EnclaveApp> AnyEnclave for Enclave<T> {
    fn id(&self) -> EnclaveId {
        self.id
    }

    fn measurement(&self) -> Measurement {
        self.measurement
    }

    fn leak(&self) -> Result<SecretBag, EnclaveError> {
        let inner = self.inner.lock();
        match inner.state.as_ref() {
            Some(state) => Ok(state.leak_secrets()),
            None => Err(EnclaveError::NotProvisioned),
        }
    }

    fn mark_compromised(&self, v: bool) {
        self.compromised.store(v, Ordering::Relaxed);
    }

    fn compromised(&self) -> bool {
        self.compromised.load(Ordering::Relaxed)
    }

    fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
        // The EPC pages are torn down with the process: state is gone.
        self.inner.lock().state = None;
    }

    fn has_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }
}

struct PlatformShared {
    attestation: AttestationService,
    sealing: SealingKey,
    registry: Mutex<Vec<Arc<dyn AnyEnclave>>>,
    next_id: AtomicU64,
    breaches: AtomicU64,
    recoveries: AtomicU64,
    crashes: AtomicU64,
}

/// Errors from the adversary's compromise API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompromiseError {
    /// A different measurement group is already compromised; the paper's
    /// model forbids breaking two layers synchronously (§2.3).
    AnotherLayerCompromised {
        /// Measurement of the currently compromised group.
        active: Measurement,
    },
    /// Target enclave does not exist.
    UnknownEnclave,
    /// Target enclave holds no secrets yet.
    NotProvisioned,
}

impl std::fmt::Display for CompromiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompromiseError::AnotherLayerCompromised { active } => write!(
                f,
                "layer {active} is already compromised; synchronous multi-layer breaks are outside the adversary model"
            ),
            CompromiseError::UnknownEnclave => write!(f, "no such enclave"),
            CompromiseError::NotProvisioned => write!(f, "enclave holds no secrets"),
        }
    }
}

impl std::error::Error for CompromiseError {}

/// A simulated SGX-capable platform: hosts enclaves, quotes them, and
/// exposes the adversary's (rate-limited) compromise interface.
///
/// # Examples
///
/// ```
/// use pprox_sgx::enclave::{Platform, EnclaveApp, SecretBag};
/// use pprox_sgx::measurement::Measurement;
/// use pprox_crypto::rng::SecureRng;
///
/// struct Counter(u64);
/// impl EnclaveApp for Counter {
///     fn leak_secrets(&self) -> SecretBag {
///         let mut bag = SecretBag::new();
///         bag.insert("counter", self.0.to_be_bytes().to_vec());
///         bag
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::new(&mut SecureRng::from_seed(1));
/// let enclave = platform.load_enclave::<Counter>("counter-v1");
/// let quote = enclave.quote(vec![]);
/// let token = platform.attestation().verify(&quote, Measurement::of_code("counter-v1"))?;
/// enclave.provision(token, Counter(0))?;
/// enclave.call(|c| c.0 += 1)?;
/// assert_eq!(enclave.call(|c| c.0)?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Platform {
    shared: Arc<PlatformShared>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("enclaves", &self.shared.registry.lock().len())
            .finish()
    }
}

impl Platform {
    /// Creates a platform with a fresh quoting key and root sealing key.
    pub fn new(rng: &mut SecureRng) -> Self {
        Platform {
            shared: Arc::new(PlatformShared {
                attestation: AttestationService::new(rng),
                sealing: SealingKey::generate(rng),
                registry: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                breaches: AtomicU64::new(0),
                recoveries: AtomicU64::new(0),
                crashes: AtomicU64::new(0),
            }),
        }
    }

    /// The platform's attestation service (shared with verifying clients).
    pub fn attestation(&self) -> &AttestationService {
        &self.shared.attestation
    }

    /// The platform's root sealing key (the CPU-fused key on real SGX).
    ///
    /// Deterministic per platform seed, so a re-provisioned process that
    /// rebuilds the platform from the same seed — the simulated analog of
    /// restarting on the same physical machine — can unseal state written
    /// before a crash without any trusted third party.
    pub fn sealing(&self) -> &SealingKey {
        &self.shared.sealing
    }

    /// Loads enclave code, returning an unprovisioned enclave.
    pub fn load_enclave<T: EnclaveApp>(&self, code_identity: &str) -> Arc<Enclave<T>> {
        let id = EnclaveId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let enclave = Arc::new(Enclave {
            id,
            measurement: Measurement::of_code(code_identity),
            inner: Mutex::new(EnclaveInner { state: None }),
            compromised: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            ecalls: AtomicU64::new(0),
            platform: Arc::downgrade(&self.shared),
        });
        self.shared.registry.lock().push(enclave.clone());
        enclave
    }

    /// Adversary action: side-channel attack stealing an enclave's secrets.
    ///
    /// # Errors
    ///
    /// Fails with [`CompromiseError::AnotherLayerCompromised`] when a
    /// different measurement group is already broken — the §2.3 assumption
    /// that breaking multiple layers synchronously is infeasible before
    /// breach detection reacts.
    pub fn break_enclave(&self, id: EnclaveId) -> Result<SecretBag, CompromiseError> {
        let registry = self.shared.registry.lock();
        let target = registry
            .iter()
            .find(|e| e.id() == id)
            .ok_or(CompromiseError::UnknownEnclave)?;
        if let Some(active) = registry
            .iter()
            .find(|e| e.compromised() && e.measurement() != target.measurement())
        {
            return Err(CompromiseError::AnotherLayerCompromised {
                active: active.measurement(),
            });
        }
        let bag = target.leak().map_err(|_| CompromiseError::NotProvisioned)?;
        target.mark_compromised(true);
        self.shared.breaches.fetch_add(1, Ordering::Relaxed);
        Ok(bag)
    }

    /// Breach detection + response (Déjà Vu / Varys / Cloak analog, §2.3):
    /// clears all compromise flags, modelling a restart with fresh secrets.
    ///
    /// Returns how many enclaves were recovered.
    pub fn detect_and_recover(&self) -> usize {
        let registry = self.shared.registry.lock();
        let mut n = 0;
        for e in registry.iter() {
            if e.compromised() {
                e.mark_compromised(false);
                n += 1;
            }
        }
        if n > 0 {
            self.shared.recoveries.fetch_add(1, Ordering::Relaxed);
        }
        n
    }

    /// The enclaves of one measurement group — one proxy layer — that
    /// have not crashed, oldest first: the layer's instances as an
    /// adversary finds them on the platform.
    pub fn enclaves(&self, measurement: Measurement) -> Vec<EnclaveId> {
        self.shared
            .registry
            .lock()
            .iter()
            .filter(|e| e.measurement() == measurement && !e.has_crashed())
            .map(|e| e.id())
            .collect()
    }

    /// Measurement of the currently compromised layer, if any.
    pub fn compromised_layer(&self) -> Option<Measurement> {
        self.shared
            .registry
            .lock()
            .iter()
            .find(|e| e.compromised())
            .map(|e| e.measurement())
    }

    /// Fault injection: crashes one enclave. Its state is dropped and
    /// every subsequent ECALL fails with [`EnclaveError::Crashed`] — the
    /// supervisor's job is to load and re-provision a replacement.
    ///
    /// # Errors
    ///
    /// [`CompromiseError::UnknownEnclave`] when `id` does not exist.
    pub fn crash_enclave(&self, id: EnclaveId) -> Result<(), CompromiseError> {
        let registry = self.shared.registry.lock();
        let target = registry
            .iter()
            .find(|e| e.id() == id)
            .ok_or(CompromiseError::UnknownEnclave)?;
        if !target.has_crashed() {
            target.crash();
            self.shared.crashes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Fault injection: crashes every live enclave of a measurement group
    /// (e.g. the whole IA layer). Returns how many enclaves were killed.
    pub fn crash_layer(&self, measurement: Measurement) -> usize {
        let registry = self.shared.registry.lock();
        let mut n = 0;
        for e in registry.iter() {
            if e.measurement() == measurement && !e.has_crashed() {
                e.crash();
                n += 1;
            }
        }
        self.shared.crashes.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Total number of injected enclave crashes so far.
    pub fn crash_count(&self) -> u64 {
        self.shared.crashes.load(Ordering::Relaxed)
    }

    /// Total number of successful breaches so far.
    pub fn breach_count(&self) -> u64 {
        self.shared.breaches.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct App {
        secret: Vec<u8>,
    }

    impl EnclaveApp for App {
        fn leak_secrets(&self) -> SecretBag {
            let mut bag = SecretBag::new();
            bag.insert("secret", self.secret.clone());
            bag
        }
    }

    fn setup() -> (Platform, Arc<Enclave<App>>) {
        let platform = Platform::new(&mut SecureRng::from_seed(1));
        let enclave = platform.load_enclave::<App>("app-v1");
        (platform, enclave)
    }

    fn provision(platform: &Platform, enclave: &Enclave<App>, secret: &[u8]) {
        let quote = enclave.quote(vec![]);
        let token = platform
            .attestation()
            .verify(&quote, Measurement::of_code("app-v1"))
            .unwrap();
        enclave
            .provision(
                token,
                App {
                    secret: secret.to_vec(),
                },
            )
            .unwrap();
    }

    #[test]
    fn call_before_provision_fails() {
        let (_p, e) = setup();
        assert_eq!(e.call(|_| ()), Err(EnclaveError::NotProvisioned));
    }

    #[test]
    fn lifecycle_load_attest_provision_call() {
        let (p, e) = setup();
        provision(&p, &e, b"k");
        assert_eq!(e.call(|a| a.secret.len()).unwrap(), 1);
        assert_eq!(e.ecall_count(), 1);
    }

    #[test]
    fn double_provision_rejected() {
        let (p, e) = setup();
        provision(&p, &e, b"k");
        let quote = e.quote(vec![]);
        let token = p
            .attestation()
            .verify(&quote, Measurement::of_code("app-v1"))
            .unwrap();
        assert_eq!(
            e.provision(token, App { secret: vec![] }),
            Err(EnclaveError::AlreadyProvisioned)
        );
    }

    #[test]
    fn token_for_other_enclave_rejected() {
        let p = Platform::new(&mut SecureRng::from_seed(2));
        let e1 = p.load_enclave::<App>("app-v1");
        let e2 = p.load_enclave::<App>("app-v1");
        let quote1 = e1.quote(vec![]);
        let token1 = p
            .attestation()
            .verify(&quote1, Measurement::of_code("app-v1"))
            .unwrap();
        assert_eq!(
            e2.provision(token1, App { secret: vec![] }),
            Err(EnclaveError::TokenMismatch)
        );
    }

    #[test]
    fn break_yields_secrets() {
        let (p, e) = setup();
        provision(&p, &e, b"top-secret");
        let bag = p.break_enclave(e.id()).unwrap();
        assert_eq!(bag.get("secret"), Some(b"top-secret".as_slice()));
        assert!(e.is_compromised());
        assert_eq!(p.breach_count(), 1);
    }

    #[test]
    fn second_layer_break_blocked_until_recovery() {
        let p = Platform::new(&mut SecureRng::from_seed(3));
        let ua = p.load_enclave::<App>("ua");
        let ia = p.load_enclave::<App>("ia");
        for (e, code) in [(&ua, "ua"), (&ia, "ia")] {
            let quote = e.quote(vec![]);
            let token = p
                .attestation()
                .verify(&quote, Measurement::of_code(code))
                .unwrap();
            e.provision(
                token,
                App {
                    secret: b"s".to_vec(),
                },
            )
            .unwrap();
        }
        p.break_enclave(ua.id()).unwrap();
        // Breaking the *other layer* while UA is compromised is forbidden.
        assert!(matches!(
            p.break_enclave(ia.id()),
            Err(CompromiseError::AnotherLayerCompromised { .. })
        ));
        // Same layer (same measurement) is fine: one layer at a time.
        let ua2 = p.load_enclave::<App>("ua");
        let quote = ua2.quote(vec![]);
        let token = p
            .attestation()
            .verify(&quote, Measurement::of_code("ua"))
            .unwrap();
        ua2.provision(
            token,
            App {
                secret: b"s2".to_vec(),
            },
        )
        .unwrap();
        assert!(p.break_enclave(ua2.id()).is_ok());
        // After detection/recovery the IA layer becomes breakable.
        assert_eq!(p.detect_and_recover(), 2);
        assert!(p.break_enclave(ia.id()).is_ok());
    }

    #[test]
    fn break_unprovisioned_fails() {
        let (p, e) = setup();
        assert_eq!(
            p.break_enclave(e.id()),
            Err(CompromiseError::NotProvisioned)
        );
    }

    #[test]
    fn break_unknown_fails() {
        let (p, _e) = setup();
        assert_eq!(
            p.break_enclave(EnclaveId(999)),
            Err(CompromiseError::UnknownEnclave)
        );
    }

    #[test]
    fn secret_bag_api() {
        let mut bag = SecretBag::new();
        assert!(bag.is_empty());
        bag.insert("a", vec![1]);
        bag.insert("b", vec![2]);
        assert_eq!(bag.len(), 2);
        assert_eq!(bag.names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(bag.get("a"), Some([1u8].as_slice()));
        assert_eq!(bag.get("z"), None);
    }

    #[test]
    fn crash_kills_enclave_and_drops_state() {
        let (p, e) = setup();
        provision(&p, &e, b"k");
        assert_eq!(e.call(|a| a.secret.len()).unwrap(), 1);
        p.crash_enclave(e.id()).unwrap();
        assert!(e.is_crashed());
        assert_eq!(e.call(|_| ()), Err(EnclaveError::Crashed));
        // Secrets are gone with the process: nothing to leak.
        assert_eq!(
            p.break_enclave(e.id()),
            Err(CompromiseError::NotProvisioned)
        );
        assert_eq!(p.crash_count(), 1);
        // Crashing again is idempotent.
        p.crash_enclave(e.id()).unwrap();
        assert_eq!(p.crash_count(), 1);
    }

    #[test]
    fn crash_layer_kills_measurement_group_only() {
        let p = Platform::new(&mut SecureRng::from_seed(9));
        let ua1 = p.load_enclave::<App>("ua");
        let ua2 = p.load_enclave::<App>("ua");
        let ia = p.load_enclave::<App>("ia");
        for (e, code) in [(&ua1, "ua"), (&ua2, "ua"), (&ia, "ia")] {
            let quote = e.quote(vec![]);
            let token = p
                .attestation()
                .verify(&quote, Measurement::of_code(code))
                .unwrap();
            e.provision(
                token,
                App {
                    secret: b"s".to_vec(),
                },
            )
            .unwrap();
        }
        let ua = Measurement::of_code("ua");
        assert_eq!(p.enclaves(ua), vec![ua1.id(), ua2.id()]);
        assert_eq!(p.crash_layer(ua), 2);
        assert!(ua1.is_crashed() && ua2.is_crashed());
        assert!(p.enclaves(ua).is_empty());
        assert_eq!(p.enclaves(Measurement::of_code("ia")), vec![ia.id()]);
        assert!(!ia.is_crashed());
        assert!(ia.call(|_| ()).is_ok());
        // A second sweep finds nothing left to kill.
        assert_eq!(p.crash_layer(Measurement::of_code("ua")), 0);
    }

    #[test]
    fn crash_unknown_enclave_fails() {
        let (p, _e) = setup();
        assert_eq!(
            p.crash_enclave(EnclaveId(424242)),
            Err(CompromiseError::UnknownEnclave)
        );
    }

    #[test]
    fn replacement_after_crash_works() {
        let (p, e) = setup();
        provision(&p, &e, b"k1");
        p.crash_enclave(e.id()).unwrap();
        // Supervisor path: load a fresh enclave of the same code identity
        // and provision it; service resumes.
        let fresh = p.load_enclave::<App>("app-v1");
        provision(&p, &fresh, b"k2");
        assert_eq!(fresh.call(|a| a.secret.to_vec()).unwrap(), b"k2");
    }

    #[test]
    fn platform_sealing_key_is_seed_deterministic() {
        let a = Platform::new(&mut SecureRng::from_seed(42));
        let b = Platform::new(&mut SecureRng::from_seed(42));
        let m = Measurement::of_code("app-v1");
        let blob = a
            .sealing()
            .seal_labeled(m, b"t", b"state", &mut SecureRng::from_seed(1));
        assert_eq!(
            b.sealing().unseal_labeled(m, b"t", &blob).unwrap(),
            b"state"
        );
        let c = Platform::new(&mut SecureRng::from_seed(43));
        assert!(c.sealing().unseal_labeled(m, b"t", &blob).is_err());
    }

    #[test]
    fn compromised_layer_reported() {
        let (p, e) = setup();
        provision(&p, &e, b"k");
        assert!(p.compromised_layer().is_none());
        p.break_enclave(e.id()).unwrap();
        assert_eq!(p.compromised_layer(), Some(Measurement::of_code("app-v1")));
    }
}
