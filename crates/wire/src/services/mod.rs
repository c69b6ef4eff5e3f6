//! The PProx layers as wire-frame handlers.
//!
//! One file per layer, on purpose: the `pprox-analysis` layer-separation
//! rules are lexical per file, so the split makes the §3.2 visibility
//! boundary statically checkable on the transport too — [`ua`] never
//! names an item-side API, [`ia`] never names a user-side API, and
//! [`lrs`] speaks only the REST vocabulary. `serial` is how the two
//! proxy layers take turns at their enclaves without a thread ever
//! waiting for one.
//!
//! Every ECALL of both proxy layers goes through `timed_ecall`, which
//! takes the layer's stage sample on the host side of the enclave
//! boundary: a real enclave has no clock of its own, and the layer
//! states hold no metric. A stage's count is the number of ECALLs that
//! ran, refused ones included.

pub mod ia;
pub mod lrs;
mod serial;
pub mod ua;

pub use ia::IaWireService;
pub use lrs::LrsWireService;
pub use ua::{UaServiceOptions, UaWireService};

use crate::WireStatus;
use pprox_core::telemetry::{Stage, Telemetry};
use pprox_core::PProxError;
use pprox_sgx::{Enclave, EnclaveApp};
use std::time::Instant;

/// What the client is told about a request a layer's ECALL refused.
fn status_of_core(e: PProxError) -> WireStatus {
    match e {
        PProxError::Deadline => WireStatus::Deadline,
        PProxError::Overloaded => WireStatus::Busy,
        PProxError::MalformedMessage => WireStatus::Malformed,
        PProxError::Unavailable => WireStatus::Unavailable,
        _ => WireStatus::Failed,
    }
}

/// Runs one ECALL and records its duration into `stage` if it ran,
/// whether the layer answered or refused. No ECALL runs in a crashed or
/// unprovisioned enclave: that is `unavailable`, and no sample.
fn timed_ecall<T: EnclaveApp, R>(
    enclave: &Enclave<T>,
    telemetry: &Telemetry,
    stage: Stage,
    f: impl FnOnce(&mut T) -> Result<R, PProxError>,
) -> Result<R, WireStatus> {
    let started = Instant::now();
    let outcome = enclave.call(f).map_err(|_| WireStatus::Unavailable)?;
    telemetry.record_duration(stage, started.elapsed().as_micros() as u64);
    outcome.map_err(status_of_core)
}
