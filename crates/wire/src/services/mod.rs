//! The PProx layers as wire-frame handlers.
//!
//! One file per layer, on purpose: the `pprox-analysis` layer-separation
//! rules are lexical per file, so the split makes the §3.2 visibility
//! boundary statically checkable on the transport too — [`ua`] never
//! names an item-side API, [`ia`] never names a user-side API, and
//! [`lrs`] speaks only the REST vocabulary. `serial` is how the two
//! proxy layers take turns at their enclaves without a thread ever
//! waiting for one.

pub mod ia;
pub mod lrs;
mod serial;
pub mod ua;

pub use ia::IaWireService;
pub use lrs::LrsWireService;
pub use ua::{UaServiceOptions, UaWireService};

use crate::WireStatus;

/// What the client is told about a request a layer's ECALL refused.
fn status_of_core(e: pprox_core::PProxError) -> WireStatus {
    match e {
        pprox_core::PProxError::Deadline => WireStatus::Deadline,
        pprox_core::PProxError::Overloaded => WireStatus::Busy,
        pprox_core::PProxError::MalformedMessage => WireStatus::Malformed,
        pprox_core::PProxError::Unavailable => WireStatus::Unavailable,
        _ => WireStatus::Failed,
    }
}
