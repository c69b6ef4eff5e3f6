//! Lightweight JSON handling, mirroring the paper's in-enclave parser.
//!
//! The PProx implementation section (§5) describes a purpose-built JSON
//! parser running inside the SGX enclave, "able to retrieve and/or update
//! JSON fields in place and with minimal copy overhead". This crate
//! reproduces that component:
//!
//! * [`Value`] / [`parser`] / [`writer`] — a complete RFC 8259 document
//!   model for code that needs full (de)serialization, e.g. the LRS
//!   front-end and the user-side library.
//! * [`patch`] — the in-place fast path used by the proxy layers: find one
//!   top-level field's byte span in the raw request text and splice in a
//!   replacement without touching the rest of the document.
//! * [`schema`] — the one checker for every document the deployment
//!   exports (node scrape, telemetry snapshot, analysis report, bench
//!   reports): exact-key shapes declared once, walked once.
//!
//! # Examples
//!
//! ```
//! use pprox_json::Value;
//!
//! let request = r#"{"user":"enc-base64","item":"enc-base64-2"}"#;
//! // Full parse:
//! let v = Value::parse(request)?;
//! assert!(v.get("user").is_some());
//! // In-place pseudonym splice (what a UA enclave does per request):
//! let patched = pprox_json::patch::replace_field(request, "user", "\"det-enc\"")?;
//! assert!(patched.contains("det-enc"));
//! # Ok::<(), pprox_json::ParseJsonError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod parser;
pub mod patch;
pub mod schema;
pub mod value;
pub mod writer;

pub use value::Value;

/// Error raised when JSON text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset of the first offending character.
    pub offset: usize,
    /// Static description of what went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseJsonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ParseJsonError {
            offset: 7,
            message: "expected ':'",
        };
        assert_eq!(e.to_string(), "expected ':' at byte 7");
    }
}
