//! The LRS frontend: REST requests and responses carried in wire frames.
//!
//! The paper's LRS is an unmodified HTTP service; this reproduction's
//! [`RestHandler`](pprox_lrs::RestHandler) abstraction stands in for it. On the wire, each HTTP
//! exchange rides inside one request/response frame pair as a compact
//! JSON wrapper — `{"m": method, "p": path, "b": body}` out,
//! `{"s": status, "b": body}` back. The frame layer pads both to their
//! class size, so LRS traffic is as length-uniform as proxy traffic.

use crate::server::FrameHandler;
use crate::WireStatus;
use pprox_core::resilience::Deadline;
use pprox_json::Value;
use pprox_lrs::api::Method;
use pprox_lrs::{HttpRequest, HttpResponse};
use std::sync::Arc;

/// Serializes an [`HttpRequest`] into a request-frame payload.
pub fn encode_request(req: &HttpRequest) -> Vec<u8> {
    let method = match req.method {
        Method::Get => "GET",
        Method::Post => "POST",
    };
    Value::object([
        ("m", Value::from(method)),
        ("p", Value::from(req.path.as_str())),
        ("b", Value::from(req.body.as_str())),
    ])
    .to_json()
    .into_bytes()
}

/// Parses a request-frame payload back into an [`HttpRequest`].
pub fn decode_request(payload: &[u8]) -> Option<HttpRequest> {
    let text = std::str::from_utf8(payload).ok()?;
    let v = Value::parse(text).ok()?;
    let method = match v.get("m")?.as_str()? {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => return None,
    };
    let path = v.get("p")?.as_str()?.to_owned();
    let body = v.get("b")?.as_str()?.to_owned();
    Some(HttpRequest { method, path, body })
}

/// Serializes an [`HttpResponse`] into a response-frame payload.
pub fn encode_response(resp: &HttpResponse) -> Vec<u8> {
    Value::object([
        ("s", Value::from(resp.status as f64)),
        ("b", Value::from(resp.body.as_str())),
    ])
    .to_json()
    .into_bytes()
}

/// Parses a response-frame payload back into an [`HttpResponse`].
///
/// The LRS is untrusted: a status that is not an integer HTTP code in
/// `100..=599` is a malformed answer, not something to round or clamp
/// into a success.
pub fn decode_response(payload: &[u8]) -> Option<HttpResponse> {
    let text = std::str::from_utf8(payload).ok()?;
    let v = Value::parse(text).ok()?;
    let status = v.get("s")?.as_u64().filter(|s| (100..=599).contains(s))? as u16;
    let body = v.get("b")?.as_str()?.to_owned();
    Some(HttpResponse { status, body })
}

/// Frame handler exposing a [`pprox_lrs::RestHandler`] on the wire.
pub struct LrsWireService {
    handler: Arc<dyn pprox_lrs::RestHandler>,
}

impl LrsWireService {
    /// Wraps `handler` for serving.
    pub fn new(handler: Arc<dyn pprox_lrs::RestHandler>) -> Self {
        LrsWireService { handler }
    }
}

impl FrameHandler for LrsWireService {
    fn handle(&self, payload: Vec<u8>, _deadline: Deadline) -> Result<Vec<u8>, WireStatus> {
        let Some(request) = decode_request(&payload) else {
            return Err(WireStatus::Malformed);
        };
        let response = self.handler.handle(&request);
        Ok(encode_response(&response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_wrapper_roundtrip() {
        let req = HttpRequest::post("/events", "{\"u\":\"abc\"}");
        let decoded = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(decoded.method, Method::Post);
        assert_eq!(decoded.path, "/events");
        assert_eq!(decoded.body, "{\"u\":\"abc\"}");

        let resp = HttpResponse::ok("{\"items\":[]}");
        let back = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.body, "{\"items\":[]}");
        assert!(back.is_success());
    }

    #[test]
    fn malformed_wrappers_are_rejected() {
        assert!(decode_request(b"not json").is_none());
        assert!(decode_request(b"{\"m\":\"PUT\",\"p\":\"/x\",\"b\":\"\"}").is_none());
        assert!(decode_response(&[0xff, 0xfe]).is_none());
        // Hostile statuses: fractional, negative, out of range.
        assert!(decode_response(br#"{"s":200.7,"b":""}"#).is_none());
        assert!(decode_response(br#"{"s":-1,"b":""}"#).is_none());
        assert!(decode_response(br#"{"s":1e9,"b":""}"#).is_none());
        assert!(decode_response(br#"{"s":599,"b":""}"#).is_some());
    }
}
