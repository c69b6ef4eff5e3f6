//! A UA node opens the requests queued for its enclave one by one, in
//! arrival order.
//!
//! While one request is inside the UA enclave, those arriving behind it
//! queue for it: each waits as a turn of its own, and the thread in the
//! enclave runs them after its ECALL, oldest first, one ECALL each. Each
//! request records its own `Ua` stage sample, gets its own user's
//! pseudonym and leaves for the IA in the order it arrived in.
//!
//! The `Ua` stage counts the ECALLs that ran, answered or refused: a
//! request whose user block does not open is one ECALL and one sample, a
//! request to a crashed enclave neither.

use pprox::core::client::UserClient;
use pprox::core::keys::{KeyProvisioner, UA_CODE_IDENTITY};
use pprox::core::message::{LayerEnvelope, ID_PLAINTEXT_LEN};
use pprox::core::telemetry::{Stage, Telemetry};
use pprox::core::ua::UaState;
use pprox::crypto::ctr::SymmetricKey;
use pprox::crypto::pad;
use pprox::crypto::rng::SecureRng;
use pprox::sgx::Platform;
use pprox::wire::services::{UaServiceOptions, UaWireService};
use pprox::wire::{
    ClientConfig, Frame, PadClass, ServerConfig, SocketBalancer, WireServer, WireStatus,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn read_frame(stream: &mut TcpStream, class: PadClass) -> Frame {
    let mut bytes = vec![0u8; class.wire_len()];
    stream.read_exact(&mut bytes).unwrap();
    Frame::decode(&bytes).unwrap()
}

/// Polls `done` to a deadline instead of sleeping and hoping.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let end = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < end, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// An IA peer that reads `requests` layer envelopes one at a time, in
/// wire order, answers each with its pseudonym, and hands the pseudonyms
/// back in the order they arrived.
fn scripted_ia(requests: usize) -> (SocketAddr, JoinHandle<Vec<Vec<u8>>>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut stream = listener.accept().unwrap().0;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (0..requests)
            .map(|_| {
                let frame = read_frame(&mut stream, PadClass::Request);
                let layer = LayerEnvelope::from_frame(&frame.payload).expect("a layer envelope");
                let answer =
                    Frame::new(PadClass::Response, frame.corr, layer.user_pseudonym.clone())
                        .unwrap();
                stream.write_all(&answer.encode().unwrap()).unwrap();
                layer.user_pseudonym
            })
            .collect()
    });
    (addr, peer)
}

#[test]
fn queued_requests_are_opened_one_by_one_in_order_once_each() {
    let mut rng = SecureRng::from_seed(0x0a_9e07);
    let platform = Platform::new(&mut rng);
    let provisioner = KeyProvisioner::generate(1152, &mut rng);
    let enclave = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
    provisioner.provision_ua(&platform, &enclave).unwrap();
    let start = enclave.ecall_count();
    let (ia_addr, ia) = scripted_ia(18);
    let telemetry = Arc::new(Telemetry::new());
    // Shuffle off: each request leaves for the IA as its turn passes it on.
    let service = Arc::new(UaWireService::new(
        enclave.clone(),
        Arc::new(SocketBalancer::new(&[ia_addr], ClientConfig::default())),
        UaServiceOptions::default(),
        telemetry.clone(),
        7,
    ));
    let mut ua = WireServer::spawn(service.clone(), ServerConfig::default()).unwrap();
    let mut downstream = TcpStream::connect(ua.local_addr()).unwrap();
    downstream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut client = UserClient::new(provisioner.client_keys(), 11);
    let user = |i: u64| format!("user-{i:02}");
    // Client gets, correlation id = user number, to be written in one
    // `write`.
    let mut gets = |users: std::ops::Range<u64>| {
        let mut bytes = Vec::new();
        for i in users {
            let (envelope, _ticket) = client.get(&user(i)).unwrap();
            let frame = Frame::new(PadClass::Request, i, envelope.to_frame().unwrap()).unwrap();
            bytes.extend(frame.encode().unwrap());
        }
        bytes
    };

    // Hold the enclave from here, as a long ECALL would.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let enclave = enclave.clone();
        std::thread::spawn(move || {
            enclave
                .call(|_| {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
                .unwrap();
        })
    };
    held_rx.recv().unwrap();
    let before = enclave.ecall_count();
    // The first request takes the turn and waits at the enclave with it;
    // the next sixteen, written at once, queue behind it.
    downstream.write_all(&gets(0..1)).unwrap();
    wait_until("the first turn is at the enclave", || {
        enclave.ecall_count() == before + 1 && service.waiting() == 0
    });
    downstream.write_all(&gets(1..17)).unwrap();
    wait_until("sixteen requests queue", || service.waiting() == 16);
    release_tx.send(()).unwrap();
    holder.join().unwrap();

    // Each answer carries the pseudonym the IA saw for its own request.
    let mut seen = std::collections::BTreeMap::new();
    for _ in 0..17 {
        let answer = read_frame(&mut downstream, PadClass::Response);
        assert!(seen.insert(answer.corr, answer.payload).is_none());
    }
    // One ECALL per request: the first, then the sixteen that queued.
    assert_eq!(enclave.ecall_count() - before, 17);
    let ua_samples = || telemetry.stages().histogram(Stage::Ua).count();
    assert_eq!(ua_samples(), 17);
    assert_eq!(service.waiting(), 0);

    // A lone request: one ECALL.
    let before = enclave.ecall_count();
    downstream.write_all(&gets(17..18)).unwrap();
    let answer = read_frame(&mut downstream, PadClass::Response);
    seen.insert(answer.corr, answer.payload);
    assert_eq!(enclave.ecall_count() - before, 1);
    assert_eq!(ua_samples(), 18);

    // The IA saw the requests in arrival order, each under det_enc(u, kUA)
    // of its own user — with kUA read out of the enclave as an adversary
    // who broke it would (its `process` is not the reference here).
    let pseudonyms = ia.join().unwrap();
    let k_ua = platform.break_enclave(enclave.id()).unwrap();
    let k_ua = SymmetricKey::from_bytes(k_ua.get("ua.k").unwrap().try_into().unwrap());
    let want: Vec<Vec<u8>> = (0..18)
        .map(|i| k_ua.det_encrypt(&pad::pad(user(i).as_bytes(), ID_PLAINTEXT_LEN).unwrap()))
        .collect();
    assert_eq!(pseudonyms, want);
    assert_eq!(seen.into_values().collect::<Vec<_>>(), want);

    // A request whose user block does not decrypt: refused in its one
    // ECALL, which is timed all the same. A request to a crashed enclave
    // runs none.
    let mut refused = |corr: u64| {
        let (mut envelope, _ticket) = client.get(&user(corr)).unwrap();
        envelope.user = vec![0xff; envelope.user.len()];
        let frame = Frame::new(PadClass::Request, corr, envelope.to_frame().unwrap()).unwrap();
        downstream.write_all(&frame.encode().unwrap()).unwrap();
        let answer = read_frame(&mut downstream, PadClass::Control);
        assert_eq!(answer.corr, corr);
        WireStatus::from_payload(&answer.payload)
    };
    let before = enclave.ecall_count();
    assert_eq!(refused(100), Some(WireStatus::Failed));
    assert_eq!(enclave.ecall_count() - before, 1);
    assert_eq!(ua_samples(), 19);
    platform.crash_enclave(enclave.id()).unwrap();
    assert_eq!(refused(101), Some(WireStatus::Unavailable));
    assert_eq!(enclave.ecall_count() - before, 1);
    assert_eq!(ua_samples(), 19);
    // One sample per ECALL the service ran, over the whole test: every
    // ECALL but the one this test held the enclave with.
    assert_eq!(ua_samples(), enclave.ecall_count() - start - 1);
    ua.shutdown();
}
