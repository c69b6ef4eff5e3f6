//! An IA node opens a shuffled batch one get at a time, in wire order.
//!
//! The UA writes each IA its share of a released batch at once. Eight
//! encrypted gets that reach an IA in one write are read in one pass and
//! taken in one turn at the enclave, each get through its own ECALL.
//! Each get is answered under its own key and records one `Ia` sample
//! (its request-side ECALL) and one `IaResponse` sample. Their LRS calls
//! leave in the order the batch arrived in. A lone get takes the same
//! path: two ECALLs.
//!
//! Each stage counts the ECALLs of its kind that ran, answered or
//! refused: a get whose key block does not open is one ECALL and one
//! `Ia` sample, a request to a crashed enclave neither.

use pprox::core::ia::{IaOptions, IaState};
use pprox::core::keys::{KeyProvisioner, IA_CODE_IDENTITY};
use pprox::core::message::{list_to_plaintext, EncryptedList, LayerEnvelope, Op};
use pprox::core::resilience::ResilienceConfig;
use pprox::core::telemetry::{Stage, Telemetry};
use pprox::crypto::base64;
use pprox::crypto::ctr::SymmetricKey;
use pprox::crypto::rng::SecureRng;
use pprox::lrs::stub::StubLrs;
use pprox::lrs::{HttpResponse, MAX_RECOMMENDATIONS};
use pprox::sgx::Platform;
use pprox::wire::services::lrs::{decode_request, encode_response};
use pprox::wire::services::IaWireService;
use pprox::wire::{
    ClientConfig, Frame, PadClass, ServerConfig, SocketBalancer, WireServer, WireStatus,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn read_frame(stream: &mut TcpStream, class: PadClass) -> Frame {
    let mut bytes = vec![0u8; class.wire_len()];
    stream.read_exact(&mut bytes).unwrap();
    Frame::decode(&bytes).unwrap()
}

/// An LRS peer that reads `queries` requests one at a time, in wire
/// order, answers each with the stub's list, and hands back their bodies
/// in the order they arrived.
fn scripted_lrs(queries: usize) -> (SocketAddr, JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut stream = listener.accept().unwrap().0;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let list = encode_response(&HttpResponse::ok(StubLrs::new().payload()));
        (0..queries)
            .map(|_| {
                let frame = read_frame(&mut stream, PadClass::Request);
                let request = decode_request(&frame.payload).expect("an LRS request");
                let answer = Frame::new(PadClass::Response, frame.corr, list.clone()).unwrap();
                stream.write_all(&answer.encode().unwrap()).unwrap();
                request.body
            })
            .collect()
    });
    (addr, peer)
}

#[test]
fn a_batch_written_at_once_is_opened_one_get_at_a_time_and_answered_in_order() {
    let mut rng = SecureRng::from_seed(0x1a_9e07);
    let platform = Platform::new(&mut rng);
    let provisioner = KeyProvisioner::generate(1152, &mut rng);
    let enclave = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
    provisioner.provision_ia(&platform, &enclave).unwrap();
    let (lrs_addr, lrs) = scripted_lrs(9);
    let telemetry = Arc::new(Telemetry::new());
    let service = IaWireService::new(
        enclave.clone(),
        Arc::new(SocketBalancer::new(&[lrs_addr], ClientConfig::default())),
        None,
        // The stub's item ids are not pseudonyms: the IA passes them on.
        IaOptions {
            encryption: true,
            item_pseudonymization: false,
        },
        ResilienceConfig::default(),
        telemetry.clone(),
    );
    let mut ia = WireServer::spawn(Arc::new(service), ServerConfig::default()).unwrap();
    let mut upstream = TcpStream::connect(ia.local_addr()).unwrap();
    upstream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let pk_ia = provisioner.client_keys().pk_ia;
    let stub_items: Vec<String> = (0..MAX_RECOMMENDATIONS)
        .map(|i| format!("stub-item-{i:04}"))
        .collect();
    let want = list_to_plaintext(&stub_items).unwrap();
    // Gets from `users`, each sealing a fresh `k_u` to the IA, written in
    // one `write`; each answer must open under its own key to the list.
    let mut exchange = |users: &[u8]| {
        let mut keys = HashMap::new();
        let mut bytes = Vec::new();
        for &user in users {
            let k_u = SymmetricKey::generate(&mut rng);
            let envelope = LayerEnvelope {
                op: Op::Get,
                user_pseudonym: vec![user; 32],
                aux: pk_ia.encrypt(k_u.as_bytes(), &mut rng).unwrap(),
            };
            let corr = u64::from(user);
            let frame = Frame::new(PadClass::Request, corr, envelope.to_frame().unwrap()).unwrap();
            bytes.extend(frame.encode().unwrap());
            keys.insert(corr, k_u);
        }
        upstream.write_all(&bytes).unwrap();
        for _ in users {
            let answer = read_frame(&mut upstream, PadClass::Response);
            let k_u = keys.remove(&answer.corr).expect("one answer per get");
            let list = EncryptedList::from_frame(&answer.payload).unwrap();
            assert_eq!(
                k_u.decrypt(&list.0).as_ref(),
                Some(&want),
                "get {}",
                answer.corr
            );
        }
    };

    // Samples per stage: (request side, response side).
    let ia_samples = || {
        let count = |stage| telemetry.stages().histogram(stage).count();
        (count(Stage::Ia), count(Stage::IaResponse))
    };
    let start = enclave.ecall_count();
    let before = start;
    exchange(&[1, 2, 3, 4, 5, 6, 7, 8]);
    // Two ECALLs per get, one each way, and each get records a
    // request-side and a response-side sample.
    assert_eq!(enclave.ecall_count() - before, 16);
    assert_eq!(ia_samples(), (8, 8));

    let before = enclave.ecall_count();
    exchange(&[9]);
    assert_eq!(enclave.ecall_count() - before, 2);
    assert_eq!(ia_samples(), (9, 9));

    // A get whose `k_u` block does not decrypt: refused in its one ECALL,
    // which is timed all the same. A get to a crashed enclave runs none.
    let mut refused = |aux: Vec<u8>, corr: u64| {
        let envelope = LayerEnvelope {
            op: Op::Get,
            user_pseudonym: vec![0xee; 32],
            aux,
        };
        let frame = Frame::new(PadClass::Request, corr, envelope.to_frame().unwrap()).unwrap();
        upstream.write_all(&frame.encode().unwrap()).unwrap();
        let answer = read_frame(&mut upstream, PadClass::Control);
        assert_eq!(answer.corr, corr);
        WireStatus::from_payload(&answer.payload)
    };
    let before = enclave.ecall_count();
    let garbage = vec![0xff; pk_ia.ciphertext_len()];
    assert_eq!(refused(garbage.clone(), 100), Some(WireStatus::Failed));
    assert_eq!(enclave.ecall_count() - before, 1);
    assert_eq!(ia_samples(), (10, 9));
    platform.crash_enclave(enclave.id()).unwrap();
    assert_eq!(refused(garbage, 101), Some(WireStatus::Unavailable));
    assert_eq!(enclave.ecall_count() - before, 1);
    assert_eq!(ia_samples(), (10, 9));
    // One sample per ECALL that ran, over the whole test.
    let (request_side, response_side) = ia_samples();
    assert_eq!(request_side + response_side, enclave.ecall_count() - start);

    // The LRS saw the batch's queries in the order the batch arrived in.
    let queries = lrs.join().unwrap();
    for (query, user) in queries.iter().zip(1u8..) {
        let lrs_user = base64::encode(&[user; 32]);
        assert!(query.contains(&lrs_user), "query {user}: {query}");
    }
    ia.shutdown();
}
