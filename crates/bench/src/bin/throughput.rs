//! Crypto hot-path throughput baseline: `results/BENCH_throughput.json`.
//!
//! Measures the three stages the Montgomery/keystream work targets and
//! records, next to each optimized number, the retained-reference baseline
//! so regressions (and the acceptance bar: rsa_decrypt ≥ 3× the naive
//! `mod_pow` path) are checkable from the JSON alone:
//!
//! * `rsa_decrypt` — full RSA-OAEP decryption (CRT over a cached
//!   Montgomery context per prime, three primes from 1024 bits up) vs.
//!   [`RsaPrivateKey::raw_decrypt_naive`](pprox_crypto::rsa::RsaPrivateKey::raw_decrypt_naive)
//!   (binary square-and-multiply of `c^d mod n` on the whole modulus: no
//!   CRT, no Montgomery form). The baseline does strictly *less* work
//!   than a full naive decrypt (no OAEP decode), so the reported speedup
//!   is a conservative lower bound.
//! * `rsa_decrypt_group` — the same decryption for a group of eight
//!   ciphertexts at once
//!   ([`RsaPrivateKey::decrypt_group`](pprox_crypto::rsa::RsaPrivateKey::decrypt_group), what the IA
//!   runs on a shuffled batch), per decrypt, vs. `decrypt` one at a time
//!   on the same ciphertexts. A group opens its ciphertexts one at a
//!   time on the same ladders as a lone decrypt (there is no group
//!   kernel), so the speedup reads ≈ 1: the stage shows that grouping
//!   costs nothing, and `bench_trend` guards its `ops_per_sec`.
//! * `det_enc` — deterministic CTR over 64-byte item blocks with the
//!   cached key schedule + keystream prefix vs.
//!   [`SymmetricKey::det_encrypt_fresh`] (rebuilds cipher state per call).
//! * `list_enc` — randomized CTR over the padded 1 600-byte
//!   recommendation list (what the IA does to every get response and the
//!   client undoes), as this CPU dispatches it — the AES instructions
//!   where it reports `aes` — vs. [`SymmetricKey::ctr_apply_portable`]
//!   (the scalar rounds, same IV draw and copy around them). On a CPU
//!   without `aes` both sides are the portable rounds and the speedup
//!   reads ≈ 1.
//!
//! End-to-end figures (and the per-layer budget that localizes a
//! regression) are the repo's benchmark's, `benchmark/`, which drives
//! the serving chain open-loop; schema v3 dropped this report's
//! closed-loop `e2e` stage and its `pipeline_stages`; v4 added
//! `list_enc`, v5 `rsa_decrypt_group`.
//!
//! Usage:
//!
//! ```text
//! throughput [--rsa-ops N] [--det-ops N] [--modulus-bits B] [--out PATH]
//!            (--det-ops is the iteration count of both symmetric stages)
//! throughput --validate PATH   # schema-check an emitted JSON file
//! ```

use pprox_bench::report::{self, round3};
use pprox_crypto::ctr::{SymmetricKey, IV_LEN};
use pprox_crypto::rng::SecureRng;
use pprox_crypto::rsa::RsaKeyPair;
use pprox_json::schema::{above, integers, numbers, Schema};
use pprox_json::Value;
use pprox_workload::stats::percentile;
use std::time::Instant;

/// Item payload width on the wire (mirrors `pprox_core::message`).
const ITEM_BLOCK_LEN: usize = 64;

/// Padded recommendation-list width (mirrors
/// `pprox_core::message::LIST_PLAINTEXT_LEN`).
const LIST_PLAINTEXT_LEN: usize = 1600;

/// Report schema version: v3 dropped `e2e` and `pipeline_stages` (the
/// closed loop through the deleted in-process pipeline); v4 added the
/// `list_enc` stage, v5 the `rsa_decrypt_group` stage.
const THROUGHPUT_SCHEMA_VERSION: u64 = 5;

/// Ciphertexts per group in `rsa_decrypt_group`: one full shuffle batch
/// (`S = 8`).
const GROUP: usize = 8;

#[derive(Debug)]
struct Args {
    rsa_ops: usize,
    det_ops: usize,
    modulus_bits: usize,
    out: String,
    validate: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            rsa_ops: 64,
            det_ops: 20_000,
            modulus_bits: 2048,
            out: "results/BENCH_throughput.json".to_string(),
            validate: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--rsa-ops" => args.rsa_ops = value("--rsa-ops").parse().unwrap(),
                "--det-ops" => args.det_ops = value("--det-ops").parse().unwrap(),
                "--modulus-bits" => args.modulus_bits = value("--modulus-bits").parse().unwrap(),
                "--out" => args.out = value("--out"),
                "--validate" => args.validate = Some(value("--validate")),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}

/// One measured stage: optimized-path latencies plus an optional
/// reference-path ops/s for the speedup column.
struct Stage {
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    baseline: Option<(&'static str, f64)>,
}

impl Stage {
    /// Builds a stage from per-op latencies (µs) and total wall time (s).
    fn from_samples(mut samples_us: Vec<f64>, wall_secs: f64) -> Stage {
        assert!(!samples_us.is_empty());
        samples_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Stage {
            ops_per_sec: samples_us.len() as f64 / wall_secs,
            p50_us: percentile(&samples_us, 50.0),
            p99_us: percentile(&samples_us, 99.0),
            baseline: None,
        }
    }

    fn to_value(&self) -> Value {
        let mut v = Value::object([
            ("ops_per_sec", Value::from(round3(self.ops_per_sec))),
            ("p50_us", Value::from(round3(self.p50_us))),
            ("p99_us", Value::from(round3(self.p99_us))),
        ]);
        if let Some((name, baseline_ops)) = self.baseline {
            v.insert(name, Value::from(round3(baseline_ops)));
            v.insert(
                "speedup_vs_baseline",
                Value::from(round3(self.ops_per_sec / baseline_ops)),
            );
        }
        v
    }
}

/// Times `op` once per iteration, returning per-op µs and total seconds.
fn time_ops(n: usize, mut op: impl FnMut(usize)) -> (Vec<f64>, f64) {
    let mut samples = Vec::with_capacity(n);
    let wall = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        op(i);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (samples, wall.elapsed().as_secs_f64())
}

fn bench_rsa_decrypt(ops: usize, modulus_bits: usize, rng: &mut SecureRng) -> Stage {
    let pair = RsaKeyPair::generate(modulus_bits, rng);
    let ciphertexts: Vec<Vec<u8>> = (0..ops)
        .map(|i| {
            let msg = format!("item-{i:05}");
            pair.public.encrypt(msg.as_bytes(), rng).unwrap()
        })
        .collect();
    let raw: Vec<_> = ciphertexts
        .iter()
        .map(|c| pprox_crypto::bigint::BigUint::from_bytes_be(c))
        .collect();

    // Interleave the optimized and reference paths so CPU-frequency
    // drift and scheduler noise hit both alike; the naive path is slow
    // enough that it runs on a quarter of the iterations.
    let mut samples = Vec::with_capacity(ops);
    let mut naive_samples = Vec::with_capacity(ops / 4 + 1);
    let wall = Instant::now();
    for (i, (ct, c)) in ciphertexts.iter().zip(&raw).enumerate() {
        let t = Instant::now();
        std::hint::black_box(pair.private.decrypt(ct).unwrap());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if i % 4 == 0 {
            let t = Instant::now();
            std::hint::black_box(pair.private.raw_decrypt_naive(c));
            naive_samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = wall;
    naive_samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let naive_p50 = percentile(&naive_samples, 50.0);

    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&samples, 50.0);
    Stage {
        // Single-threaded sequential stage: the median latency is the
        // noise-robust throughput estimator (wall-clock would fold the
        // interleaved baseline runs into the optimized number).
        ops_per_sec: 1e6 / p50,
        p50_us: p50,
        p99_us: percentile(&samples, 99.0),
        baseline: Some(("naive_baseline_ops_per_sec", 1e6 / naive_p50)),
    }
}

/// What the IA does with the `k_u` blocks of one shuffled batch:
/// [`RsaPrivateKey::decrypt_group`](pprox_crypto::rsa::RsaPrivateKey::decrypt_group)
/// over [`GROUP`] ciphertexts, timed per group and reported per decrypt,
/// against the same ciphertexts through `decrypt` one at a time.
fn bench_rsa_decrypt_group(ops: usize, modulus_bits: usize, rng: &mut SecureRng) -> Stage {
    let pair = RsaKeyPair::generate(modulus_bits, rng);
    let groups: Vec<Vec<Vec<u8>>> = (0..ops.div_ceil(GROUP))
        .map(|g| {
            (0..GROUP)
                .map(|i| {
                    let msg = format!("item-{g:04}-{i}");
                    pair.public.encrypt(msg.as_bytes(), rng).unwrap()
                })
                .collect()
        })
        .collect();
    // Interleaved as in `rsa_decrypt`; a sample is one decrypt's share.
    let (mut samples, mut single_samples) = (Vec::new(), Vec::new());
    for group in &groups {
        let t = Instant::now();
        let opened = pair.private.decrypt_group(group);
        let per_decrypt = t.elapsed().as_secs_f64() * 1e6 / GROUP as f64;
        assert!(opened.iter().all(Result::is_ok));
        samples.push(per_decrypt);
        let t = Instant::now();
        for ct in group {
            std::hint::black_box(pair.private.decrypt(ct).unwrap());
        }
        single_samples.push(t.elapsed().as_secs_f64() * 1e6 / GROUP as f64);
    }
    single_samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&samples, 50.0);
    Stage {
        ops_per_sec: 1e6 / p50,
        p50_us: p50,
        p99_us: percentile(&samples, 99.0),
        baseline: Some((
            "single_baseline_ops_per_sec",
            1e6 / percentile(&single_samples, 50.0),
        )),
    }
}

fn bench_det_enc(ops: usize, rng: &mut SecureRng) -> Stage {
    let key = SymmetricKey::generate(rng);
    key.warm();
    let block = vec![0x5au8; ITEM_BLOCK_LEN];

    let (samples, wall) = time_ops(ops, |_| {
        std::hint::black_box(key.det_encrypt(&block));
    });
    let mut stage = Stage::from_samples(samples, wall);

    // Reference path: rebuild the AES key schedule on every call.
    let fresh_ops = ops.clamp(1, 2_000);
    let wall = Instant::now();
    for _ in 0..fresh_ops {
        std::hint::black_box(key.det_encrypt_fresh(&block));
    }
    let fresh_ops_per_sec = fresh_ops as f64 / wall.elapsed().as_secs_f64();
    stage.baseline = Some(("fresh_baseline_ops_per_sec", fresh_ops_per_sec));
    stage
}

fn bench_list_enc(ops: usize, rng: &mut SecureRng) -> Stage {
    let key = SymmetricKey::generate(rng);
    let list = vec![0x5au8; LIST_PLAINTEXT_LEN];

    let (samples, wall) = time_ops(ops, |_| {
        std::hint::black_box(key.encrypt(&list, rng));
    });
    let mut stage = Stage::from_samples(samples, wall);

    // Reference path: `encrypt` spelled out over the portable rounds.
    let portable_ops = ops.clamp(1, 2_000);
    let wall = Instant::now();
    for _ in 0..portable_ops {
        let mut iv = [0u8; IV_LEN];
        rng.fill(&mut iv);
        let mut out = Vec::with_capacity(IV_LEN + list.len());
        out.extend_from_slice(&iv);
        out.extend_from_slice(&list);
        key.ctr_apply_portable(iv, &mut out[IV_LEN..]);
        std::hint::black_box(out);
    }
    let portable_ops_per_sec = portable_ops as f64 / wall.elapsed().as_secs_f64();
    stage.baseline = Some(("portable_baseline_ops_per_sec", portable_ops_per_sec));
    stage
}

/// The report's schema, next to its emitter in `main`: every stage
/// carries positive timings and its reference path's numbers.
fn schema() -> Schema {
    let stage = |baseline: &'static str| {
        let timings = numbers("ops_per_sec p50_us p99_us").map(|(k, n)| (k, n.with(above(0.0))));
        let reference = [
            (baseline, Schema::Number),
            ("speedup_vs_baseline", Schema::Number),
        ];
        Schema::object(timings.chain(reference))
    };
    let stages = [
        ("rsa_decrypt", stage("naive_baseline_ops_per_sec")),
        ("rsa_decrypt_group", stage("single_baseline_ops_per_sec")),
        ("det_enc", stage("fresh_baseline_ops_per_sec")),
        ("list_enc", stage("portable_baseline_ops_per_sec")),
    ];
    let config = integers("rsa_ops det_ops modulus_bits");
    Schema::object([
        ("benchmark", Schema::one_of(["throughput"])),
        ("schema_version", Schema::version(THROUGHPUT_SCHEMA_VERSION)),
        ("config", Schema::object(config)),
        ("stages", Schema::object(stages)),
    ])
}

fn main() {
    let args = Args::parse();
    if let Some(path) = &args.validate {
        report::validate_file(path, &schema());
        return;
    }

    let mut rng = SecureRng::from_seed(0x7470_7574); // "tput"

    eprintln!(
        "rsa_decrypt: {} ops at {} bits...",
        args.rsa_ops, args.modulus_bits
    );
    let rsa = bench_rsa_decrypt(args.rsa_ops, args.modulus_bits, &mut rng);
    eprintln!(
        "rsa_decrypt_group: {} ops in groups of {GROUP}...",
        args.rsa_ops
    );
    let rsa_group = bench_rsa_decrypt_group(args.rsa_ops, args.modulus_bits, &mut rng);
    eprintln!("det_enc: {} ops...", args.det_ops);
    let det = bench_det_enc(args.det_ops, &mut rng);
    eprintln!("list_enc: {} ops...", args.det_ops);
    let list = bench_list_enc(args.det_ops, &mut rng);

    let report = Value::object([
        ("benchmark", Value::from("throughput")),
        ("schema_version", Value::from(THROUGHPUT_SCHEMA_VERSION)),
        (
            "config",
            Value::object([
                ("rsa_ops", Value::from(args.rsa_ops as u64)),
                ("det_ops", Value::from(args.det_ops as u64)),
                ("modulus_bits", Value::from(args.modulus_bits as u64)),
            ]),
        ),
        (
            "stages",
            Value::object([
                ("rsa_decrypt", rsa.to_value()),
                ("rsa_decrypt_group", rsa_group.to_value()),
                ("det_enc", det.to_value()),
                ("list_enc", list.to_value()),
            ]),
        ),
    ]);

    let json = report.to_json();
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("{json}");
    eprintln!("wrote {}", args.out);
}

#[test]
fn committed_report_is_exact() {
    let doc = report::committed("BENCH_throughput.json");
    pprox_json::schema::assert_exact(
        &schema(),
        &doc,
        &["", "stages.list_enc", "stages.rsa_decrypt_group"],
    );
}
