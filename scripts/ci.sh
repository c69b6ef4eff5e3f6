#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== unsafe audit (two call sites, every other crate forbids it) =="
# Comments and string literals do not count. What is left must be the two
# calls into `#[target_feature]` kernels — `pow_all` (the IFMA ladders,
# pair or eight lanes by the group's size) from the RSA dispatch in
# rsa.rs, `ctr_xor_aesni` from the keystream dispatch in ctr.rs — each
# with the CPU detection that is its `// SAFETY:` argument right above it.
UNSAFE_SITES="$(grep -rnw unsafe crates/*/src src shims --include='*.rs' \
    | sed -E 's/"([^"\\]|\\.)*"//g; s://.*$::' | grep -w unsafe || true)"
mapfile -t SITES < <(sort <<<"$UNSAFE_SITES")
if [[ ${#SITES[@]} != 2 || "${SITES[0]}" != crates/crypto/src/ctr.rs:*ctr_xor_aesni* \
    || "${SITES[1]}" != crates/crypto/src/rsa.rs:*pow_all* ]]; then
    echo "unsafe audit: expected exactly the pow_all call in rsa.rs and the ctr_xor_aesni call in ctr.rs, found:" >&2
    echo "${UNSAFE_SITES:-<none>}" >&2
    exit 1
fi
while IFS=: read -r file line _; do
    # The `unsafe` line, the `#[allow]` above it, at most three comment
    # lines of SAFETY argument, then the detection.
    sed -n "$((line - 5)),$((line - 1))p" "$file" | grep -q 'is_x86_feature_detected!' || {
        echo "unsafe audit: $file:$line is not directly under its is_x86_feature_detected! check" >&2
        exit 1
    }
done <<<"$UNSAFE_SITES"
ALLOW_SITES="$(grep -rn 'allow(unsafe_code)' crates src shims --include='*.rs' \
    | sed 's://.*$::' | grep 'allow(unsafe_code)' | cut -d: -f1 | sort | tr '\n' ' ')"
[[ "$ALLOW_SITES" == "crates/crypto/src/ctr.rs crates/crypto/src/rsa.rs " ]] || {
    echo "unsafe audit: allow(unsafe_code) outside the two call sites: $ALLOW_SITES" >&2
    exit 1
}
for root in crates/*/src/lib.rs src/lib.rs shims/*/src/lib.rs; do
    want='#![forbid(unsafe_code)]'
    [[ "$root" == crates/crypto/src/lib.rs ]] && want='#![deny(unsafe_code)]'
    grep -qF "$want" "$root" || {
        echo "unsafe audit: $root does not say $want" >&2
        exit 1
    }
done

echo "== cargo test =="
cargo test -q --workspace

echo "== examples (not run by cargo test; each must exit 0) =="
for example in quickstart news_portal movie_recommendations; do
    cargo run --release -q --example "$example" >/dev/null
done

# One scratch root for every stage that writes a report, removed on exit.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# report_smoke <bin> <file> <args…>: run the report bin with <args…> into
# a scratch copy of results/<file>, validate that copy, require the same
# copy with one extra top-level key to be rejected (every document is
# exact-key, through the bin's CLI as in its unit test), then validate
# the committed one. An empty <file> is a bin that writes a set of files
# into a directory (results/ itself) and takes --out-dir.
report_smoke() {
    local bin="$1" file="$2" out=--out
    shift 2
    [[ -n "$file" ]] || out=--out-dir
    cargo run --release -q -p pprox-bench --bin "$bin" -- \
        "$@" "$out" "$SCRATCH/$file" >/dev/null
    cargo run --release -q -p pprox-bench --bin "$bin" -- \
        --validate "$SCRATCH/$file"
    local doc="${file:-TELEMETRY_snapshot.json}" widened="$SCRATCH/widened" rejection
    rm -rf "$widened" && mkdir "$widened"
    [[ -n "$file" ]] || cp "$SCRATCH/TELEMETRY_prometheus.txt" "$widened/"
    sed '1s/^{/{"injected":0,/' "$SCRATCH/$doc" >"$widened/$doc"
    if rejection="$(cargo run --release -q -p pprox-bench --bin "$bin" -- \
        --validate "$widened/$file" 2>&1)"; then
        echo "report_smoke: $bin --validate accepted a report with an extra top-level key" >&2
        exit 1
    fi
    grep -q 'injected: unexpected key' <<<"$rejection" || {
        echo "report_smoke: $bin rejected the widened report without naming the key:" >&2
        echo "$rejection" >&2
        exit 1
    }
    echo "== validate committed results/$file =="
    cargo run --release -q -p pprox-bench --bin "$bin" -- \
        --validate "results/$file"
}

echo "== limitations report (seeded and deterministic: must equal the committed file) =="
cargo run --release -q -p pprox-bench --bin limitations >"$SCRATCH/limitations.txt"
diff -u results/limitations.txt "$SCRATCH/limitations.txt"

echo "== privacy-flow analysis (v2: taint + lock order + reader/panic discipline) =="
cargo run --release -q -p pprox-analysis -- \
    --json-out "$SCRATCH/ANALYSIS_report.json" --ratchet
cargo run --release -q -p pprox-analysis -- \
    --validate "$SCRATCH/ANALYSIS_report.json"

echo "== validate committed analysis report =="
cargo run --release -q -p pprox-analysis -- \
    --validate results/ANALYSIS_report.json

echo "== loom model checking (telemetry histogram + wire job-queue handoff) =="
CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
    cargo test -q -p pprox-core --test loom
CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
    cargo test -q -p pprox-wire --test loom

echo "== bench smoke =="
./scripts/bench.sh

echo "== recovery timing smoke (cold start vs warm restart of a durable LRS) =="
report_smoke recovery_report BENCH_recovery.json --events 120

echo "== telemetry export smoke =="
report_smoke telemetry_export "" --requests 96 --shuffle-size 4

echo "== scenario smoke (linkage, unsafe-export key, pressure timelines, oracle scan) =="
report_smoke scenario_report BENCH_scenarios.json --smoke

echo "== observability smoke (scrape overhead, sample node scrape) =="
report_smoke observability_report BENCH_observability.json --smoke

echo "== sharding smoke (scaling curve, freshness timings) =="
report_smoke shard_report BENCH_sharding.json --smoke

echo "== benchmark crate (imports still compile, unit tests, 3 s smoke without a lost request) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml
BENCH_SMOKE="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload plain_reco_mix --seed 1 --seconds 3)"
grep -q '^{"correct":true,"attempted":[0-9]*,"failed":0,' <<<"$BENCH_SMOKE" || {
    echo "benchmark smoke: a request failed or got a wrong answer" >&2
    tail -n 1 <<<"$BENCH_SMOKE" | cut -c1-120 >&2
    exit 1
}

echo "== benchmark trend gate (no >20% throughput regressions vs HEAD) =="
cargo run --release -q -p pprox-bench --bin bench_trend

echo "== src/ line counts per crate and the shims (quote before/after in CHANGES.md) =="
for crate in crates/*/; do
    printf '%-12s %6d\n' "$(basename "$crate")" \
        "$(find "$crate/src" -name '*.rs' -print0 | xargs -0 cat | wc -l)"
done
printf '%-12s %6d\n' workspace \
    "$(find crates/*/src -name '*.rs' -print0 | xargs -0 cat | wc -l)"
printf '%-12s %6d\n' crates/wire/src/cluster.rs "$(wc -l <crates/wire/src/cluster.rs)"
printf '%-12s %6d\n' shims \
    "$(find shims/*/src -name '*.rs' -print0 | xargs -0 cat | wc -l)"

echo "CI green."
