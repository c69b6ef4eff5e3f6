#!/usr/bin/env bash
# Smoke-runs the crypto-hot-path throughput harness and schema-checks its
# JSON output (the validator parses with `crates/json`, the repo's own
# parser — so this also exercises the parser against real emitted output).
#
# A full run (paper-scale 2048-bit moduli, defaults) refreshes the
# committed baseline instead:
#
#     cargo run --release -p pprox-bench --bin throughput
#
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-/tmp/pprox_bench_smoke.json}"

# Two passes: 1152-bit keys (three 6-limb CRT primes, the slice
# Montgomery kernel) and 2048-bit keys (32-limb public modulus on the
# fixed-width kernels; three 11-limb CRT primes on the radix-2^52 vector
# ladders where the CPU has AVX-512 IFMA, on the fixed-width kernels where
# it does not), so CI executes every side of `Montgomery::mod_pow`'s and
# the private-key dispatch's this machine can reach.
for bits in 1152 2048; do
    echo "== throughput smoke run ($bits-bit keys) =="
    cargo run --release -q -p pprox-bench --bin throughput -- \
        --rsa-ops 8 --det-ops 2000 --modulus-bits "$bits" \
        --out "$OUT" >/dev/null

    echo "== validate emitted JSON =="
    cargo run --release -q -p pprox-bench --bin throughput -- --validate "$OUT"
done

echo "== an extra top-level key is rejected =="
sed '1s/^{/{"injected":0,/' "$OUT" >"$OUT.widened"
if cargo run --release -q -p pprox-bench --bin throughput -- \
    --validate "$OUT.widened" 2>/dev/null; then
    echo "bench smoke: throughput --validate accepted an extra top-level key" >&2
    exit 1
fi
rm -f "$OUT.widened"

echo "== validate committed baseline =="
cargo run --release -q -p pprox-bench --bin throughput -- \
    --validate results/BENCH_throughput.json

echo "bench smoke green."
