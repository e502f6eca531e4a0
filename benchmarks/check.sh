#!/usr/bin/env bash
# Build, lint and test carebench, then smoke every workload for three
# rounds and check that each run reports exactly the metrics
# BENCHMARK.json names. Run from anywhere; needs no network.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo clippy --release --offline --all-targets -- -D warnings
# Release: the seed-determinism test runs real campaigns (minutes in debug).
cargo test --release --offline

bin="${CARGO_TARGET_DIR:-target}/release/carebench"
names() { # names <section> — metric names BENCHMARK.json lists there
  python3 -c 'import json,sys; print(" ".join(sorted(m["name"] for m in json.load(open("../BENCHMARK.json"))[sys.argv[1]])))' "$1"
}
reported() { # reported <file> — metric names in a run's result line
  tail -n 1 "$1" | python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["correct"] and r["failed"]==0 and r["attempted"]>=1, r; print(" ".join(sorted(r["metrics"])))'
}
tmp="out/check-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("../BENCHMARK.json"))["workloads"]))')"
for w in $workloads; do
  "$bin" run --workload "$w" --seed 1 --rounds 3 --trace 0 >"$tmp/$w.0"
  [ "$(reported "$tmp/$w.0")" = "$(names end_to_end)" ] || { echo "$w: end-to-end names differ from BENCHMARK.json"; exit 1; }
  "$bin" run --workload "$w" --seed 1 --rounds 3 --trace 1 >"$tmp/$w.1"
  [ "$(reported "$tmp/$w.1")" = "$(names per_layer)" ] || { echo "$w: per-layer names differ from BENCHMARK.json"; exit 1; }
  grep -q '^layer trace.coverage_share' "$tmp/$w.1"
  echo "smoke $w ok"
done
echo "carebench check passed"
