#!/usr/bin/env bash
# Runs the whole benchmark at 1/50 size (both runs of all six workloads, each
# in its own child process) and checks the result files against
# BENCHMARK.json: every workload present, correct, and emitting exactly the
# contract's metrics with the contract's units. Takes well under 30 s once
# built. Usage: benchmark/smoke.sh [out-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-benchmark/out/smoke}"
rm -rf "$out"
mkdir -p "$(dirname "$out")"

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    all --seed 1 --seconds 1 --scale 50 --out "$out" > "$out.log" \
    || { tail -n 20 "$out.log"; echo "smoke: benchmark run failed" >&2; exit 1; }

python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
for w in spec["workloads"]:
    for suffix, key in (("json", "end_to_end"), ("layers.json", "per_layer")):
        path = f"{out}/{w['name']}.{suffix}"
        doc = json.load(open(path))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert got == want, f"{path}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
        assert doc["correct"] is True and doc["scenarios_failed"] == 0, f"{path}: {doc['failures']}"
        assert doc["scenarios_attempted"] >= 1, path
        assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values()), path
    spans = json.load(open(f"{out}/{w['name']}.spans.json"))["spans"]
    assert spans and spans[0]["parent"] is None, w["name"]
print(f"smoke: {len(spec['workloads'])} workloads match BENCHMARK.json")
PY
rm -f "$out.log"
