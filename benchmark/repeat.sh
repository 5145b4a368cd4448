#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds? Runs every workload twice on seed 1 and twice on seed 2 (a seed
# not used while sizing the workloads), then compares each pair: every
# end-to-end metric within its bound from BENCHMARK.json, every
# exact-repeat metric identical. Run from the repository root; about
# eight minutes on the 2-core runner.
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
out="${CARGO_TARGET_DIR:-benchmark/target}/bench-repeat"
rm -rf "$out"

cargo build --release --offline --quiet --manifest-path "$manifest"
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

status=0
for seed in 1 2; do
  for side in a b; do
    bench --workload all --seed "$seed" --out "$out/seed$seed-$side" >"$out-seed$seed-$side.log" 2>&1 || {
      echo "seed $seed, side $side: a run failed; see $out-seed$seed-$side.log" >&2
      status=1
    }
  done
  echo "== seed $seed, run a against run b"
  bench --compare "$out/seed$seed-a" "$out/seed$seed-b" || status=1
done

if [ "$status" -eq 0 ]; then echo "repeat.sh: both seeds agree"; else echo "repeat.sh: DISAGREEMENT" >&2; fi
exit "$status"
