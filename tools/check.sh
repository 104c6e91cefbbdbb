#!/usr/bin/env bash
# Builds the `default`, `release`, `asan` and `tsan` CMake presets and runs
# the full test suite under each. The release preset (-O3, -Werror) is the
# optimisation level benchmarks run at. The asan preset
# (-fsanitize=address,undefined) makes the span-use-after-free bug class in
# the storage layer fail loudly instead of silently corrupting results; the
# tsan preset (-fsanitize=thread) does the same for data races in the
# parallel ingest pipeline, the buffer pool's thread-safe mode, the serving
# and sharding layers and the network front-end — run this before merging
# storage/tile/core changes.
#
# Every preset's suite runs twice: once with the default kernel dispatch
# (the widest SIMD tier the build and CPU support) and once with
# SHIFTSPLIT_FORCE_SCALAR=1, which pins kernels::Active() to the scalar
# reference tier. Both runs must be green — the dispatch tiers are
# bit-identical by contract, so a test that passes under one and fails
# under the other is a kernel bug, not flakiness. Set
# SHIFTSPLIT_FORCE_SCALAR=1 yourself to reproduce the scalar-only run of
# any single test or bench.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

# End-to-end durability smoke with the CLI: a freshly ingested store must
# scrub clean, and a single flipped byte in blocks.bin must make `scrub`
# exit non-zero. Run for the presets whose sanitizers cover the storage
# layer (tsan adds nothing here and triples the runtime).
scrub_smoke() {
  local build_dir="$1"
  local tool="$build_dir/tools/shiftsplit_tool"
  local store
  store="$(mktemp -d)/store"
  echo "==> scrub smoke [$build_dir]"
  "$tool" create "$store" --form standard --dims 3,3 --b 1 >/dev/null
  "$tool" ingest "$store" --dataset smooth --chunk 2 --seed 3 >/dev/null
  "$tool" scrub "$store" >/dev/null || {
    echo "scrub smoke: clean store failed scrub" >&2
    exit 1
  }
  # Flip one payload byte of the first block (guaranteed to change: the
  # replacement is the original plus one, mod 256).
  local orig flip
  orig="$(od -An -tu1 -j4 -N1 "$store/blocks.bin" | tr -d ' ')"
  flip=$(( (orig + 1) % 256 ))
  # shellcheck disable=SC2059
  printf "$(printf '\\x%02x' "$flip")" | dd of="$store/blocks.bin" bs=1 \
    seek=4 count=1 conv=notrunc status=none
  if "$tool" scrub "$store" >/dev/null 2>&1; then
    echo "scrub smoke: corruption went undetected" >&2
    exit 1
  fi
  rm -rf "$(dirname "$store")"
}

# Bit-rot smoke with the CLI (DESIGN.md §12): on a parity-protected store a
# flipped payload byte must be healed in place by `scrub --repair` (exit 1
# = repaired everything), the repaired blocks.bin must be byte-identical to
# the pre-corruption image, and a follow-up detect-only scrub must find the
# store clean (exit 0) — bit rot is an incident, not a quarantine.
bitrot_smoke() {
  local build_dir="$1"
  local tool="$build_dir/tools/shiftsplit_tool"
  local store
  store="$(mktemp -d)/store"
  echo "==> bit-rot smoke [$build_dir]"
  "$tool" create "$store" --form standard --dims 3,3 --b 1 --parity 4 \
    >/dev/null
  "$tool" ingest "$store" --dataset smooth --chunk 2 --seed 3 >/dev/null
  local ref
  ref="$(dirname "$store")/blocks.bin.ref"
  cp "$store/blocks.bin" "$ref"
  local orig flip
  orig="$(od -An -tu1 -j4 -N1 "$store/blocks.bin" | tr -d ' ')"
  flip=$(( (orig + 1) % 256 ))
  # shellcheck disable=SC2059
  printf "$(printf '\\x%02x' "$flip")" | dd of="$store/blocks.bin" bs=1 \
    seek=4 count=1 conv=notrunc status=none
  local rc=0
  "$tool" scrub "$store" --repair >/dev/null || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "bit-rot smoke: scrub --repair exited $rc, want 1 (repaired)" >&2
    exit 1
  fi
  cmp -s "$store/blocks.bin" "$ref" || {
    echo "bit-rot smoke: repaired blocks.bin differs from the" \
      "pre-corruption image" >&2
    exit 1
  }
  "$tool" scrub "$store" >/dev/null || {
    echo "bit-rot smoke: store not clean after repair" >&2
    exit 1
  }
  rm -rf "$(dirname "$store")"
}

# Serving-layer crash recovery with the CLI: buffer deltas durably, crash
# the process before any drain (serve-sim --crash uses _Exit, so nothing is
# flushed), then reopen and assert every acknowledged delta is replayed,
# visible to queries, and survives a full drain (serve-sim --verify).
serve_sim_smoke() {
  local build_dir="$1"
  local tool="$build_dir/tools/shiftsplit_tool"
  local store
  store="$(mktemp -d)/store"
  echo "==> serve-sim smoke [$build_dir]"
  "$tool" create "$store" --form standard --dims 4,4 --b 2 >/dev/null
  "$tool" serve-sim "$store" --deltas 24 --seed 9 --crash >/dev/null
  "$tool" serve-sim "$store" --deltas 24 --seed 9 --verify >/dev/null || {
    echo "serve-sim smoke: crash recovery lost acknowledged deltas" >&2
    exit 1
  }
  rm -rf "$(dirname "$store")"
}

# The same crash/recover contract over a sharded store: every shard has its
# own delta log and redo journal, and the composing router must find every
# acknowledged delta again after the whole process dies.
sharded_serve_sim_smoke() {
  local build_dir="$1"
  local tool="$build_dir/tools/shiftsplit_tool"
  local store
  store="$(mktemp -d)/store"
  echo "==> sharded serve-sim smoke [$build_dir]"
  "$tool" create "$store" --form standard --dims 5,4 --b 2 --shards 4 \
    >/dev/null
  "$tool" serve-sim "$store" --deltas 24 --seed 9 --crash >/dev/null
  "$tool" serve-sim "$store" --deltas 24 --seed 9 --verify >/dev/null || {
    echo "sharded serve-sim smoke: crash recovery lost deltas" >&2
    exit 1
  }
  "$tool" stats "$store" >/dev/null || {
    echo "sharded serve-sim smoke: stats failed on a sharded store" >&2
    exit 1
  }
  rm -rf "$(dirname "$store")"
}

# Self-healing smoke with the CLI (DESIGN.md §11): poison one shard of a
# 4-shard store mid-run and require the background supervisor to
# quarantine, rebuild and re-admit it — serve-sim exits non-zero if the
# shard is not recovered (or the cube ends poisoned), so a plain `|| exit`
# is the whole assertion.
self_healing_smoke() {
  local build_dir="$1"
  local tool="$build_dir/tools/shiftsplit_tool"
  local store
  store="$(mktemp -d)/store"
  echo "==> self-healing smoke [$build_dir]"
  "$tool" create "$store" --form standard --dims 5,4 --b 2 --shards 4 \
    >/dev/null
  "$tool" serve-sim "$store" --deltas 40 --seed 11 \
    --crash-shard 1 --expect-recover >/dev/null || {
    echo "self-healing smoke: supervisor failed to recover the shard" >&2
    exit 1
  }
  "$tool" stats "$store" >/dev/null || {
    echo "self-healing smoke: stats failed after recovery" >&2
    exit 1
  }
  rm -rf "$(dirname "$store")"
}

# Network front-end smoke with the CLI (DESIGN.md §13): serve a store over
# loopback, push an acknowledged write through the TCP client, kill -9 the
# server (nothing drains), restart, and require the write to be visible
# bit-exactly — the wire ack means the group-commit fsync held, so a crash
# between ack and drain must lose nothing. Values are dyadic so the printed
# %.17g answers compare with plain string equality. Finishes with a
# graceful TERM drain (exit 0).
net_smoke() {
  local build_dir="$1"
  local tool="$build_dir/tools/shiftsplit_tool"
  local tmp store port_file port pid
  tmp="$(mktemp -d)"
  store="$tmp/store"
  port_file="$tmp/port"
  echo "==> net smoke [$build_dir]"
  "$tool" create "$store" --form standard --dims 4,4 --b 2 >/dev/null
  "$tool" serve --cube demo="$store" --listen 0 --port-file "$port_file" \
    >/dev/null &
  pid=$!
  for _ in $(seq 1 100); do [ -s "$port_file" ] && break; sleep 0.1; done
  port="$(cat "$port_file")"
  "$tool" client ping --connect "127.0.0.1:$port" >/dev/null
  "$tool" client update --connect "127.0.0.1:$port" --cube demo \
    --origin 2,2 --dims 2,1 --values 2.5,1.25 >/dev/null || {
    echo "net smoke: update was not acknowledged" >&2
    exit 1
  }
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  rm -f "$port_file"
  "$tool" serve --cube demo="$store" --listen 0 --port-file "$port_file" \
    >/dev/null &
  pid=$!
  for _ in $(seq 1 100); do [ -s "$port_file" ] && break; sleep 0.1; done
  port="$(cat "$port_file")"
  local point sum
  point="$("$tool" client point --connect "127.0.0.1:$port" --cube demo \
    --at 2,2 --deadline-ms 5000)"
  sum="$("$tool" client sum --connect "127.0.0.1:$port" --cube demo \
    --lo 0,0 --hi 15,15 --deadline-ms 5000)"
  if [ "$point" != "2.5" ] || [ "$sum" != "3.75" ]; then
    echo "net smoke: kill -9 lost an acknowledged write" \
      "(point=$point want 2.5, sum=$sum want 3.75)" >&2
    exit 1
  fi
  "$tool" client stats --connect "127.0.0.1:$port" >/dev/null || {
    echo "net smoke: stats failed" >&2
    exit 1
  }
  kill -TERM "$pid"
  wait "$pid" || {
    echo "net smoke: graceful drain exited non-zero" >&2
    exit 1
  }
  rm -rf "$tmp"
}

# Replayable chaos soak: `-L chaos` selects the fault-injection soaks —
# including the self-healing sharded chaos (chaos_sharded_test) — with the
# seed pinned so a failure reproduces bit-for-bit. Runs under the plain
# build (fast, exercises the timing assertions at real speed) and under
# tsan (the concurrent phase is where races would hide).
chaos_seed=20260806
chaos_soak() {
  local build_dir="$1"
  echo "==> chaos soak [$build_dir] (seed $chaos_seed)"
  SHIFTSPLIT_CHAOS_SEED="$chaos_seed" \
    ctest --test-dir "$build_dir" -L chaos -j "$jobs" --output-on-failure
}

# The committed BENCH_*.json files are CI's schema references: regenerate
# each from the freshly built binary and diff the key sets (values change
# run to run; the shape must not drift silently).
bench_schema() {
  local build_dir="$1" bench="$2" ref="$3"
  local fresh
  fresh="$(mktemp -d)/$ref"
  echo "==> $bench schema [$build_dir]"
  "$build_dir/bench/$bench" --json "$fresh" >/dev/null
  local want got
  want="$(grep -o '"[a-zA-Z0-9_]*":' "$ref" | sort -u)"
  got="$(grep -o '"[a-zA-Z0-9_]*":' "$fresh" | sort -u)"
  if [ "$want" != "$got" ]; then
    echo "$bench schema drifted from the committed $ref:" >&2
    diff <(echo "$want") <(echo "$got") >&2 || true
    echo "regenerate it with: $build_dir/bench/$bench --json $ref" >&2
    exit 1
  fi
  rm -rf "$(dirname "$fresh")"
}

# The benchmark (perfbench/, run by BENCHMARK.json) is a CMake package of
# its own that builds ../src at Release. Configure, build and unit-test it,
# so a src/ change that breaks the benchmark's build fails here and not in a
# benchmark run.
perfbench_build() {
  echo "==> perfbench build + perfbench_test [build-perfbench]"
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench -j "$jobs"
  build-perfbench/perfbench_test
}

# Test names must not depend on the build: a value-parameterized suite that
# prints a pointer or padding bytes into its names registers new names in
# every build, and a test whose name changed looks like a lost one. Two
# trees of one commit must list the same names.
test_names() {
  local listing
  listing=$(ctest --test-dir "$1" -N) || return 1
  sed -n 's/^ *Test *#[0-9]*: //p' <<<"$listing" | sort
}
stable_test_names() {
  echo "==> stable test names [build vs build-release]"
  local debug release
  debug=$(test_names build)
  release=$(test_names build-release)
  if [[ -z "$debug" || -z "$release" ]]; then
    echo "ctest -N listed no tests in build/ or build-release/" >&2
    exit 1
  fi
  if [[ "$debug" != "$release" ]]; then
    diff <(echo "$debug") <(echo "$release") >&2 || true
    echo "ctest names differ between build/ and build-release/" >&2
    exit 1
  fi
}

for preset in default release asan tsan; do
  echo "==> configure [$preset]"
  cmake --preset "$preset"
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test [$preset]"
  ctest --preset "$preset" -j "$jobs"
  echo "==> test [$preset, SHIFTSPLIT_FORCE_SCALAR=1]"
  SHIFTSPLIT_FORCE_SCALAR=1 ctest --preset "$preset" -j "$jobs"
done

stable_test_names

perfbench_build

scrub_smoke build
scrub_smoke build-asan

bitrot_smoke build
bitrot_smoke build-asan

serve_sim_smoke build
serve_sim_smoke build-asan

sharded_serve_sim_smoke build
sharded_serve_sim_smoke build-asan

self_healing_smoke build
self_healing_smoke build-asan

net_smoke build
net_smoke build-asan

chaos_soak build
chaos_soak build-tsan

bench_schema build bench_kernels BENCH_kernels.json
bench_schema build bench_serving BENCH_serving.json
bench_schema build bench_ingest_batched BENCH_ingest.json

echo "All presets built and tested."
