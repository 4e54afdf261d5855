#!/bin/sh
# Builds and tests the tree twice: a plain RelWithDebInfo pass, then an
# AddressSanitizer+UBSan pass (build-asan/). Either failing fails the script.
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Multi-core-only gates (the *_mc kinds in bench/floors.tsv: parallel
# speedup and barrier-stall) need at least two real cores to be
# meaningful; export the detected count so bench_trend.py can decide
# instead of skipping them unconditionally.
OSIRIS_CI_CORES="$(nproc 2>/dev/null || echo 1)"
export OSIRIS_CI_CORES
echo "ci host cores: $OSIRIS_CI_CORES"

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== bench smoke (machine-readable output) =="
# The robustness benches must run to completion and emit their JSON result
# files (goodput + latency quantiles per row/tenant) for downstream plots.
( cd build/bench \
  && ./bench_fault --benchmark_min_time=0.01s >/dev/null \
  && ./bench_adc_isolation >/dev/null \
  && ./bench_qos >/dev/null \
  && ./bench_chaos >/dev/null \
  && ./bench_parallel >/dev/null \
  && ./bench_demux >/dev/null \
  && ./bench_table1_latency >/dev/null \
  && ./bench_fig2_receive_5000 >/dev/null )
for f in build/bench/BENCH_fault.json build/bench/BENCH_adc_isolation.json \
         build/bench/BENCH_qos.json build/bench/BENCH_chaos.json \
         build/bench/BENCH_parallel.json build/bench/BENCH_demux.json \
         build/bench/BENCH_table1_latency.json \
         build/bench/BENCH_fig2_receive_5000.json; do
  [ -s "$f" ] || { echo "missing or empty $f" >&2; exit 1; }
done

echo "== chaos sweep (fixed seeds, serial + 2 worker threads) =="
# Deterministic fault-injection sweep over generated schedules: every run
# must drain with zero invariant violations. On failure the sweep shrinks
# the schedule to a 1-minimal action set and leaves a replayable artifact
# (schedule + postmortem) at build/chaos_repro.txt — attach it to the bug;
# `tools/chaos_sweep --replay build/chaos_repro.txt` reproduces it exactly.
./build/tools/chaos_sweep --seeds 40 --repro-out build/chaos_repro.txt
./build/tools/chaos_sweep --seeds 10 --threads 2 \
  --repro-out build/chaos_repro.txt

echo "== engine determinism smoke =="
# bench_engine self-checks dispatch-order determinism (nonzero exit on
# mismatch) and writes BENCH_engine.json for the floor check below.
( cd build/bench && ./bench_engine )

echo "== perf trend table + per-bench floors =="
# Fold every BENCH_*.json's common perf fields (wall_seconds, engine_events,
# events_per_sec, threads) into one table so throughput trajectories across
# benches — serial and parallel — are visible in a single CI artifact.
# --floors then gates on bench/floors.tsv: engine events/sec (perf floor,
# skipped under OSIRIS_SANITIZE), the whole-system events/sec floors of
# Table 1 and Figure 2 and the chaos scenarios/sec floor (perf, likewise
# skipped), the demux flow-table gates (single-probe
# speedup floor plus ns/cell and flatness ceilings), the QoS quality
# floors — 10x-incast Jain fairness and aggregate-goodput retention —
# which apply to every build flavor, and on >=2-core hosts
# (OSIRIS_CI_CORES above) the parallel gates: 2-thread speedup >= 1.3x
# and worker stall fraction <= 0.3.  --html renders the accumulated
# history as a self-contained SVG dashboard artifact; it never affects
# gating.
python3 tools/bench_trend.py build/bench --append build/bench_trend.tsv \
  --html build/bench_trend.html --floors bench/floors.tsv
[ -s build/bench_trend.html ] || { echo "missing bench_trend.html" >&2; exit 1; }

echo "== sanitized build (address,undefined) =="
cmake -B build-asan -S . -DOSIRIS_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== chaos sweep under ASan/UBSan =="
# A bounded slice of the sweep re-runs sanitized: recovery paths (adaptor
# reset, ARQ resync, reassembly reconciliation) must be memory-clean, not
# just invariant-clean.
./build-asan/tools/chaos_sweep --seeds 8 --repro-out build/chaos_repro.txt

echo "== sanitized build (thread) =="
# ThreadSanitizer pass over the partitioned-engine and chaos tests: the
# EOT/fused-barrier and SPSC-ring protocol must be clean under TSan, not
# just correct by argument, and the chaos runner's threaded sweeps drive
# the same machinery through a much richer workload. Only these two
# suites run here — TSan's ABI slows the full matrix far beyond CI
# budget, and the data-race surface is confined to sim::EngineGroup.
cmake -B build-tsan -S . -DOSIRIS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_parallel_des --target test_chaos
./build-tsan/tests/test_parallel_des
./build-tsan/tests/test_chaos

echo "== ci.sh: all green =="
