#!/usr/bin/env bash
# Full pre-merge check: the tier-1 verify from ROADMAP.md, a -Werror
# build of every target, then a ThreadSanitizer build of the
# concurrency-sensitive suites (the comm layer, the enactor's control
# threads, the handshake table and fault paths), then an
# AddressSanitizer + UndefinedBehaviorSanitizer build running every
# test.
# Usage: scripts/check.sh [build-dir] [tsan-build-dir] [asan-build-dir]
#                         [werror-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
ASAN_BUILD="${3:-build-asan}"
WERROR_BUILD="${4:-build-werror}"

echo "==> tier-1: configure + build + ctest"
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j

echo "==> -Werror: build every target with MGG_WERROR=ON"
cmake -B "$WERROR_BUILD" -S . -DMGG_WERROR=ON -DMGG_BUILD_TESTS=ON \
  -DMGG_BUILD_BENCH=ON -DMGG_BUILD_EXAMPLES=ON
cmake --build "$WERROR_BUILD" -j

echo "==> perfbench harness self-tests"
# The benchmark's metric reduction and comparison logic (percentiles,
# spreads, verdicts), checked on fixed inputs; no build needed.
python3 perfbench/test_metrics.py

echo "==> configuration-space differential (explicit)"
# Seeded draws over the whole knob product: each run checked against
# the CPU oracle and, per differential knob set away from its default,
# against a rerun with that knob reset; failures print the draw index,
# its seed and its config. DrawsCoverEveryKnobPair proves the draws
# cover every knob value with every primitive and every knob pair.
"$BUILD/tests/mgg_tests" --gtest_filter='*ConfigSpace.*'

echo "==> operator-pipeline property suite (explicit)"
"$BUILD/tests/mgg_tests" --gtest_filter='OperatorPipeline.*'

echo "==> sync-mode differential suite + handshake stressors (explicit)"
# Pins barrier-vs-pipeline results and W/H counters bit-identical and
# hammers the handshake table's ordering/abort paths.
"$BUILD/tests/mgg_tests" --gtest_filter='SyncPipeline.*'

echo "==> micro_operators acceptance gate (writes BENCH_operators.json)"
"$BUILD/bench/micro_operators" --json="$BUILD/BENCH_operators.json"

echo "==> chaos + fault-recovery suites (explicit)"
# Seeded fault plans against whole primitive runs plus the targeted
# recovery tests (grow-and-retry, comm retries, bounded handshake wait,
# degraded re-enact). Every chaos assertion message carries its fault-plan
# seed, so a red run is reproducible straight from this log.
"$BUILD/tests/mgg_tests" \
  --gtest_filter='Chaos.*:ChaosTsan.*:FaultRecovery.*:FaultInjection.*'

echo "==> wire-format differential + adversarial suite (explicit)"
# Bit-identical results/frontiers across {raw, bitmap, varint, auto}
# x {BSP, pipeline} x 1-8 vGPUs, the encoder fallback chain, and the
# corrupt-payload rejections.
"$BUILD/tests/mgg_tests" --gtest_filter='WireFormat.*'

echo "==> parallel-exec differential suite (explicit)"
# Host worker pool (docs/architecture.md §12): results, W/H and modeled
# times bit-identical at every Config::host_threads width. Each test
# sweeps widths {1, 2, 4, 8} internally (sequential baseline, the
# chunk-boundary widths and the auto cap), plus the pool's error and
# nesting protocol and the steady-state zero-allocation regression.
"$BUILD/tests/mgg_tests" --gtest_filter='ParallelExec.*'

echo "==> micro_parallel acceptance gate (writes BENCH_parallel.json)"
# Bit-identity across pool widths is always enforced; the >= 2x wall
# gate at 4 workers arms only when the host has >= 4 hardware threads.
"$BUILD/bench/micro_parallel" --json="$BUILD/BENCH_parallel.json"

echo "==> comm-layer suites (explicit)"
# Exact payload round-trips through CommBus at 1-8 vGPUs, and zero
# steady-state heap allocations across push -> drain -> release ->
# flush_relays over {flat, two-level} x {raw, auto} (counted by the
# test binary's global operator new hook).
"$BUILD/tests/mgg_tests" --gtest_filter='CommBus.*:Message.*'

echo "==> micro_wire acceptance gate"
# Compressed frontier pushes: >= 30% modeled byte reduction under
# kAuto at 4 vGPUs with both codecs exercised, results bit-identical
# to raw in both sync modes. Modeled bytes only — no wall-clock gate.
"$BUILD/bench/micro_wire"

echo "==> multi-source + serve differential suites (explicit)"
# Batched traversal bit-identical to individual runs across GPU counts,
# schedules and wire formats, plus the query-service packing / lane /
# reuse suite (docs/architecture.md §13).
"$BUILD/tests/mgg_tests" --gtest_filter='MsBfs.*:Serve.*'

echo "==> serve_throughput acceptance gate"
# >= 3x modeled W+H reduction for one 64-source batch vs the 64
# individual runs it replaces (rmat + social at 4 vGPUs), bit-identical
# per-source answers, batch-tagged trace. Modeled gate only — the
# QPS/latency sweep is informational.
"$BUILD/bench/serve_throughput"

echo "==> serve-layer resilience suites (explicit)"
# Supervisor policy units (backoff, batch-queue ordering, restart /
# quarantine budgets) plus the chaos-facing service behaviors:
# deadlines, lane restart with survivor takeover, admission shedding
# and the lossless-accounting invariant (docs/architecture.md §15).
"$BUILD/tests/mgg_tests" --gtest_filter='Supervisor.*:ServeChaos.*'

echo "==> serve_chaos acceptance gate"
# Faults degrade throughput, never answers: fault-free runs keep every
# resilience counter at zero with bit-identical repeats; scripted +
# seeded chaos loses zero queries, provably restarts and requeues at
# least once, and every answered query matches its fault-free
# individual run; open-loop overload sheds instead of queueing.
"$BUILD/bench/serve_chaos"

echo "==> hierarchy + two-level combine suites (explicit)"
# Interconnect shape validation / link classification / gateway
# election, and flat-vs-two-level bit-identity with the byte-split and
# gateway-counter invariants (docs/architecture.md §14).
"$BUILD/tests/mgg_tests" --gtest_filter='Hierarchy.*:TwoLevel.*'

echo "==> ext_multinode acceptance gate"
# Two-level combine must strictly reduce modeled inter-node bytes vs
# the flat topology on rmat_n22_128 at 2x4 and 4x2, non-vacuously
# (gateway dedup and both codecs engage), with results and item
# counters bit-identical across {flat, two-level} x {BSP, pipeline} x
# {raw, auto}. Modeled bytes only — no wall-clock gate.
"$BUILD/bench/ext_multinode"

echo "==> micro_faults acceptance gate (writes BENCH_faults.json)"
# Non-vacuous recovery gates: grow-and-retry completes a just-enough
# run that throws without it, comm retries recover with backoff
# charged, degraded re-enact is correct on n-1 vGPUs. Prints the
# failing fault plan on a red gate.
"$BUILD/bench/micro_faults" --json="$BUILD/BENCH_faults.json"

echo "==> sec5b sync-mode acceptance gate (writes BENCH_sync.json)"
"$BUILD/bench/sec5b_sync_latency" --json="$BUILD/BENCH_sync.json"

echo "==> tsan: build mgg_tests with -fsanitize=thread"
cmake -B "$TSAN_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_BUILD" -j --target mgg_tests

echo "==> tsan: core / comm / fault / pipeline suites"
# The suites defined in core_test.cpp, comm_bus_test.cpp,
# operator_pipeline_test.cpp, fault_test.cpp and sync_pipeline_test.cpp
# — the code paths where threads actually race (senders push into
# shared inboxes and the pool, dedup bitmaps and route scratch are
# touched from the enactor's per-GPU threads, and the handshake table
# orders pipeline deliveries).
TSAN_FILTER='Message.*:CommBus.*:Frontier.*:Operators.*:Problem.*'
TSAN_FILTER+=':Enactor.*:Oom.*:FaultInjection.*'
TSAN_FILTER+=':OperatorPipeline.*:SyncPipeline.*'
# Fault-recovery paths cross threads by design: injector atomics,
# the comm retry loop, the bounded handshake wait (a timed-out take
# aborts the table under the other workers) and the regrow replay.
TSAN_FILTER+=':FaultRecovery.*:ChaosTsan.*'
# Tracer observation paths + the Device scale-knob race regression
# (tracer buffers are written from the enactor's per-GPU threads and
# pool workers and drained from the barrier-completion thread).
TSAN_FILTER+=':CostModel.*:Trace.*'
# Wire codecs run on the sender/receiver threads (encode at package
# time, decode inside drain) and bump the CommBus wire-stats atomics.
TSAN_FILTER+=':WireFormat.*'
# Host worker pool: chunk claiming, the wake/done protocol, and every
# parallel operator pipeline running with 2-8 pool workers.
TSAN_FILTER+=':ParallelExec.*'
# Serve layer: concurrent lanes enact over one shared PartitionedGraph
# (the new race surface — shared read-only CSR slices, the atomic batch
# queue, the stats mutex, and Tracer batch tags from lane threads).
TSAN_FILTER+=':MsBfs.*:Serve.*'
# Resilience layer: lane threads fail/restart while the supervisor
# mutates shared state, the batch queue re-orders under backoff, the
# open-loop dispatcher admits from its own thread, and per-query
# resolution races are claimed via the single-writer ticket protocol.
TSAN_FILTER+=':Supervisor.*:ServeChaos.*'
# Two-level combine: release_drained fills the relay ledger from the
# receivers' threads under the relay mutex, while flush_relays prices
# and recycles it from the closing control thread and bumps the
# link-split/gateway atomics.
TSAN_FILTER+=':TwoLevel.*:Hierarchy.*'
# The configuration-space draws run every primitive under every knob,
# pool widths and both schedules included.
TSAN_FILTER+=':*ConfigSpace.*'
"$TSAN_BUILD/tests/mgg_tests" --gtest_filter="$TSAN_FILTER"

echo "==> asan+ubsan: build mgg_tests with -fsanitize=address,undefined,float-cast-overflow"
# GCC's -fsanitize=undefined leaves out float-cast-overflow, the check
# that catches an out-of-range double -> integer conversion (such as a
# generator's edge count past SizeT), so it is named on its own.
cmake -B "$ASAN_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=undefined,float-cast-overflow -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
cmake --build "$ASAN_BUILD" -j --target mgg_tests

echo "==> asan+ubsan: every suite"
# Message lifetimes across push -> inbox -> drain -> relay ledger ->
# pool, pooled buffers, the wire codecs, the graph readers and builders
# and the option parser. Any UB report aborts the run;
# _GLIBCXX_ASSERTIONS adds libstdc++'s bounds checks on top. allocator_may_return_null: MemoryManager's
# HostAllocationFailureRollsBackAccounting requests a 2^60-byte host
# block on purpose, which ASan otherwise aborts on.
ASAN_OPTIONS=allocator_may_return_null=1 "$ASAN_BUILD/tests/mgg_tests"

echo "==> check.sh: all green"
