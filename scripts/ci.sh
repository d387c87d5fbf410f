#!/usr/bin/env bash
# Tier-1 gate: build and run the test suite, plain and sanitized, with
# the ONFI conformance audit, the determinism smokes and the exact-count
# performance gate. No stage compares a wall-clock rate with a bound:
# host speed is recorded history (BENCH_event_kernel.json, e2ebench/),
# never pass/fail.
#
# The sanitized pass (ASan + UBSan via -DBABOL_SANITIZE=ON) exists
# chiefly for the event kernel's pool / free-list / intrusive-list code,
# where a stale index or double release would otherwise corrupt silently.
#
# The TSan pass (-DBABOL_TSAN=ON) covers fleet mode, the only
# multi-threaded path: the tier-1 suite (including babol_fleet_tests)
# plus fleet runs on 4 worker threads — one of them a fault campaign
# with the auditor armed — so what the members share (the label
# interner, and the parent context each member's own context copies
# its audit and power settings from) runs under the race detector.
#
# Stages (all run when no flag is given; CI runs them as separate jobs):
#   --plain-only   configure/build/ctest, default flags
#   --asan-only    configure/build/ctest with ASan + UBSan
#   --tsan-only    configure/build/ctest with TSan + fleet runs on 4
#                  threads (plain, and with faults + audit)
#   --audit-only   BABOL_AUDIT=1 sanitizer sweep + fault campaigns and
#                  power-capped runs on every controller flavour, plus
#                  the queued front end and the wear-bounded lifetime
#                  smoke (requires a prior plain build; runs one if
#                  build/ is missing)
#   --crash-only   crash/remount campaign: the committed power-cut plan
#                  (examples/crash_plan.txt) on every controller
#                  flavour under BABOL_AUDIT=1, a byte-identical-rerun
#                  determinism check, and a clean-shutdown remount
#                  (same build requirement)
#   --determinism-only  a fleet run must print the same report at 1
#                  and 4 threads, and the power summary and multi-tenant
#                  SLO JSON must be byte-identical across reruns; the
#                  event-kernel microbench must exit 0, i.e. its steady
#                  state makes no allocation (same build requirement)
#   --reliability-only  media-decay campaign: a die killed mid-workload
#                  on every controller flavour under BABOL_AUDIT=1 with
#                  RAIN + patrol scrub on, asserting zero acknowledged
#                  data loss, byte-identical rerun digests, a surviving
#                  block failure, and the no-RAIN control that MUST lose
#                  data (same build requirement)
#   --e2e-smoke-only  end-to-end benchmark smoke: builds e2ebench/ (its
#                  own Release CMake project over the simulator sources)
#                  into build/e2ebench and runs e2ebench/smoke_test.py,
#                  every workload untraced and traced at 2% scale, so a
#                  src/ API change that breaks e2ebench/adapter.cc, or a
#                  traced run whose simulated digest differs from the
#                  untraced one, fails here
#   --count-gate-only  machine-independent count gate: builds e2ebench/
#                  into build/e2ebench, runs read_fig12 and nvme_tenants
#                  traced at seed 1 with no time budget, and compares
#                  events, allocations, transactions, scheduler passes
#                  and segments per IO or op with bench/count_gate.json (scripts/count_gate.py):
#                  equal passes, a drop fails until the file records it,
#                  a rise fails. COUNT_GATE_BASE=<git rev> also forbids
#                  the file itself from raising a count over that rev's
#
# Usage: scripts/ci.sh
#   [--plain-only|--asan-only|--tsan-only|--audit-only|--crash-only|
#    --determinism-only|--reliability-only|--e2e-smoke-only|
#    --count-gate-only]

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"

run_suite() {
    local dir="$1"; shift
    cmake -B "$dir" -S "$ROOT" "$@"
    cmake --build "$dir" -j"$JOBS"
    ctest --test-dir "$dir" --output-on-failure -j"$JOBS"
}

ensure_plain_build() {
    if [[ ! -x "$ROOT/build/examples/ssd_fio" ]]; then
        cmake -B "$ROOT/build" -S "$ROOT"
        cmake --build "$ROOT/build" -j"$JOBS"
    fi
}

stage_plain() {
    echo "=== tier-1: plain ==="
    run_suite "$ROOT/build"
}

stage_asan() {
    echo "=== tier-1: ASan + UBSan ==="
    run_suite "$ROOT/build-asan" -DBABOL_SANITIZE=ON
}

stage_tsan() {
    echo "=== tier-1: TSan ==="
    run_suite "$ROOT/build-tsan" -DBABOL_TSAN=ON
    echo "=== tier-1: TSan fleet (4 threads) ==="
    "$ROOT/build-tsan/examples/ssd_fio" coro --fleet 8 --streams 2 \
        --threads 4 >/dev/null
    echo "=== tier-1: TSan fleet with member faults + auditors ==="
    "$ROOT/build-tsan/examples/ssd_fio" coro --fleet 8 --streams 2 \
        --threads 4 --faults "$ROOT/examples/fault_plan.txt" --audit \
        >/dev/null
}

# ONFI conformance audit: the whole suite and the figure benches run
# with the online auditor armed as a sanitizer (BABOL_AUDIT=1 panics on
# the first unsuppressed diagnostic), plus collector-mode (--audit)
# passes whose exit status covers the end-of-run conservation checks —
# including a full fault campaign on every controller flavour, which
# must inject, recover, and still audit clean.
stage_audit() {
    ensure_plain_build
    echo "=== tier-1: ONFI conformance audit (BABOL_AUDIT=1) ==="
    BABOL_AUDIT=1 ctest --test-dir "$ROOT/build" --output-on-failure \
        -j"$JOBS"
    BABOL_AUDIT=1 "$ROOT/build/bench/fig10_sw_overhead" --quick >/dev/null
    BABOL_AUDIT=1 "$ROOT/build/bench/fig11_polling_breakdown" >/dev/null
    BABOL_AUDIT=1 "$ROOT/build/bench/fig12_end_to_end" --quick >/dev/null
    "$ROOT/build/examples/ssd_fio" coro --audit | tail -3

    # The queued front end must audit clean too: SQ fetches and CQE
    # posts interleave with the flash work of a multi-channel device.
    echo "=== tier-1: queued front-end audit (fig12 --qpairs 4) ==="
    BABOL_AUDIT=1 "$ROOT/build/bench/fig12_end_to_end" --quick \
        --qpairs 4 >/dev/null

    echo "=== tier-1: trace replay audit ==="
    BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" coro --qpairs 2 \
        --replay "$ROOT/examples/trace_sample.txt" | tail -3

    # Power-accounting smoke: run every flavour with the sanitizer armed
    # and a power cap low enough to open throttle windows. The auditor's
    # Power rule checks energy conservation at finish, and the
    # throttle-admission tripwire panics if a request slips past the
    # governor's gate during a forced idle window.
    echo "=== tier-1: power-audit smoke (cap + conservation) ==="
    mkdir -p "$ROOT/build/audit-reports"
    local pf
    for pf in coro rtos hw; do
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$pf" \
            --power-cap 100 --audit="$ROOT/build/audit-reports/power_${pf}.txt" \
            | tail -2
    done

    echo "=== tier-1: fault campaigns (every flavour, audit-clean) ==="
    mkdir -p "$ROOT/build/audit-reports"
    local flavor
    for flavor in coro rtos hw; do
        echo "--- $flavor ---"
        "$ROOT/build/examples/ssd_fio" "$flavor" \
            --faults "$ROOT/examples/fault_plan.txt" \
            --audit="$ROOT/build/audit-reports/fault_${flavor}.txt" \
            | tail -4
    done

    # Wear-bounded lifetime smoke: drive one chip to its erase limit.
    # The FTL must retire the worn block without stranding a single
    # in-flight write, static WL must hold the erase-count spread, and
    # the device must keep serving writes afterwards.
    echo "=== tier-1: wear-bounded lifetime smoke ==="
    "$ROOT/build/examples/ssd_fio" coro --lifetime-smoke | tail -2
}

# Crash/remount campaign: every power-cut point in the committed plan
# is one full cut/remount/verify cycle, run on every controller flavour
# with the auditor armed as a sanitizer. The gate: zero lost
# acknowledged writes, zero resurrected stale mappings, audit-clean —
# and recovery must be deterministic, so a rerun's digest file has to
# be byte-identical. A clean shutdown must remount to exactly the
# issued state.
stage_crash() {
    ensure_plain_build
    echo "=== tier-1: crash/remount campaign (every flavour) ==="
    mkdir -p "$ROOT/build/crash-reports"
    # The digest file is append-mode; stale lines from a previous local
    # run would defeat the byte-identical cmp below.
    rm -f "$ROOT/build/crash-reports"/crash_*.txt
    local flavor
    for flavor in coro rtos hw; do
        echo "--- $flavor ---"
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --crash-plan "$ROOT/examples/crash_plan.txt" \
            --crash-out "$ROOT/build/crash-reports/crash_${flavor}_a.txt" \
            | tail -3
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --crash-plan "$ROOT/examples/crash_plan.txt" \
            --crash-out "$ROOT/build/crash-reports/crash_${flavor}_b.txt" \
            >/dev/null
        cmp "$ROOT/build/crash-reports/crash_${flavor}_a.txt" \
            "$ROOT/build/crash-reports/crash_${flavor}_b.txt" || {
            echo "FAIL: $flavor crash recovery is not deterministic"
            exit 1
        }
    done
    echo "    byte-identical recovery digests on reruns"

    echo "=== tier-1: clean-shutdown remount ==="
    BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" coro --remount | tail -2
}

# Media-decay reliability campaign: on every controller flavour, kill a
# die mid-workload with RAIN + patrol scrub armed and the auditor in
# sanitizer mode. The gate: the run completes with zero acknowledged
# data loss (exit 0, not the data-loss exit code 4), every stranded
# page XOR-rebuilt and verified by read-back digest — and the whole
# campaign is deterministic, so a rerun's digest file must be
# byte-identical. A block failure must be survived the same way, and
# the no-RAIN control MUST lose data (proving the campaign actually
# bites).
stage_reliability() {
    ensure_plain_build
    echo "=== tier-1: reliability test suite (ctest -L reliability) ==="
    BABOL_AUDIT=1 ctest --test-dir "$ROOT/build" --output-on-failure \
        -L reliability -j"$JOBS"

    echo "=== tier-1: reliability campaign (die failure, every flavour) ==="
    mkdir -p "$ROOT/build/reliability-reports"
    # The digest file is append-mode; stale lines from a previous local
    # run would defeat the byte-identical cmp below.
    rm -f "$ROOT/build/reliability-reports"/rel_*.txt
    local flavor
    for flavor in coro rtos hw; do
        echo "--- $flavor ---"
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --rain --scrub --diefail-at 200 \
            --reliability-out "$ROOT/build/reliability-reports/rel_${flavor}_a.txt" \
            | tail -4
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --rain --scrub --diefail-at 200 \
            --reliability-out "$ROOT/build/reliability-reports/rel_${flavor}_b.txt" \
            >/dev/null
        cmp "$ROOT/build/reliability-reports/rel_${flavor}_a.txt" \
            "$ROOT/build/reliability-reports/rel_${flavor}_b.txt" || {
            echo "FAIL: $flavor die-failure recovery is not deterministic"
            exit 1
        }
    done
    echo "    byte-identical recovery digests on reruns"

    echo "=== tier-1: reliability block-failure campaign ==="
    BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" coro \
        --rain --scrub --blockfail-at 150 \
        --reliability-out "$ROOT/build/reliability-reports/rel_blockfail.txt" \
        | tail -4

    # Negative control: the same die kill WITHOUT RAIN must lose data
    # and say so via the dedicated exit code. If this run starts
    # passing, the campaign stopped exercising anything.
    echo "=== tier-1: reliability no-RAIN control (must lose data) ==="
    local rc=0
    "$ROOT/build/examples/ssd_fio" coro --scrub --diefail-at 200 \
        >/dev/null || rc=$?
    if [[ "$rc" -ne 4 ]]; then
        echo "FAIL: no-RAIN die kill exited $rc, expected data-loss code 4"
        exit 1
    fi
    echo "    control lost data as expected (exit 4)"
}

stage_e2e_smoke() {
    echo "=== tier-1: end-to-end benchmark smoke ==="
    (cd "$ROOT" &&
        CARGO_TARGET_DIR="$ROOT/build/e2ebench" python3 e2ebench/smoke_test.py)
}

stage_count_gate() {
    echo "=== tier-1: count gate ==="
    local base=()
    if [[ -n "${COUNT_GATE_BASE:-}" ]]; then
        base=(--base "$COUNT_GATE_BASE")
    fi
    (cd "$ROOT" &&
        CARGO_TARGET_DIR="$ROOT/build/e2ebench" \
            python3 scripts/count_gate.py ${base[@]+"${base[@]}"})
}

# Determinism smokes: outputs that are pure functions of the model must
# not depend on thread count or on the run. The event-kernel microbench
# runs here for its exit status only (1 when its steady state allocates,
# an exact count); the events/s it prints are not compared with anything.
stage_determinism() {
    ensure_plain_build
    echo "=== tier-1: event-kernel steady state allocates nothing ==="
    local rc=0
    "$ROOT/build/bench/micro_event_kernel" --quick \
        --out "$ROOT/build/micro_event_kernel.json" >/dev/null || rc=$?
    if [[ "$rc" -ne 0 ]]; then
        echo "FAIL: micro_event_kernel exited $rc" \
             "(1: the kernel's steady state allocates)"
        exit 1
    fi
    echo "    allocation-free steady state (exit 0)"

    # Fleet determinism smoke: every member's report is a pure
    # function of its seed, so the fleet output must be identical at 1
    # and 4 worker threads from line 2 on (line 1 names the thread
    # count).
    echo "=== tier-1: fleet determinism smoke (--threads 1/4) ==="
    local t
    for t in 1 4; do
        "$ROOT/build/examples/ssd_fio" coro --fleet 8 --streams 2 \
            --threads "$t" | tail -n +2 > "$ROOT/build/fleet_t${t}.txt"
    done
    diff "$ROOT/build/fleet_t1.txt" "$ROOT/build/fleet_t4.txt" || {
        echo "FAIL: fleet output differs between 1 and 4 threads"
        exit 1
    }
    echo "    identical fleet reports at 1 and 4 threads"

    # Power determinism smoke: per-rail energy is integer femtojoules,
    # so the power summary must be byte-identical across reruns.
    echo "=== tier-1: power determinism smoke (rerun) ==="
    "$ROOT/build/examples/ssd_fio" coro \
        --power-out "$ROOT/build/power_a.json" >/dev/null
    "$ROOT/build/examples/ssd_fio" coro \
        --power-out "$ROOT/build/power_b.json" >/dev/null
    cmp "$ROOT/build/power_a.json" "$ROOT/build/power_b.json" || {
        echo "FAIL: power summary differs between reruns"
        exit 1
    }
    echo "    identical power summaries on reruns"

    # Multi-tenant determinism smoke: the per-tenant SLO report is a
    # pure function of the model too — two runs must produce
    # byte-identical JSON.
    echo "=== tier-1: multi-tenant SLO determinism smoke (rerun) ==="
    "$ROOT/build/examples/ssd_fio" coro --qpairs 4 --tenants 50 \
        --slo-out "$ROOT/build/slo_a.json" >/dev/null
    "$ROOT/build/examples/ssd_fio" coro --qpairs 4 --tenants 50 \
        --slo-out "$ROOT/build/slo_b.json" >/dev/null
    cmp "$ROOT/build/slo_a.json" "$ROOT/build/slo_b.json" || {
        echo "FAIL: tenant SLO report differs between reruns"
        exit 1
    }
    echo "    identical SLO JSON on reruns (50 tenants)"
}

case "$MODE" in
  --plain-only) stage_plain ;;
  --asan-only)  stage_asan ;;
  --tsan-only)  stage_tsan ;;
  --audit-only) stage_audit ;;
  --crash-only) stage_crash ;;
  --determinism-only) stage_determinism ;;
  --reliability-only) stage_reliability ;;
  --e2e-smoke-only) stage_e2e_smoke ;;
  --count-gate-only) stage_count_gate ;;
  all)
    stage_plain
    stage_audit
    stage_crash
    stage_reliability
    stage_asan
    stage_tsan
    stage_determinism
    stage_e2e_smoke
    stage_count_gate
    ;;
  *)
    echo "usage: scripts/ci.sh" \
         "[--plain-only|--asan-only|--tsan-only|--audit-only|--crash-only|--determinism-only|--reliability-only|--e2e-smoke-only|--count-gate-only]" \
         >&2
    exit 2
    ;;
esac

echo "=== tier-1: OK ==="
