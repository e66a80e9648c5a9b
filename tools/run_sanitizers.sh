#!/bin/sh
# Sanitizer job: build the full tree under sanitizers and run ctest.
# Uses dedicated build directories so it never disturbs the primary
# build/. Any sanitizer report fails the run (halt_on_error below and
# -DCTEST exit codes).
#
# Usage: run_sanitizers.sh [mode] [build-dir]
#   mode: asan-ubsan (default) | tsan | integer
#
# asan-ubsan also builds with -D_GLIBCXX_ASSERTIONS, so standard
# containers bounds-check operator[], front() and back(). ASan alone
# misses an index that stays inside a vector's capacity, which is how
# a stale slot or bank index goes wrong.
#
# tsan runs the race detector over the code that uses host threads:
# core::runGrid's tests and the SQL-suite golden, whose 52 machines
# run on the grid at the host's worker count. ThreadSanitizer cannot
# be combined with ASan, hence the separate mode and build directory.
#
# integer hunts silent narrowing on the Tick/Cycles/Addr arithmetic
# paths that the strong types (DESIGN.md 4e) cannot cover — .value()
# escapes, stat accumulation, percentile math. Under clang it uses
# the full -fsanitize=integer,implicit-conversion groups; gcc has no
# equivalent groups, so it falls back to the UBSan checks gcc does
# ship (signed overflow, shift, divide, bounds). Unsigned wraparound
# is defined behaviour that the clang groups nevertheless report, so
# this mode is NON-GATING by default: it always prints its summary
# but only fails the run when RCNVM_UBSAN_INT_GATE=1 is set. CI runs
# it report-only until the clang findings are triaged; flip the gate
# on once the report is clean.
set -eu

root=$(CDPATH= cd -- "$(dirname "$0")/.." && pwd)
mode=${1:-asan-ubsan}

case "$mode" in
asan-ubsan)
    bdir=${2:-"$root/build-sanitize"}
    cmake -B "$bdir" -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS \
        -DRCNVM_SANITIZE="address;undefined"
    cmake --build "$bdir" -j "$(nproc)"

    ASAN_OPTIONS=detect_leaks=1:halt_on_error=1 \
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
        ctest --test-dir "$bdir" --output-on-failure -j "$(nproc)"
    ;;
tsan)
    bdir=${2:-"$root/build-tsan"}
    cmake -B "$bdir" -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRCNVM_SANITIZE="thread"
    cmake --build "$bdir" -j "$(nproc)" --target integration_tests

    TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
        "$bdir/tests/integration_tests" \
        --gtest_filter='RunGrid.*:SqlSuiteGolden.*'
    ;;
integer)
    bdir=${2:-"$root/build-ubsan-int"}

    # Prefer clang for its integer/implicit-conversion check groups;
    # honour an explicit CXX either way.
    cxx=${CXX:-}
    if [ -z "$cxx" ] && command -v clang++ >/dev/null 2>&1; then
        cxx=clang++
    fi
    if [ -n "$cxx" ] && "$cxx" --version 2>/dev/null \
            | grep -qi clang; then
        sans="integer;implicit-conversion"
        cxxargs="-DCMAKE_CXX_COMPILER=$cxx"
    else
        sans="signed-integer-overflow;shift;integer-divide-by-zero;bounds"
        cxxargs=""
        echo "run_sanitizers: clang++ not found; using the gcc UBSan" \
             "subset ($sans)"
    fi

    # shellcheck disable=SC2086  # cxxargs is one optional -D flag
    cmake -B "$bdir" -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRCNVM_SANITIZE="$sans" $cxxargs
    cmake --build "$bdir" -j "$(nproc)"

    status=0
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
        ctest --test-dir "$bdir" --output-on-failure -j "$(nproc)" \
        || status=$?

    if [ "$status" -ne 0 ]; then
        if [ "${RCNVM_UBSAN_INT_GATE:-0}" = "1" ]; then
            echo "run_sanitizers: integer mode found issues (gating)"
            exit "$status"
        fi
        echo "run_sanitizers: integer mode found issues (NON-GATING;" \
             "set RCNVM_UBSAN_INT_GATE=1 to make this fail the run)"
    else
        echo "run_sanitizers: integer mode clean ($sans)"
    fi
    ;;
*)
    echo "unknown mode '$mode' (want asan-ubsan, tsan or integer)" >&2
    exit 2
    ;;
esac
