#!/usr/bin/env bash
#===- scripts/check_variants.sh - zero-drift proof for the build variants ===//
#
# Configures and builds one nested tree with every non-default build
# option flipped at once and runs the full (non-stress) test suite there:
#
#   -DCLGS_FAILPOINTS=ON             every CLGS_FAILPOINT site compiled in,
#                                    none armed outside the fault tests;
#   -DCLGS_TELEMETRY=OFF             every CLGS_COUNT / CLGS_HIST_US /
#                                    CLGS_TRACE_SPAN site compiled out;
#   -DCLGS_FORCE_SWITCH_DISPATCH=ON  the VM runs the portable switch
#                                    build of its execution loop.
#
# Passing proves none of the three changes a result: the golden
# byte-identity tests, the recorded VM verdicts (DispatchParityTest),
# the store round-trips and the pipeline determinism suites all pass in
# this tree as in the default one. Tests that assert telemetry side
# effects guard on support::telemetryCompiledIn().
#
# The tree is built once and its suite runs in four slices, so each
# variant keeps a check of its own name and no test runs twice:
#
#   build_variants    configure + build the tree (the ctest fixture setup)
#   check_failpoints  the fault-injection and fault-tolerance suites
#   check_overhead    the telemetry suites
#   check_dispatch    the VM suites
#   check_variants    every other suite
#
# Registered as those five ctests (label `variants`); run manually:
#
#   bash scripts/check_variants.sh <source-dir> <build-dir> <step>
#
# The nested tree builds only the test binaries, and it registers no
# meta-fixture (CLGS_NESTED_FIXTURE), so the build recursion stays at
# one level.
#
#===----------------------------------------------------------------------===//

set -eu

USAGE="usage: check_variants.sh <source-dir> <build-dir> <step>"
SRC=${1:?$USAGE}
BUILD=${2:?$USAGE}
STEP=${3:?$USAGE}

FAILPOINT_SUITES='FailPointTest|FaultToleranceTest|PipelineFaultTest'
TELEMETRY_SUITES='MetricsTest|TraceTest|PipelineTelemetryTest'
VM_SUITES='CompilerTest|DispatchParityTest|InterpreterTest|ProfileTest'

# Runs the nested suite's tests selected by ctest filter $1 with regex $2.
# --no-tests=error keeps a slice from passing empty if its suites are
# renamed. -LE must precede the bare -j: ctest's optional-value -j would
# otherwise swallow the next token and run the suite unfiltered.
run_slice() {
  (cd "$BUILD" &&
   ctest --output-on-failure --no-tests=error -LE stress "$1" "$2" -j)
  echo "$STEP: the variant build drifts by nothing"
}

case "$STEP" in
build_variants)
  echo "build_variants: configuring $BUILD with failpoints on, telemetry" \
       "off and switch dispatch"
  cmake -B "$BUILD" -S "$SRC" -DCLGS_FAILPOINTS=ON -DCLGS_TELEMETRY=OFF \
        -DCLGS_FORCE_SWITCH_DISPATCH=ON -DCLGS_NESTED_FIXTURE=ON >/dev/null
  echo "build_variants: building test binaries"
  cmake --build "$BUILD" -j --target clgen_tests clgen_stress_tests \
        clgen_failpoint_tests clgen_failpoint_stress_tests >/dev/null
  ;;
check_failpoints)
  run_slice -R "^($FAILPOINT_SUITES)\."
  ;;
check_overhead)
  run_slice -R "^($TELEMETRY_SUITES)\."
  ;;
check_dispatch)
  run_slice -R "^($VM_SUITES)\."
  ;;
check_variants)
  run_slice -E "^($FAILPOINT_SUITES|$TELEMETRY_SUITES|$VM_SUITES)\."
  ;;
*)
  echo "$USAGE" >&2
  exit 2
  ;;
esac
