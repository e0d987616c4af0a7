#!/usr/bin/env bash
#===- scripts/check_golden.sh - golden-artifact regression at CLI level --===//
#
# Drives the shipped experiment CLI (example_benchmark_runner
# --experiment) against a throwaway store and byte-diffs its report
# artifacts against the checked-in goldens under tests/golden/ — the
# same files ExperimentGoldenTest pins in-process. Two passes:
#
#   1. cold: a clean store, so the full loop (train, synthesize,
#      measure, cross-validate, render) runs and the reports are
#      freshly computed;
#   2. warm: the store populated by pass 1, which must serve all three
#      experiment archives ("0 models trained, 0 kernels measured" on
#      stdout) and still emit byte-identical reports.
#
# Then the streaming pipeline (--pipeline --cache-dir) runs cold and
# warm on its own store: the warm run must report 0 attempts (it loads
# the kernel set and draws nothing) and the same device mapping. Last,
# a refill run (--pipeline --refill --cache-dir) must print no
# synthesis key, since a refill run computes none, and must say that
# its default attempt budget ran out before all 40 kernels were
# delivered.
#
# Passing proves the committed goldens, the library renderers and the
# CLI surface agree byte-for-byte, cold and warm. Registered as the
# ctest `check_golden` (label `golden`); run manually:
#
#   bash scripts/check_golden.sh <source-dir> <runner-binary>
#
#===----------------------------------------------------------------------===//

set -eu

SRC=${1:?usage: check_golden.sh <source-dir> <runner-binary>}
RUNNER=${2:?usage: check_golden.sh <source-dir> <runner-binary>}

GOLDEN="$SRC/tests/golden"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/clgen_check_golden.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

for F in experiment_table1.txt experiment_fig9.txt; do
  [ -s "$GOLDEN/$F" ] || { echo "check_golden: missing golden $F" >&2; exit 1; }
done

run_pass() { # <label>
  local LABEL=$1
  local OUT="$WORK/$LABEL"
  echo "check_golden: $LABEL run"
  "$RUNNER" --experiment --cache-dir "$WORK/store" --report-out "$OUT" \
      > "$WORK/$LABEL.log"
  for F in experiment_table1.txt experiment_fig9.txt; do
    if ! cmp -s "$OUT/$F" "$GOLDEN/$F"; then
      echo "check_golden: $LABEL $F differs from the golden:" >&2
      diff "$GOLDEN/$F" "$OUT/$F" >&2 || true
      exit 1
    fi
  done
}

run_pass cold
grep -q "computed cold" "$WORK/cold.log" \
  || { echo "check_golden: first pass did not compute cold" >&2; exit 1; }

run_pass warm
grep -q "warm start" "$WORK/warm.log" \
  || { echo "check_golden: second pass did not warm-start" >&2; exit 1; }
grep -q "work: 0 models trained, 0 kernels measured" "$WORK/warm.log" \
  || { echo "check_golden: warm pass reported nonzero work" >&2; exit 1; }

"$RUNNER" --pipeline --cache-dir "$WORK/pipeline" > "$WORK/pipeline_cold.log"
"$RUNNER" --pipeline --cache-dir "$WORK/pipeline" > "$WORK/pipeline_warm.log"
grep -Eq "^pipeline: [0-9]+ kernels \([1-9][0-9]* attempts\)" \
    "$WORK/pipeline_cold.log" \
  || { echo "check_golden: cold pipeline reported no attempts" >&2; exit 1; }
grep -Eq "^pipeline: [0-9]+ kernels \(0 attempts, [0-9]+ archived\)" \
    "$WORK/pipeline_warm.log" \
  || { echo "check_golden: warm pipeline reported attempts" >&2; exit 1; }
[ "$(grep "^mapping:" "$WORK/pipeline_cold.log")" = \
  "$(grep "^mapping:" "$WORK/pipeline_warm.log")" ] \
  || { echo "check_golden: warm pipeline mapping differs" >&2; exit 1; }

REFILL_LOG="$WORK/pipeline_refill.log"
"$RUNNER" --pipeline --refill --cache-dir "$WORK/refill" > "$REFILL_LOG"
grep -Fqx "stream: cold — sampled (refill runs always sample)" "$REFILL_LOG" \
  || { echo "check_golden: refill run misreported its stream" >&2; exit 1; }
grep -Fqx "pipeline: 33 of 40 delivered: attempt budget spent" "$REFILL_LOG" \
  || { echo "check_golden: refill run hid its shortfall" >&2; exit 1; }

echo "check_golden: OK (cold + warm reports byte-identical to tests/golden, warm pipeline drew nothing, refill shortfall reported)"
