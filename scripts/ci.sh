#!/usr/bin/env sh
# Local CI gate: formatting, offline release build, full offline test run.
# The build environment has no registry access, so everything runs with
# --offline; the workspace has no third-party dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> perfbench smoke"
# The benchmark's own tests: a --tiny run of every workload, traced and
# untraced, with every correctness oracle (plan determinism, the
# fingerprint checks, the serve responses). A nondeterministic plan or
# a broken oracle fails here, before any benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> fuzz smoke"
# A fixed, deterministic differential campaign across the static/dynamic
# soundness boundary (plus a fuel-fault and a front-end havoc pass).
# Exit code 1 — any classified mismatch — fails the gate.
./target/release/usher fuzz --smoke
./target/release/usher fuzz --smoke --fault fuel
./target/release/usher fuzz --seeds 6 --mutants 10 --frontend --no-minimize

echo "==> degradation smoke"
# Graceful degradation gate (DESIGN.md §10): the fault-injected fuzz
# campaigns must classify clean, a starved CLI run must degrade — not
# die — and say so in its telemetry, an injected stage panic must be
# contained the same way, and --strict must turn the degradation into a
# hard failure.
./target/release/usher fuzz --smoke --fault budget-exhaust
./target/release/usher fuzz --smoke --fault cache-corrupt
DEG_TC=$(mktemp) && DEG_JSON=$(mktemp)
./target/release/usher gen --seed 37 --helpers 16 --stmts 12 > "$DEG_TC"
./target/release/usher analyze "$DEG_TC" --budget-steps 500 --no-cache --report > /dev/null 2> "$DEG_JSON"
grep -q '"reason":"budget-exhausted"' "$DEG_JSON"
./target/release/usher analyze "$DEG_TC" --inject-panic resolve --no-cache --report > /dev/null 2> "$DEG_JSON"
grep -q '"reason":"stage-panic"' "$DEG_JSON"
if ./target/release/usher analyze "$DEG_TC" --budget-steps 500 --no-cache --strict > /dev/null 2>&1; then
    echo "error: --strict must fail on an exhausted budget" >&2
    exit 1
fi
rm -f "$DEG_TC" "$DEG_JSON"

echo "==> opt-level smoke"
# Every other step compiles at O0+IM. O1 and O2 rewrite the CFG after
# mem2reg, so the CFGs and dominator trees the guided stages share are
# computed from a different module than mem2reg saw: analyze one
# generated program at each level and fail on a non-zero exit or on any
# degrade event in the telemetry. The telemetry must also carry
# mem2reg's counters.
OPT_TC=$(mktemp) && OPT_JSON=$(mktemp)
./target/release/usher gen --seed 29 --helpers 16 --stmts 10 > "$OPT_TC"
for OPT_LEVEL in O1 O2; do
    ./target/release/usher analyze "$OPT_TC" --opt "$OPT_LEVEL" --no-cache --report > /dev/null 2> "$OPT_JSON"
    if ! grep -q '"functions_degraded":0,.*"events":\[\]' "$OPT_JSON"; then
        echo "error: analyze --opt $OPT_LEVEL degraded" >&2
        cat "$OPT_JSON" >&2
        exit 1
    fi
    grep -q '"phis_inserted":' "$OPT_JSON"
done
rm -f "$OPT_TC" "$OPT_JSON"

echo "==> pointer solver smoke"
# Pointer-stage gate (DESIGN.md §12): the reference-vs-production
# divergence fuzz mode must classify clean (the production solver's plan
# fingerprints identically to the frozen reference solver's and both
# survive the native-vs-instrumented oracle), and the analyze telemetry
# must name the production solver. Byte-identity across the SPEC-modelled
# programs is covered by tests/representation_equiv.rs.
./target/release/usher fuzz --smoke --fault strategy-diverge
STR_TC=$(mktemp) && STR_B=$(mktemp)
./target/release/usher gen --seed 41 --helpers 12 --stmts 10 > "$STR_TC"
./target/release/usher analyze "$STR_TC" --no-cache --report > /dev/null 2> "$STR_B"
grep -q '"strategy":"prefilter"' "$STR_B"
rm -f "$STR_TC" "$STR_B"

echo "==> serve smoke"
# Persistent-service gate (DESIGN.md §11): drive the JSON-lines protocol
# over stdin — cold analyze, warm re-analyze (the cache must hit), two
# single-function edits (a const swap, then an unused-local insert) that
# must take the incremental path, recompute exactly one function and
# keep the retained value flow, a third (an operator swap) that must be
# incremental too and rebuild the value flow, a query, stats with a
# nonzero warm-hit ratio and three memory-tier entries, a fourth edit
# (a new call) that the pointer gate must refuse, and a clean shutdown.
# The cold open runs the driver's pipeline, so its stderr
# telemetry record must list the driver's stages in order, and no record
# may carry a contained stage panic. The incremental-vs-cold speedup
# floors are timing gates in tests/perf_gates.rs (see "perf gates"
# below).
SRV_OUT=$(mktemp) && SRV_ERR=$(mktemp)
printf '%s\n' \
  '{"op":"analyze","source":"def scale(int v) -> int {\n    int bias = 4;\n    if (v) { return v * bias; }\n    return bias;\n}\ndef risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(scale(risky(c)));\n}","id":"ci-a1"}' \
  '{"op":"analyze","source":"def scale(int v) -> int {\n    int bias = 4;\n    if (v) { return v * bias; }\n    return bias;\n}\ndef risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(scale(risky(c)));\n}","id":"ci-a2"}' \
  '{"op":"edit","session":1,"func":"scale","body":"def scale(int v) -> int {\n    int bias = 9;\n    if (v) { return v * bias; }\n    return bias;\n}","id":"ci-e1"}' \
  '{"op":"edit","session":1,"func":"scale","body":"def scale(int v) -> int {\n    int bias = 9;\n    int unused = 3;\n    if (v) { return v * bias; }\n    return bias;\n}","id":"ci-e2"}' \
  '{"op":"edit","session":1,"func":"scale","body":"def scale(int v) -> int {\n    int bias = 9;\n    int unused = 3;\n    if (v) { return v + bias; }\n    return bias;\n}","id":"ci-e3"}' \
  '{"op":"query","session":1,"id":"ci-q1"}' \
  '{"op":"stats","id":"ci-s1"}' \
  '{"op":"edit","session":1,"func":"scale","body":"def scale(int v) -> int {\n    int bias = 9;\n    int unused = 3;\n    if (v) { print(v); return v * bias; }\n    return bias;\n}","id":"ci-e4"}' \
  '{"op":"shutdown","id":"ci-z1"}' \
  | ./target/release/usher serve > "$SRV_OUT" 2> "$SRV_ERR"
grep -q '"id":"ci-a1".*"mode":"cold"' "$SRV_OUT"
grep -q '"request_id":"ci-a1".*"stages":\[{"stage":"parse"[^]]*{"stage":"lower"[^]]*{"stage":"inline"[^]]*{"stage":"mem2reg"[^]]*{"stage":"opt"[^]]*{"stage":"pointer"[^]]*{"stage":"memssa"[^]]*{"stage":"vfg"[^]]*{"stage":"resolve"[^]]*{"stage":"instrument"' "$SRV_ERR"
if grep -q '"reason":"stage-panic"' "$SRV_ERR"; then
    echo "error: serve smoke telemetry carries a contained stage panic" >&2
    exit 1
fi
grep -q '"id":"ci-a2".*"mode":"warm"' "$SRV_OUT"
grep -q '"id":"ci-e1".*"incremental":true,"functions_recomputed":1' "$SRV_OUT"
# A promoted local is not an object: inserting an unused one keeps the
# object table and the post-`mem2reg` body, so it is incremental too.
grep -q '"id":"ci-e2".*"incremental":true,"functions_recomputed":1' "$SRV_OUT"
# `v * bias -> v + bias` changes an operator, so the value flow is
# rebuilt: the VFG from the retained CFGs, then Γ and Opt II.
grep -q '"id":"ci-e3".*"incremental":true,"functions_recomputed":1' "$SRV_OUT"
grep -q '"id":"ci-q1".*"plan_digest"' "$SRV_OUT"
grep -q '"id":"ci-s1".*"analyzes_warm":1' "$SRV_OUT"
# `bias = 4 -> 9` changes only a constant and `int unused = 3;` leaves
# the post-`mem2reg` body as it was: both edits must keep the retained
# value flow (VFG, Γ, Opt II) and re-plan only; the operator swap must
# not.
grep -q '"id":"ci-s1".*"edits_value_flow_unchanged":2[,}]' "$SRV_OUT"
# The memory tier holds only what the warm path reads back (module, Γ,
# plan) for the one cold analysis; a write-only insert would show here.
grep -q '"id":"ci-s1".*"memory_entries":3[,}]' "$SRV_OUT"
# A new `print(v)` call adds an instruction, so the edited body is no
# longer the old one up to operands the solver never reads: the edit
# falls back to a full recompute and names the gate.
grep -q '"id":"ci-e4".*"incremental":false' "$SRV_OUT"
grep -q '"id":"ci-e4".*"fallback_reason":"pointer-structure-changed"' "$SRV_OUT"
if grep -q '"warm_hit_ratio":0[,}]' "$SRV_OUT"; then
    echo "error: serve smoke warm-hit ratio must be nonzero" >&2
    exit 1
fi
if grep -q '"ok":false' "$SRV_OUT"; then
    echo "error: serve smoke produced a failed response" >&2
    cat "$SRV_OUT" >&2
    exit 1
fi
grep -q '"op":"shutdown"' "$SRV_OUT"
rm -f "$SRV_OUT" "$SRV_ERR"

echo "==> crash-safety smoke"
# Crash-safe serve gate (DESIGN.md §14): the serve-chaos fuzz campaign
# must classify clean — every injected torn write / ENOSPC / kill-point
# either recovers the session byte-identically from the WAL or degrades
# with a recorded reason, and never corrupts the store. Then a literal
# kill -9: a serving process is killed mid-session and a fresh process
# on the same store directory must replay the WAL, report the recovered
# session in stats, and answer queries against it.
./target/release/usher fuzz --seeds 2 --mutants 0 --no-minimize --fault serve-chaos
CRS_DIR=$(mktemp -d) && CRS_OUT=$(mktemp) && CRS_PIPE=$(mktemp -u)
mkfifo "$CRS_PIPE"
./target/release/usher serve --store-dir "$CRS_DIR" < "$CRS_PIPE" > "$CRS_OUT" 2>/dev/null &
CRS_PID=$!
exec 3> "$CRS_PIPE"
printf '%s\n' \
  '{"op":"analyze","source":"def risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(risky(c));\n}","id":"cr-a1"}' >&3
CRS_TRIES=0
until grep -q '"id":"cr-a1"' "$CRS_OUT" 2>/dev/null; do
    CRS_TRIES=$((CRS_TRIES + 1))
    if [ "$CRS_TRIES" -gt 100 ]; then
        echo "error: crash smoke: serve never answered the analyze" >&2
        kill -9 "$CRS_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
kill -9 "$CRS_PID" 2>/dev/null || true
wait "$CRS_PID" 2>/dev/null || true
exec 3>&-
rm -f "$CRS_PIPE"
printf '%s\n' \
  '{"op":"stats","id":"cr-s1"}' \
  '{"op":"query","session":1,"id":"cr-q1"}' \
  '{"op":"query-use","session":1,"check":0,"id":"cr-u1"}' \
  '{"op":"shutdown","id":"cr-z1"}' \
  | ./target/release/usher serve --store-dir "$CRS_DIR" > "$CRS_OUT" 2>/dev/null
grep -q '"id":"cr-s1".*"sessions_recovered":1' "$CRS_OUT"
# One analysed program is one store entry: its module, Γ and plan are
# written together, and the replay's re-persist replaces that entry.
grep -q '"id":"cr-s1".*"disk_entries":1[,}]' "$CRS_OUT"
grep -q '"id":"cr-q1".*"plan_digest"' "$CRS_OUT"
grep -q '"id":"cr-u1".*"maybe_undef"' "$CRS_OUT"
if grep -q '"ok":false' "$CRS_OUT"; then
    echo "error: crash smoke: recovered session produced a failed response" >&2
    cat "$CRS_OUT" >&2
    exit 1
fi
rm -rf "$CRS_DIR" "$CRS_OUT"

echo "==> demand smoke"
# Demand-driven query gate (DESIGN.md §13): the demand-divergence fuzz
# mode must classify clean (a fresh query engine over each run's VFG,
# asked about every check and checked operand, completes every unlimited
# query with the exhaustive gamma's verdict, and the run's plan survives
# the oracle); a served session must answer point queries, memoize
# repeats, and invalidate the memo on edit (epoch bump); and structured
# errors must carry machine-readable kinds.
./target/release/usher fuzz --smoke --fault demand-diverge
DMD_OUT=$(mktemp)
printf '%s\n' \
  '{"op":"analyze","source":"def risky(int c) -> int {\n    int x;\n    if (c) { x = 1; }\n    if (x) { return 1; }\n    return 0;\n}\ndef main(int c) {\n    print(risky(c));\n}","id":"ci-d1"}' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-d2"}' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-d3"}' \
  '{"op":"edit","session":1,"func":"risky","body":"def risky(int c) -> int {\n    int x;\n    if (c) { x = 2; }\n    if (x) { return 1; }\n    return 0;\n}","id":"ci-d4"}' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-d5"}' \
  '{"op":"stats","id":"ci-d6"}' \
  '{"op":"shutdown","id":"ci-d7"}' \
  | ./target/release/usher serve > "$DMD_OUT" 2>/dev/null
grep -q '"id":"ci-d2".*"memo_hit":false' "$DMD_OUT"
grep -q '"id":"ci-d2".*"epoch":0' "$DMD_OUT"
grep -q '"id":"ci-d3".*"memo_hit":true' "$DMD_OUT"
grep -q '"id":"ci-d3".*"nodes_visited":0' "$DMD_OUT"
grep -q '"id":"ci-d5".*"memo_hit":false' "$DMD_OUT"
grep -q '"id":"ci-d5".*"epoch":1' "$DMD_OUT"
grep -q '"id":"ci-d6".*"demand_queries":3' "$DMD_OUT"
if grep -q '"ok":false' "$DMD_OUT"; then
    echo "error: demand smoke produced a failed response" >&2
    cat "$DMD_OUT" >&2
    exit 1
fi
# Error probes ride a separate serve process: these responses are
# *expected* to fail, with recorded machine-readable reasons.
printf '%s\n' \
  '{"op":"query-use","session":1,"check":0,"id":"ci-x1"}' \
  '{"op":"analyze","source":"def main(int c) {\n    int x;\n    if (c) { x = 1; }\n    print(x);\n}","id":"ci-x2"}' \
  '{"op":"query-use","session":1,"check":9999,"id":"ci-x3"}' \
  '{"op":"shutdown","id":"ci-x4"}' \
  | ./target/release/usher serve > "$DMD_OUT" 2>/dev/null
grep -q '"error_kind":"unknown-session".*"id":"ci-x1"' "$DMD_OUT"
grep -q '"error_kind":"bad-check-index".*"id":"ci-x3"' "$DMD_OUT"
rm -f "$DMD_OUT"

echo "==> perf gates"
# Timing regression gates (tests/perf_gates.rs), ignored in debug builds
# and run here in release: the prefilter pointer solve and the condensed
# VFG build + resolve must not be slower than their frozen references, a
# cold demand query must stay a small fraction of a cold resolve, and
# incremental serve edits must beat a cold analyze (1.5x on gen-37; on
# gen-131, 40x for constant swaps and 4x for operator swaps, which
# rebuild the value flow), and a warm re-open of gen-131 must beat a
# cold analyze by 8x. Each gate
# prints `gate <name>: measured <x>, bound <y>`, so this log records the
# margins. The step fails unless the summary reports `0 ignored`: a
# release run must never skip a gate.
GATES_OUT=$(mktemp)
cargo test --release --offline --test perf_gates -- --test-threads=1 --nocapture | tee "$GATES_OUT"
if ! grep -q '^test result: ok\..* 0 ignored' "$GATES_OUT"; then
    echo "error: perf gates did not all run in the release build" >&2
    exit 1
fi
rm -f "$GATES_OUT"

echo "==> CI OK"
# For information only, not a gate.
echo "non-test Rust lines: $(./scripts/loc.sh)"
