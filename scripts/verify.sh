#!/usr/bin/env sh
# Full offline verification gate: formatting, lints, build, tests.
#
# The workspace has no external dependencies, so everything runs with
# --offline against an empty cargo registry. Any warning is an error.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> traced experiment end-to-end (events.jsonl + windows.csv + manifest.json)"
TRACE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/cwp-verify-trace.XXXXXX")
KILL_DIR=$(mktemp -d "${TMPDIR:-/tmp}/cwp-verify-kill.XXXXXX")
trap 'rm -rf "$TRACE_DIR" "$KILL_DIR"' EXIT
cargo run -q --release --offline -p cwp-core --bin figures -- \
    --scale test --quiet --trace "$TRACE_DIR" fig01 fig13 > /dev/null
cargo run -q --release --offline -p cwp-obs --bin validate_trace -- "$TRACE_DIR" \
    | tail -n 1

echo "==> kill-and-resume smoke (checkpoint journal survives SIGKILL)"
FIGURES=target/release/figures
SMOKE_IDS="table1 fig01 fig02 fig10"
# shellcheck disable=SC2086
"$FIGURES" --scale test --jobs 1 --quiet $SMOKE_IDS > "$KILL_DIR/expected.md"
# shellcheck disable=SC2086
CWP_JOB_DELAY_MS=300 "$FIGURES" --scale test --jobs 1 --quiet \
    --trace "$KILL_DIR/trace" $SMOKE_IDS > /dev/null 2>&1 &
VICTIM=$!
# Wait for at least one journaled success, then SIGKILL mid-grid.
TRIES=0
until grep -q '"outcome":"ok"' "$KILL_DIR/trace/checkpoint.jsonl" 2>/dev/null; do
    TRIES=$((TRIES + 1))
    if [ "$TRIES" -gt 1200 ]; then
        echo "verify: victim run made no journal progress" >&2
        kill -9 "$VICTIM" 2>/dev/null || true
        exit 1
    fi
    if ! kill -0 "$VICTIM" 2>/dev/null; then
        break # grid finished before the kill; resume degenerates to replay
    fi
    sleep 0.1
done
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
# shellcheck disable=SC2086
"$FIGURES" --scale test --jobs 1 --quiet --resume "$KILL_DIR/trace" $SMOKE_IDS \
    > "$KILL_DIR/resumed.md"
cmp "$KILL_DIR/expected.md" "$KILL_DIR/resumed.md" \
    || { echo "verify: resumed tables differ from uninterrupted run" >&2; exit 1; }
cargo run -q --release --offline -p cwp-obs --bin validate_trace -- "$KILL_DIR/trace" \
    | tail -n 1

echo "==> replay-equivalence smoke (trace store vs live regeneration)"
REPLAY_DIR=$(mktemp -d "${TMPDIR:-/tmp}/cwp-verify-replay.XXXXXX")
trap 'rm -rf "$TRACE_DIR" "$KILL_DIR" "$REPLAY_DIR"' EXIT
# fig10 sweeps; the others drive pipelines, buffers and stacked caches
# straight from the stored trace (Lab::drive, Lab::write_stream).
REPLAY_IDS="fig03 fig04 fig05 fig10 table2 table3 ext_burst ext_alloc ext_l2"
# shellcheck disable=SC2086
"$FIGURES" --scale test --jobs 1 --quiet $REPLAY_IDS > "$REPLAY_DIR/all.md"
# shellcheck disable=SC2086
"$FIGURES" --scale test --jobs 1 --quiet --no-trace-store $REPLAY_IDS > "$REPLAY_DIR/live.md"
cmp "$REPLAY_DIR/all.md" "$REPLAY_DIR/live.md" \
    || { echo "verify: replayed tables differ from live regeneration" >&2; exit 1; }
# Saved traces must reload and reproduce the same tables byte-for-byte.
"$FIGURES" --scale test --jobs 1 --quiet fig10 > "$REPLAY_DIR/replayed.md"
"$FIGURES" --scale test --jobs 1 --quiet --save-traces "$REPLAY_DIR/traces" fig10 > /dev/null
"$FIGURES" --scale test --jobs 1 --quiet --load-traces "$REPLAY_DIR/traces" fig10 \
    > "$REPLAY_DIR/loaded.md"
cmp "$REPLAY_DIR/replayed.md" "$REPLAY_DIR/loaded.md" \
    || { echo "verify: fig10 from loaded traces differs" >&2; exit 1; }

echo "==> differential fuzz smoke (engine vs naive model, all policy combos)"
FUZZ=target/release/cwp-fuzz
FUZZ_DIR=$(mktemp -d "${TMPDIR:-/tmp}/cwp-verify-fuzz.XXXXXX")
trap 'rm -rf "$TRACE_DIR" "$KILL_DIR" "$REPLAY_DIR" "$FUZZ_DIR"' EXIT
# Fixed seed, >=200 cases: covers all six policy combinations and every
# stream shape (six workload windows, pure-random, strided). Exits
# nonzero on any divergence, leaving the shrunk repro in $FUZZ_DIR.
"$FUZZ" --seed 1 --cases 240 --out "$FUZZ_DIR" \
    || { echo "verify: cwp-fuzz found a divergence (repros in $FUZZ_DIR)" >&2; exit 1; }
# The committed repro corpus must replay clean forever.
"$FUZZ" --replay tests/repros \
    || { echo "verify: committed repro corpus diverges" >&2; exit 1; }
# The shrinker must still reduce a planted model bug to a tiny case.
"$FUZZ" --shrink-demo --out "$FUZZ_DIR" \
    || { echo "verify: shrink-demo failed" >&2; exit 1; }

echo "==> audited figures are byte-identical (invariant auditor observes, never steers)"
# Plain runs settle fault-free cells on the data-free engine; audited
# runs use the data-carrying one, so this is also a differential check.
AUDIT_IDS="table1 fig01 fig02 fig08 fig10 fig13 ext_assoc ext_bytes ext_fault"
# shellcheck disable=SC2086
"$FIGURES" --scale test --jobs 1 --quiet $AUDIT_IDS > "$FUZZ_DIR/plain.md"
# shellcheck disable=SC2086
"$FIGURES" --scale test --jobs 1 --quiet --audit $AUDIT_IDS > "$FUZZ_DIR/audited.md"
cmp "$FUZZ_DIR/plain.md" "$FUZZ_DIR/audited.md" \
    || { echo "verify: --audit changed the output of: $AUDIT_IDS" >&2; exit 1; }

echo "==> golden quick-scale figures (results/figures_quick.md)"
"$FIGURES" --scale quick --quiet all > "$FUZZ_DIR/quick.md"
cmp results/figures_quick.md "$FUZZ_DIR/quick.md" \
    || { diff results/figures_quick.md "$FUZZ_DIR/quick.md" | head -n 20 >&2; \
         echo "verify: figures --scale quick all differs from results/figures_quick.md" >&2; exit 1; }

echo "==> golden paper-scale figures (results/figures_paper.md; ~1 min on 2 cores)"
"$FIGURES" --scale paper --quiet all > "$FUZZ_DIR/paper.md"
cmp results/figures_paper.md "$FUZZ_DIR/paper.md" \
    || { diff results/figures_paper.md "$FUZZ_DIR/paper.md" | head -n 20 >&2; \
         echo "verify: figures --scale paper all differs from results/figures_paper.md" >&2; exit 1; }

echo "==> cwp-serve load + chaos gate (admission, panics, kill-and-resume, warm rps)"
SERVE=target/release/cwp-serve
LOAD=target/release/cwp-load
TOP=target/release/cwp-top
SERVE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/cwp-verify-serve.XXXXXX")
trap 'rm -rf "$TRACE_DIR" "$KILL_DIR" "$REPLAY_DIR" "$FUZZ_DIR" "$SERVE_DIR"; \
     kill "$SERVE_PID" 2>/dev/null || true' EXIT
SERVE_PID=""
start_serve() {
    # $@: extra server flags; a repeated flag overrides the default
    # given here. Sets SERVE_PID and SERVE_ADDR.
    "$SERVE" --scale test --addr 127.0.0.1:0 --memo-dir "$SERVE_DIR/memo" \
        "$@" > "$SERVE_DIR/serve.out" 2> "$SERVE_DIR/serve.err" &
    SERVE_PID=$!
    TRIES=0
    until grep -q '^LISTENING ' "$SERVE_DIR/serve.out" 2>/dev/null; do
        TRIES=$((TRIES + 1))
        [ "$TRIES" -gt 100 ] && { echo "verify: cwp-serve never listened" >&2; exit 1; }
        sleep 0.1
    done
    SERVE_ADDR=$(sed -n 's/^LISTENING //p' "$SERVE_DIR/serve.out" | head -n 1)
}
# 1k+ requests with duplicates and 1-in-16 injected worker panics: the
# load generator exits nonzero on any lost response, unexpected failure,
# or result-digest divergence.
start_serve --workers 4 --fault-one-in 16 --max-attempts 4 --seed 7 \
    --metrics-file "$SERVE_DIR/metrics.json" --metrics-period-ms 100
"$LOAD" --addr "$SERVE_ADDR" --requests 1200 --clients 4 --warmup \
    --out results/BENCH_serve.json > /dev/null &
LOAD_PID=$!
# Mid-load: metrics requests bypass admission, so a snapshot must come
# back even while the server is saturated with the bench traffic.
"$TOP" --addr "$SERVE_ADDR" --raw > "$SERVE_DIR/midload.json" \
    || { echo "verify: metrics request failed mid-load" >&2; exit 1; }
grep -q '"counters"' "$SERVE_DIR/midload.json" \
    || { echo "verify: mid-load metrics snapshot malformed" >&2; exit 1; }
wait "$LOAD_PID" \
    || { echo "verify: cwp-load run failed against faulty server" >&2; exit 1; }
# Post-load: every response has been drained, so the server's counters
# must reconcile exactly with the load generator's own accounting.
"$TOP" --addr "$SERVE_ADDR" --raw > "$SERVE_DIR/final.json" \
    || { echo "verify: metrics request failed post-load" >&2; exit 1; }
num() { sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" "$1" | head -n 1; }
M_ADMITTED=$(num "$SERVE_DIR/final.json" admitted)
M_SERVED=$(num "$SERVE_DIR/final.json" served)
M_SHED=$(num "$SERVE_DIR/final.json" shed)
M_FAILED=$(num "$SERVE_DIR/final.json" failed)
M_DEADLINE=$(num "$SERVE_DIR/final.json" deadline_expired)
L_OK=$(sed -n 's/.*"ok":\([0-9]*\).*/\1/p' results/BENCH_serve.json | head -n 1)
L_SHED=$(num results/BENCH_serve.json shed_retries)
L_FAILED=$(num results/BENCH_serve.json failed)
L_DEADLINE=$(num results/BENCH_serve.json deadline_exceeded)
L_WARMUP=$(num results/BENCH_serve.json warmup_requests)
[ "${M_SERVED:-0}" -eq "$((L_OK + L_WARMUP))" ] \
    || { echo "verify: served $M_SERVED != load ok $L_OK + warmup $L_WARMUP" >&2; exit 1; }
[ "${M_SHED:-0}" -eq "${L_SHED:-1}" ] \
    || { echo "verify: shed counter $M_SHED != load shed_retries $L_SHED" >&2; exit 1; }
SENT=$((L_OK + L_WARMUP + L_SHED + L_FAILED + L_DEADLINE))
[ "$((M_ADMITTED + M_SHED))" -eq "$SENT" ] \
    || { echo "verify: admitted $M_ADMITTED + shed $M_SHED != $SENT sent" >&2; exit 1; }
[ "$M_ADMITTED" -eq "$((M_SERVED + M_FAILED + M_DEADLINE))" ] \
    || { echo "verify: admitted $M_ADMITTED != served+failed+deadline" >&2; exit 1; }
# The periodic snapshot file must appear (first write lands one
# --metrics-period-ms after startup) and hold the same shape.
TRIES=0
until grep -q '"counters"' "$SERVE_DIR/metrics.json" 2>/dev/null; do
    TRIES=$((TRIES + 1))
    [ "$TRIES" -gt 50 ] \
        && { echo "verify: --metrics-file snapshot missing or malformed" >&2; exit 1; }
    sleep 0.1
done
# Kill-and-resume: SIGKILL the warm server, restart on the same memo
# dir, and demand the whole grid comes back memoized and consistent.
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
start_serve --workers 4 --seed 7
"$LOAD" --addr "$SERVE_ADDR" --requests 600 --clients 2 \
    > "$SERVE_DIR/resumed.json" \
    || { echo "verify: cwp-load failed after kill-and-resume" >&2; exit 1; }
grep -q '"degraded":0' "$SERVE_DIR/resumed.json" \
    || { echo "verify: resumed serve run degraded unexpectedly" >&2; exit 1; }
RESUMED_HITS=$(sed -n 's/.*"memo_hits":\([0-9]*\).*/\1/p' "$SERVE_DIR/resumed.json")
[ "${RESUMED_HITS:-0}" -gt 0 ] \
    || { echo "verify: restarted server resumed cold (no memo hits)" >&2; exit 1; }
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
# Warm-path throughput regression gate: the benched run must clear
# 10k requests/s (release build, all-memoized sweep points), and its
# p99 latency must stay under a generous 250ms ceiling.
RPS=$(sed -n 's/.*"requests_per_second":\([0-9]*\)[.,}].*/\1/p' results/BENCH_serve.json)
[ "${RPS:-0}" -ge 10000 ] \
    || { echo "verify: warm serve throughput ${RPS:-0} rps below the 10k floor" >&2; exit 1; }
P99=$(sed -n 's/.*"p99_us":\([0-9]*\).*/\1/p' results/BENCH_serve.json | head -n 1)
[ -n "${P99:-}" ] \
    || { echo "verify: BENCH_serve.json is missing p99_us" >&2; exit 1; }
[ "$P99" -le 250000 ] \
    || { echo "verify: bench p99 ${P99}us above the 250ms ceiling" >&2; exit 1; }
# The same floor at quick scale, where each recording holds ~1M refs:
# a warm hit that rescanned its trace to hash it would pay ~17 ms here,
# which the tiny test-scale traces above cannot show.
start_serve --scale quick --memo-dir "$SERVE_DIR/memo-quick" --workers 2 --threads 2
"$LOAD" --addr "$SERVE_ADDR" --requests 3000 --clients 2 --warmup \
    > "$SERVE_DIR/quick-warm.json" \
    || { echo "verify: cwp-load failed against the quick-scale server" >&2; exit 1; }
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
QUICK_RPS=$(sed -n 's/.*"requests_per_second":\([0-9]*\)[.,}].*/\1/p' "$SERVE_DIR/quick-warm.json")
[ "${QUICK_RPS:-0}" -ge 10000 ] \
    || { echo "verify: quick-scale warm throughput ${QUICK_RPS:-0} rps below the 10k floor" >&2; exit 1; }
echo "verify: warm rps $RPS at test scale, $QUICK_RPS at quick scale (floor 10000)"

echo "==> crash-point explorer (every durable artifact, fixed seed)"
# Records each component's real write history, crashes it at every write
# boundary (torn-prefix states included), restarts it, and asserts the
# documented recovery contract. 805471 == 0xC4A5F, the seed the
# exhaustive tests in tests/crash_points.rs pin as well.
CRASH=target/release/cwp-crash
"$CRASH" --seed 805471 > "$SERVE_DIR/crash.jsonl" \
    || { echo "verify: cwp-crash found a recovery-contract violation" >&2; exit 1; }
[ "$(grep -c '"skipped":0' "$SERVE_DIR/crash.jsonl")" -eq 4 ] \
    || { echo "verify: crash exploration was not exhaustive" >&2; exit 1; }

echo "==> graceful drain smoke (SIGTERM mid-load: exit 0 + drain summary)"
start_serve --workers 2
"$LOAD" --addr "$SERVE_ADDR" --requests 400 --clients 2 --quiet \
    > /dev/null 2>&1 &
LOAD_PID=$!
sleep 0.3
kill -TERM "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" \
    || { echo "verify: SIGTERMed server did not exit 0" >&2; exit 1; }
grep -q 'drained (completed' "$SERVE_DIR/serve.err" \
    || { echo "verify: drained server printed no drain summary" >&2; exit 1; }
# The load generator may have lost its server mid-run; its exit status
# is not part of this gate.
wait "$LOAD_PID" 2>/dev/null || true
SERVE_PID=""
# Everything the drained server acknowledged must come back memoized.
start_serve --workers 2
"$LOAD" --addr "$SERVE_ADDR" --requests 200 --clients 1 \
    > "$SERVE_DIR/post-drain.json" \
    || { echo "verify: cwp-load failed after a graceful drain" >&2; exit 1; }
POST_DRAIN_HITS=$(sed -n 's/.*"memo_hits":\([0-9]*\).*/\1/p' "$SERVE_DIR/post-drain.json")
[ "${POST_DRAIN_HITS:-0}" -gt 0 ] \
    || { echo "verify: post-drain server resumed cold (no memo hits)" >&2; exit 1; }
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "==> network chaos gate (ChaosStream on both wire ends: exactly-once settlement)"
# The server wraps every accepted connection in a seeded fault-injecting
# stream (short reads/writes, 2ms stalls); the load generator injects its
# own faults *plus* hard connection resets and retries with stable
# req_keys. The gate demands: the run survives, not one request settles
# twice (zero duplicate responses, zero digest divergence), the chaos
# actually fired (nonzero injections and resets, so resends landed as
# dedup replays), and the engine's own ledger reconciles exactly.
start_serve --workers 4 --seed 7 \
    --net-chaos-ppm 20000 --net-chaos-seed 11 --slow-line-ms 5000
"$LOAD" --addr "$SERVE_ADDR" --requests 1000 --clients 4 --chaos-seed 99 \
    > "$SERVE_DIR/chaos.json" \
    || { echo "verify: chaos load run failed (lost/duplicated/diverged response)" >&2; exit 1; }
grep -q '"duplicate_responses":0' "$SERVE_DIR/chaos.json" \
    || { echo "verify: chaos run saw duplicate settlements" >&2; exit 1; }
grep -q '"digest_mismatches":0' "$SERVE_DIR/chaos.json" \
    || { echo "verify: chaos run saw digest divergence" >&2; exit 1; }
C_INJECTED=$(num "$SERVE_DIR/chaos.json" injected)
[ "${C_INJECTED:-0}" -gt 0 ] \
    || { echo "verify: chaos gate injected no faults — the seam is dead" >&2; exit 1; }
C_RESETS=$(num "$SERVE_DIR/chaos.json" resets)
[ "${C_RESETS:-0}" -gt 0 ] \
    || { echo "verify: chaos gate injected no connection resets" >&2; exit 1; }
C_DEDUP=$(num "$SERVE_DIR/chaos.json" dedup)
[ "${C_DEDUP:-0}" -gt 0 ] \
    || { echo "verify: resets fired but no resend landed as a dedup replay" >&2; exit 1; }
# The final snapshot rides a chaos-wrapped connection too; retry until
# one survives, then demand exact settlement balance.
TRIES=0
until "$TOP" --addr "$SERVE_ADDR" --raw > "$SERVE_DIR/chaos-final.json" 2>/dev/null \
      && grep -q '"counters"' "$SERVE_DIR/chaos-final.json"; do
    TRIES=$((TRIES + 1))
    [ "$TRIES" -gt 50 ] \
        && { echo "verify: no metrics snapshot survived the chaos seam" >&2; exit 1; }
    sleep 0.1
done
C_ADMITTED=$(num "$SERVE_DIR/chaos-final.json" admitted)
C_SERVED=$(num "$SERVE_DIR/chaos-final.json" served)
C_FAILED=$(num "$SERVE_DIR/chaos-final.json" failed)
C_DEADLINE=$(num "$SERVE_DIR/chaos-final.json" deadline_expired)
[ "${C_ADMITTED:-0}" -eq "$((C_SERVED + C_FAILED + C_DEADLINE))" ] \
    || { echo "verify: chaos run ledger imbalance: admitted $C_ADMITTED != served $C_SERVED + failed $C_FAILED + deadline $C_DEADLINE" >&2; exit 1; }
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "==> hostile-wire fuzz (seeded byte streams through the real framing pump)"
WIREFUZZ=target/release/cwp-wirefuzz
"$WIREFUZZ" --seed 1 --cases 120 --out "$SERVE_DIR/wire-repros" \
    || { echo "verify: cwp-wirefuzz found a wire violation (repros in $SERVE_DIR/wire-repros)" >&2; exit 1; }
"$WIREFUZZ" --replay tests/repros-wire \
    || { echo "verify: committed wire repro corpus regressed" >&2; exit 1; }

echo "==> parallel sweep perf gate (sharded suite vs committed baseline)"
CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
# A baseline only says something about a host of the same shape: the
# gate runs only when the committed report's core count equals ours.
BASE_CORES=$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' results/BENCH_parallel.json | head -n 1)
if [ "${CORES:-1}" -lt 2 ]; then
    echo "verify: $CORES core(s) — skipping the sharded perf gate (needs >=2)"
elif [ "${BASE_CORES:-0}" -ne "${CORES:-1}" ]; then
    echo "verify: results/BENCH_parallel.json was recorded on ${BASE_CORES:-unknown} core(s)," \
        "this host has $CORES — skipping the sharded perf gate (re-record the baseline here to gate)"
else
    # The gate compares the sharded/serial wall-clock ratio, not absolute
    # seconds, so it holds across machines of different speeds. One run
    # on a shared host spreads wider than the 20% margin, so the gate
    # takes the median of three.
    ratio() { sed -n 's/.*"suite_sharded_ratio": \([0-9.]*\).*/\1/p' "$1" | head -n 1; }
    RATIOS=""
    for RUN in 1 2 3; do
        CWP_BENCH_MS=300 CWP_BENCH_JSON="$SERVE_DIR/parallel-$RUN.json" \
            cargo bench -q --offline -p cwp-bench --bench parallel > /dev/null \
            || { echo "verify: parallel bench failed (sharded divergence?)" >&2; exit 1; }
        RUN_RATIO=$(ratio "$SERVE_DIR/parallel-$RUN.json")
        [ -n "${RUN_RATIO:-}" ] \
            || { echo "verify: parallel bench report is missing suite_sharded_ratio" >&2; exit 1; }
        RATIOS="$RATIOS $RUN_RATIO"
    done
    BASE_RATIO=$(ratio results/BENCH_parallel.json)
    # shellcheck disable=SC2086
    CUR_RATIO=$(printf '%s\n' $RATIOS | sort -n | sed -n 2p)
    [ -n "${BASE_RATIO:-}" ] \
        || { echo "verify: results/BENCH_parallel.json is missing suite_sharded_ratio" >&2; exit 1; }
    awk -v cur="$CUR_RATIO" -v base="$BASE_RATIO" 'BEGIN { exit !(cur <= base * 1.2) }' \
        || { echo "verify: median sharded suite ratio $CUR_RATIO (runs:$RATIOS) regressed >20% vs committed baseline $BASE_RATIO" >&2; exit 1; }
    echo "verify: median sharded/serial ratio $CUR_RATIO (runs:$RATIOS, baseline $BASE_RATIO) within 20%"
fi

echo "verify: OK"
