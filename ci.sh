#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Mirrors what the acceptance
# checks run, plus formatting and lints.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q --workspace

echo "== prof: figure6 smoke vs golden snapshot =="
PROF_TMP="$(mktemp -d)"
trap 'rm -rf "$PROF_TMP"' EXIT
cargo run -q --release -p dgc-bench --bin figure6 -- \
    --smoke --thread-limit 32 --metrics-out "$PROF_TMP/smoke_tl32.jsonl" > /dev/null
cargo run -q --release -p dgc-prof --bin prof-diff -- \
    results/smoke_tl32.jsonl "$PROF_TMP/smoke_tl32.jsonl" --tolerance 0.02
# The simulation is deterministic: the snapshot regenerates byte for byte.
cmp results/smoke_tl32.jsonl "$PROF_TMP/smoke_tl32.jsonl"

echo "== figure6: full reproduction vs golden =="
# Both Fig. 6 panels at every instance count, not just the smoke subset:
# the output must equal the checked-in reproduction byte for byte.
cargo run -q --release -p dgc-bench --bin figure6 > "$PROF_TMP/figure6.txt"
cmp results/figure6.txt "$PROF_TMP/figure6.txt"

echo "== prof: chrome trace export validates =="
printf -- '-l 60 -g 16\n-l 60 -g 16\n' > "$PROF_TMP/args.txt"
cargo run -q --release -p ensemble-cli -- xsbench -f "$PROF_TMP/args.txt" \
    -n 4 -t 32 --cycle-args --quiet --trace-out "$PROF_TMP/trace.json" \
    --metrics-out "$PROF_TMP/metrics.jsonl" > /dev/null
cargo run -q --release -p dgc-prof --bin trace-check -- "$PROF_TMP/trace.json"

echo "== fault: injected OOM recovery vs golden snapshot =="
# Page-Rank-shaped memory wall: the checked-in plan forces device OOM at
# concurrency >= 5, so the round loop must split 8 -> 4 and recover
# every instance — a non-zero exit here means recovery regressed.
printf -- '-v 400 -d 4 -i 2\n' > "$PROF_TMP/pr_args.txt"
# --no-mem-aware pins the legacy OOM-then-halve path this golden was
# recorded on; the memory-aware alternative is gated separately below.
cargo run -q --release -p ensemble-cli -- pagerank -f "$PROF_TMP/pr_args.txt" \
    -n 8 -t 32 --cycle-args --quiet --faults results/fault_plan.json --auto-batch --max-attempts 4 \
    --no-mem-aware --metrics-out "$PROF_TMP/smoke_faults.jsonl" > /dev/null
cargo run -q --release -p dgc-prof --bin prof-diff -- \
    results/smoke_faults.jsonl "$PROF_TMP/smoke_faults.jsonl" --tolerance 0.02
cmp results/smoke_faults.jsonl "$PROF_TMP/smoke_faults.jsonl"

echo "== mem: memory-aware packing vs OOM-then-halve =="
# Six paper-scale PageRank instances on one 40 GB A100: four fit. The
# legacy path discovers that by OOM-ing (split 6 -> 3, two recoveries);
# the memory-aware path measures peaks in pilot runs and packs 4+2 up
# front — same instances, zero OOMs, one attempt.
printf -- '-v 200 -i 1\n' > "$PROF_TMP/mem_args.txt"
cargo run -q --release -p ensemble-cli -- pagerank -f "$PROF_TMP/mem_args.txt" \
    -n 6 -t 32 --cycle-args --auto-batch --max-attempts 4 --no-mem-aware --quiet \
    --metrics-out "$PROF_TMP/mem_legacy.jsonl" > /dev/null
grep -q '"oom_splits":1' "$PROF_TMP/mem_legacy.jsonl"
grep -q '"recovered":2' "$PROF_TMP/mem_legacy.jsonl"
cargo run -q --release -p ensemble-cli -- pagerank -f "$PROF_TMP/mem_args.txt" \
    -n 6 -t 32 --cycle-args --auto-batch --max-attempts 4 --quiet \
    --metrics-out "$PROF_TMP/smoke_mem.jsonl" > /dev/null
grep -q '"oom_splits":0' "$PROF_TMP/smoke_mem.jsonl"
grep -q '"oom":0' "$PROF_TMP/smoke_mem.jsonl"
grep -q '"attempts":1' "$PROF_TMP/smoke_mem.jsonl"
# Packing must beat halving end to end, not just avoid the OOMs.
legacy_t=$(grep '"record":"launch"' "$PROF_TMP/mem_legacy.jsonl" | grep -o '"total_time_s":[0-9.e-]*' | cut -d: -f2)
mem_t=$(grep '"record":"launch"' "$PROF_TMP/smoke_mem.jsonl" | grep -o '"total_time_s":[0-9.e-]*' | cut -d: -f2)
awk -v mem="$mem_t" -v legacy="$legacy_t" 'BEGIN { exit !(mem + 0 < legacy + 0) }'
cargo run -q --release -p dgc-prof --bin prof-diff -- \
    results/smoke_mem.jsonl "$PROF_TMP/smoke_mem.jsonl" --tolerance 0.02
cmp results/smoke_mem.jsonl "$PROF_TMP/smoke_mem.jsonl"

echo "== sched: multi-device smoke sweep vs golden snapshot =="
# Two-device heterogeneous fleet (a100 + half-derated a100): every
# workload x instance count x placement policy, gated on makespan. A
# regression here means the cost model or a placement policy drifted.
cargo run -q --release -p dgc-bench --bin sched_sweep -- \
    --smoke --metrics-out "$PROF_TMP/smoke_sched.jsonl" > /dev/null
cargo run -q --release -p dgc-prof --bin prof-diff -- \
    results/smoke_sched.jsonl "$PROF_TMP/smoke_sched.jsonl" --tolerance 0.02
cmp results/smoke_sched.jsonl "$PROF_TMP/smoke_sched.jsonl"

echo "== bench: perf trajectory vs golden snapshot =="
# Self-benchmark: wall-clock the pinned figure-6 smoke sweep and a
# sharded two-device run, refresh BENCH_ensemble.json at the repo root,
# and gate against the golden. Simulated cycles and instance counts are
# deterministic (tight tolerance); wall time only fails on a
# catastrophic (>= 10x) slowdown, since CI machines are noisy.
cargo run -q --release -p dgc-bench --bin bench_harness -- \
    --out BENCH_ensemble.json --golden results/bench_golden.json \
    --tolerance 0.05 --wall-factor 10

echo "== insight: ledger trend gate + critical-path/flamegraph smoke =="
# Append the fresh bench run to a working copy of the checked-in ledger
# (CI must not dirty the tree), render the trend report, and gate the
# new rates against the trailing median. Wall-clock rates are noisy
# across machines, so the tolerance is loose — the gate exists to catch
# collapses, not jitter.
cp results/ledger.jsonl "$PROF_TMP/ledger.jsonl"
cargo run -q --release -p dgc-insight --bin dgc-insight -- append \
    --bench BENCH_ensemble.json --ledger "$PROF_TMP/ledger.jsonl"
cargo run -q --release -p dgc-insight --bin dgc-insight -- report \
    --ledger "$PROF_TMP/ledger.jsonl" --out "$PROF_TMP/ledger_report.md"
test -s "$PROF_TMP/ledger_report.md"
cargo run -q --release -p dgc-insight --bin dgc-insight -- check \
    --ledger "$PROF_TMP/ledger.jsonl" --tolerance 0.8
# Critical-path report + flamegraph from a figure-6-shaped run: the
# report must certify the bit-exact makespan replay, and the folded
# stacks must pass the format check.
cargo run -q --release -p ensemble-cli -- xsbench -f "$PROF_TMP/args.txt" \
    -n 4 -t 32 --cycle-args --quiet \
    --insight-out "$PROF_TMP/insight.md" --flame-out "$PROF_TMP/flame.folded" > /dev/null
grep -q "reproduces it bit-exactly" "$PROF_TMP/insight.md"
cargo run -q --release -p dgc-insight --bin dgc-insight -- flame-check "$PROF_TMP/flame.folded"

echo "== monitor: OpenMetrics lint + SLO burn-rate gate + dashboard =="
# Figure-6 smoke sweep streaming live OpenMetrics snapshots from the
# background monitor thread. The log must lint under the strict
# re-parser (render(parse(x)) == x) and satisfy the checked-in SLO spec.
cargo run -q --release -p dgc-bench --bin figure6 -- \
    --smoke --thread-limit 32 --monitor-out "$PROF_TMP/snapshots.om" \
    --monitor-interval 200 > /dev/null
cargo run -q --release -p dgc-monitor --bin dgc-monitor -- \
    lint "$PROF_TMP/snapshots.om"
cargo run -q --release -p dgc-monitor --bin dgc-monitor -- slo \
    --spec results/slo_smoke.json --snapshots "$PROF_TMP/snapshots.om" \
    --json "$PROF_TMP/slo_verdict.json"
grep -q '"verdict": "ok"' "$PROF_TMP/slo_verdict.json"
# Exit-code contract (prof-diff convention): a breaching spec must exit
# 1 and a malformed spec must exit 2 — not crash, not pass.
printf '%s\n' '{ "schema": 1, "slos": [ { "name": "impossible", "target": 1.0, "objective": "dgc_kernel_launches_total < 0" } ] }' \
    > "$PROF_TMP/slo_breach.json"
set +e
cargo run -q --release -p dgc-monitor --bin dgc-monitor -- slo \
    --spec "$PROF_TMP/slo_breach.json" --snapshots "$PROF_TMP/snapshots.om" > /dev/null
breach_code=$?
echo '{ not json' > "$PROF_TMP/slo_bad.json"
cargo run -q --release -p dgc-monitor --bin dgc-monitor -- slo \
    --spec "$PROF_TMP/slo_bad.json" --snapshots "$PROF_TMP/snapshots.om" > /dev/null 2>&1
bad_code=$?
set -e
test "$breach_code" -eq 1
test "$bad_code" -eq 2
# Self-contained HTML dashboard: time series + SLO budget bars + blame
# rows from the earlier trace. Must render non-empty with inline SVG and
# no external references.
cargo run -q --release -p dgc-monitor --bin dgc-monitor -- render \
    --snapshots "$PROF_TMP/snapshots.om" --spec results/slo_smoke.json \
    --trace "$PROF_TMP/trace.json" --out "$PROF_TMP/dashboard.html"
test -s "$PROF_TMP/dashboard.html"
grep -q "<svg" "$PROF_TMP/dashboard.html"
! grep -q 'https://' "$PROF_TMP/dashboard.html"

echo "== serve: crash-safe daemon — journal, kill -9, resume, exit contract =="
# The serving tentpole, end to end against the release binary. The
# write-ahead journal contract: results after `run → crash → resume`
# must be byte-identical to an uninterrupted run.
SERVE="$PROF_TMP/serve"
mkdir -p "$SERVE"
# Invoke the built binary directly (not `cargo run`): the crash drills
# signal the daemon's own PID, and the cargo wrapper neither forwards
# SIGTERM nor survives SIGKILL semantics. The workspace build above
# builds only the root package, so build the binary here.
cargo build -q --release -p dgc-serve
dgc_serve() { ./target/release/dgc-serve "$@"; }
cat > "$SERVE/jobs.jsonl" <<'EOF'
# serve CI workload: two apps, small args (fast even in simulation)
{"op":"submit","job":"s1","app":"xsbench","args":"-g 500 -l 16"}
{"op":"submit","job":"s2","app":"xsbench","args":["-g","400","-l","16"]}
{"op":"submit","job":"s3","app":"amgmk","args":"-i 2 -n 16"}
{"op":"submit","job":"s4","app":"amgmk","args":"-i 3 -n 16","deadline_s":1000}
EOF
# Golden: uninterrupted run, all jobs succeed (exit 0).
dgc_serve run --journal "$SERVE/golden.journal" --jobs "$SERVE/jobs.jsonl" \
    --results "$SERVE/golden.jsonl" --quiet
# Crash drill 1 (deterministic): abort the daemon once the journal hits
# 600 bytes — lands mid-run, after real work is committed. SIGABRT=134.
set +e
dgc_serve run --journal "$SERVE/crash.journal" --jobs "$SERVE/jobs.jsonl" \
    --crash-after-journal-bytes 600 --quiet 2> /dev/null
crash_code=$?
set -e
test "$crash_code" -eq 134
dgc_serve resume --journal "$SERVE/crash.journal" --jobs "$SERVE/jobs.jsonl" \
    --results "$SERVE/crash_resumed.jsonl" --quiet
cmp "$SERVE/golden.jsonl" "$SERVE/crash_resumed.jsonl"
# Crash drill 2 (real kill -9): --wave-pause-ms holds each wave open
# after its `started` record is journaled, so SIGKILL lands mid-wave.
# If the race is lost and the run finishes first, resume is a no-op and
# the byte-identity check still must hold.
# Background drills invoke the binary directly (not the function):
# `fn &` backgrounds a subshell, so $! would name the wrapper and the
# signal would never reach the daemon's handler.
./target/release/dgc-serve run --journal "$SERVE/kill9.journal" --jobs "$SERVE/jobs.jsonl" \
    --wave-pause-ms 400 --quiet 2> /dev/null &
serve_pid=$!
sleep 0.5
kill -9 "$serve_pid" 2> /dev/null || true
wait "$serve_pid" 2> /dev/null || true
dgc_serve resume --journal "$SERVE/kill9.journal" --jobs "$SERVE/jobs.jsonl" \
    --results "$SERVE/kill9_resumed.jsonl" --quiet
cmp "$SERVE/golden.jsonl" "$SERVE/kill9_resumed.jsonl"
# Streaming admission over stdin, drained by an in-band op; the monitor
# snapshot log must lint like every other OpenMetrics producer.
printf '%s\n' \
    '{"op":"submit","job":"t1","app":"xsbench","args":"-g 300 -l 16"}' \
    '{"op":"drain"}' \
    | dgc_serve run --journal "$SERVE/stdin.journal" --stdin \
        --results "$SERVE/stdin.jsonl" --monitor-out "$SERVE/serve.om" \
        --monitor-interval 50 --quiet
grep -q '"status":"ok"' "$SERVE/stdin.jsonl"
cargo run -q --release -p dgc-monitor --bin dgc-monitor -- lint "$SERVE/serve.om"
# SIGTERM = graceful drain: finish in-flight work, write results, exit 0.
: > "$SERVE/watched.jsonl"
./target/release/dgc-serve run --journal "$SERVE/drain.journal" --watch "$SERVE/watched.jsonl" \
    --results "$SERVE/drain.jsonl" --quiet &
serve_pid=$!
printf '%s\n' '{"op":"submit","job":"w1","app":"xsbench","args":"-g 300 -l 16"}' \
    >> "$SERVE/watched.jsonl"
sleep 0.8
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q '"job":"w1","app":"xsbench","status":"ok"' "$SERVE/drain.jsonl"
# Exit contract: a cancelled job degrades the run (1)…
printf '%s\n' \
    '{"op":"submit","job":"c1","app":"xsbench","args":"-g 300 -l 16"}' \
    '{"op":"cancel","job":"c1"}' > "$SERVE/cancel.jsonl"
set +e
dgc_serve run --journal "$SERVE/cancel.journal" --jobs "$SERVE/cancel.jsonl" --quiet
degraded_code=$?
set -e
test "$degraded_code" -eq 1
# …and a corrupt journal is unrecoverable (2), never silently replayed.
sed '2s/^J1 ./J1 x/' "$SERVE/golden.journal" > "$SERVE/corrupt.journal"
set +e
dgc_serve status --journal "$SERVE/corrupt.journal" 2> /dev/null
corrupt_code=$?
set -e
test "$corrupt_code" -eq 2
# `status` replays the journal read-only and always exits 0.
dgc_serve status --journal "$SERVE/golden.journal" | grep -q 'ok=4'

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "ci.sh: all green"
