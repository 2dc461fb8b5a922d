#!/usr/bin/env bash
# Full local CI: default build + tests, ASan/UBSan build + tests, TSan build
# + parallel-layer tests, observability smoke (differential suite, CLI
# --stats/--trace/--budget-*/profile), benchmark smoke run, service smoke
# (batch driver round-trip, concurrent socket clients, warm-vs-cold
# throughput gate, telemetry-overhead gate), telemetry smoke (wire trace-id
# echo, prometheus exposition, event-log JSON-lines), perf-regression gate,
# lint, and the concurrency-contract stage (clang -Wthread-safety build when
# clang is installed + tools/ecrpq_lint project rules + rule fixtures).
#
#   tools/ci.sh [jobs]
#
# Build trees: ./build (default), ./build-asan (address,undefined) and
# ./build-tsan (thread). Exits non-zero on the first failing stage.
#
# The perf gate compares the fresh bench-smoke output in build/ against the
# BENCH_*.json baselines committed at the repo root (taken from git HEAD, so
# a bench-smoke run refreshing the working-tree copies cannot gate against
# itself). Skip it with ECRPQ_SKIP_PERF_GATE=1 — e.g. on a loaded machine or
# when a deliberate perf change is about to re-baseline.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"
cd "$REPO_ROOT"

echo "== [1/13] configure + build (default) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== [2/13] ctest (default) =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== [3/13] configure + build (address,undefined) =="
cmake -B build-asan -S . -DECRPQ_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"

echo "== [4/13] ctest (address,undefined) =="
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== [5/13] TSan over the parallel layer (thread) =="
cmake -B build-tsan -S . -DECRPQ_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
# The threaded code paths: pool primitives, parallel determinism harness,
# the CSR graph layout, the engines that fan out over the pool and the
# observability layer (metrics shards, histogram recording, budget trips,
# differential suite, the span buffer under concurrent writers and
# readers, the telemetry sinks), adaptive evaluation (phase 1 runs a
# parallel search under a private session that records into the caller's
# span buffer), the cross-query caches (memoized reach rows are adopted,
# without a copy, by the CQ relations of concurrent sessions, each with
# its own indexes) and the service layer (admission controller
# under saturation, concurrent sessions vs the sequential oracle, protocol
# fuzz, request telemetry, the socket server's Serve/Stop).
# Run with a multi-worker default so the pool actually spawns threads even
# when the suite's own options ask for the hardware default. Death tests
# (BudgetInvariantsDeathTest etc.) stay out of the regex: fork-style death
# tests and TSan don't mix.
ECRPQ_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'AnnotationsTest|ThreadPool|WorkStealing|FrontierScheduler|ParallelDeterminism|GraphDb|RpqReach|StreamingTest|TupleSearch|GenericEval|Adaptive|ObsTest|ObsHistogramTest|PhaseProfileTest|DifferentialSuite|CacheDifferentialSuite|RelationTest|CacheTest|AutomatonInternerTest|ReachMemoTest|PlanCacheTest|ServiceProtocol|ServiceDifferential|ServiceAdmission|TraceTest|TelemetryRegistryTest|EventLogTest|ServiceTelemetry|SocketServer'

echo "== [6/13] observability smoke (differential suite + CLI stats/trace/profile/budget) =="
ctest --test-dir build --output-on-failure -j "$JOBS" \
  -R 'DifferentialSuite|ObsTest|ObsHistogramTest|PhaseProfileTest|BenchDiffTest|JsonTest|BudgetInvariantsDeathTest'
# (DifferentialSuite above includes CacheDifferentialSuite: cache-on with
# interleaved graph mutations vs cache-off, byte-identical answers.)
OBS_TMP="build/obs-smoke"
mkdir -p "$OBS_TMP"
{
  echo "alphabet a b"
  echo "vertices 64"
  for ((v = 0; v < 64; ++v)); do
    echo "edge $v a $(((v + 1) % 64))"
  done
} > "$OBS_TMP/graph.txt"
OBS_QUERY='q(x) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)'
# A satisfiable query: eval exits 0, writes stats (histogram summaries
# included) and a non-empty trace.
build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$OBS_QUERY" \
  --stats --trace="$OBS_TMP/trace.json" | grep -q 'stats:'
test -s "$OBS_TMP/trace.json"
build/tools/ecrpq_cli trace-check "$OBS_TMP/trace.json"
# The same query traced under load: a 4-worker pool exercises the
# concurrent span-recording path, and the exported trace must still pass
# the schema gate.
ECRPQ_THREADS=4 build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" \
  "$OBS_QUERY" --trace="$OBS_TMP/trace-mt.json" >/dev/null
build/tools/ecrpq_cli trace-check "$OBS_TMP/trace-mt.json"
# profile: the single-threaded per-phase breakdown must print its table and
# account for (nearly all of) the traced wall time — the telescoping
# invariant the command is built on. profile asks for num_threads = 1
# itself, so the gate runs once per engine under a 4-worker default: a
# route that ignored num_threads would fan out and break the telescoping.
CRPQ_QUERY='q(x, y) := x -[/a(a|b)*/]-> y'
profile_gate() {  # profile_gate <engine> <query>
  ECRPQ_THREADS=4 build/tools/ecrpq_cli profile "$OBS_TMP/graph.txt" "$2" \
    --engine="$1" > "$OBS_TMP/profile-$1.out"
  grep -q 'self-time coverage' "$OBS_TMP/profile-$1.out"
  COVERAGE=$(sed -n 's/^self-time coverage: \([0-9.]*\)%.*/\1/p' \
    "$OBS_TMP/profile-$1.out")
  if ! awk -v c="$COVERAGE" 'BEGIN { exit !(c >= 95.0 && c <= 100.5) }'; then
    echo "obs smoke: profile --engine=$1 self-time coverage out of range:" \
      "$COVERAGE%" >&2
    cat "$OBS_TMP/profile-$1.out" >&2
    exit 1
  fi
}
for engine in auto generic cq; do
  profile_gate "$engine" "$OBS_QUERY"
done
profile_gate crpq "$CRPQ_QUERY"
# Every engine prints the generic engine's answer lines (eval's output
# from "satisfiable:" on; auto and adaptive print their plan above it).
eval_answers() {  # eval_answers <engine> <query>
  build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$2" --engine="$1" \
    | sed -n '/^satisfiable:/,$p'
}
eval_answers generic "$OBS_QUERY" > "$OBS_TMP/answers-generic.out"
for engine in auto cq adaptive; do
  eval_answers "$engine" "$OBS_QUERY" | diff "$OBS_TMP/answers-generic.out" -
done
eval_answers generic "$CRPQ_QUERY" > "$OBS_TMP/answers-generic-crpq.out"
for engine in auto crpq cq adaptive; do
  eval_answers "$engine" "$CRPQ_QUERY" \
    | diff "$OBS_TMP/answers-generic-crpq.out" -
done
# A cc_vertex-3 ECRPQ whose language atom leaves 64 of the 4096 (x, y)
# pairs: auto routes it to the generic engine, whose per-tuple sweeps must
# give the cq route's answers (TupleReachAll's sweeps) at every pool size
# and with the caches bypassed.
CC3_QUERY='q(x, y) := x -[p1]-> y, x -[p2]-> z, x -[p3]-> w, eqlen(p1, p2, p3), lang(/aaa/, p1)'
ECRPQ_THREADS=1 eval_answers generic "$CC3_QUERY" \
  > "$OBS_TMP/answers-generic-cc3.out"
ECRPQ_THREADS=4 eval_answers generic "$CC3_QUERY" \
  | diff "$OBS_TMP/answers-generic-cc3.out" -
build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$CC3_QUERY" \
  --engine=generic --no-cache | sed -n '/^satisfiable:/,$p' \
  | diff "$OBS_TMP/answers-generic-cc3.out" -
eval_answers cq "$CC3_QUERY" | diff "$OBS_TMP/answers-generic-cc3.out" -
# An ECRPQ with a one-tape component (z -[/aaa/]-> w beside the eqlen
# block): auto routes it to cq-reduction/treedec, which builds that
# component as R_L through the interner and the reach memo, or without
# them under --no-cache; both must print the generic engine's answers.
ONE_TAPE_QUERY='q(x, w) := x -[p1]-> y, y -[p2]-> z, z -[/aaa/]-> w, eqlen(p1, p2)'
eval_answers generic "$ONE_TAPE_QUERY" > "$OBS_TMP/answers-generic-1tape.out"
eval_answers auto "$ONE_TAPE_QUERY" \
  | diff "$OBS_TMP/answers-generic-1tape.out" -
build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$ONE_TAPE_QUERY" \
  --no-cache | sed -n '/^satisfiable:/,$p' \
  | diff "$OBS_TMP/answers-generic-1tape.out" -
# count and eval share one bag pipeline (MaterializeBags, cq/eval_treedec.h):
# on a query whose head lists every node variable, the satisfying node
# assignments count prints are eval's answers, so the two numbers agree.
count_matches_eval() {  # count_matches_eval <engine> <query>
  COUNT=$(build/tools/ecrpq_cli count "$OBS_TMP/graph.txt" "$2" \
    | sed -n 's/^\([0-9]*\) satisfying node assignments$/\1/p')
  ANSWERS=$(build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$2" \
    --engine="$1" | sed -n 's/^\([0-9]*\) answers:$/\1/p')
  if [ -z "$COUNT" ] || [ "$COUNT" != "$ANSWERS" ]; then
    echo "obs smoke: count printed '$COUNT' assignments but eval" \
      "--engine=$1 printed '$ANSWERS' answers for $2" >&2
    exit 1
  fi
}
count_matches_eval cq 'q(x, y, z) := x -[p1]-> y, y -[p2]-> z, eqlen(p1, p2)'
count_matches_eval crpq \
  'q(x, y, z) := x -[/aa/]-> y, y -[/a*/]-> z, z -[/a/]-> x'
# A starved budget: eval must exit 3 (ResourceExhausted) and still print
# the partial stats report. --engine=cq checks the budget after every
# materialization batch, so a 1-state budget trips deterministically; so
# does --engine=crpq, whose R_L builds charge their product states.
# adaptive arms its phase-1 session with the caller's cap, far below its
# own budget, so the caller's budget trips in phase 1 and ends the
# evaluation (AdaptiveTest checks that it does not fall back).
starved_budget() {  # starved_budget <engine> <query>
  BUDGET_RC=0
  build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$2" \
    --engine="$1" --budget-states=1 --budget-mem=1 \
    > "$OBS_TMP/budget-$1.out" 2>&1 || BUDGET_RC=$?
  if [ "$BUDGET_RC" -ne 3 ]; then
    echo "obs smoke: expected exit 3 on exhausted budget with" \
      "--engine=$1, got $BUDGET_RC" >&2
    cat "$OBS_TMP/budget-$1.out" >&2
    exit 1
  fi
  grep -q 'partial stats:' "$OBS_TMP/budget-$1.out"
}
for engine in cq adaptive; do
  starved_budget "$engine" "$OBS_QUERY"
done
starved_budget crpq "$CRPQ_QUERY"
# --no-cache escape hatch: bypassing the cross-query caches must not change
# a byte of output. (Each CLI run is its own process, so this checks the
# flag plumbing and cold-path equality; warm-hit equality is covered by
# CacheDifferentialSuite above.)
build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$OBS_QUERY" \
  > "$OBS_TMP/eval-cached.out"
build/tools/ecrpq_cli eval "$OBS_TMP/graph.txt" "$OBS_QUERY" --no-cache \
  > "$OBS_TMP/eval-nocache.out"
diff "$OBS_TMP/eval-cached.out" "$OBS_TMP/eval-nocache.out"
echo "observability smoke passed."

echo "== [7/13] benchmark smoke (BENCH_*.json) =="
cmake --build build -j "$JOBS" --target bench-smoke

echo "== [8/13] service smoke (batch driver + socket clients + x6 throughput) =="
SVC_TMP="build/service-smoke"
mkdir -p "$SVC_TMP"
{
  echo "alphabet a b"
  echo "vertices 4"
  echo "edge 0 a 1"
  echo "edge 1 a 2"
  echo "edge 2 a 3"
} > "$SVC_TMP/graph.txt"
# A batch script that crosses every response shape: ping, query, mutations
# that grow the answer set, a malformed line (structured error, id null), a
# duplicate request id, and shutdown.
cat > "$SVC_TMP/requests.jsonl" <<'EOF'
{"id":"r1","op":"ping"}
{"id":"r2","op":"query","query":"q(x) := x -[/aa/]-> y"}
{"id":"r3","op":"add_vertex","count":1}
{"id":"r4","op":"add_edge","from":3,"symbol":"a","to":4}
{"id":"r5","op":"query","query":"q(x) := x -[/aa/]-> y"}
this is not json
{"id":"r5","op":"ping"}
{"id":"r6","op":"shutdown"}
EOF
build/tools/ecrpq_cli serve --batch="$SVC_TMP/requests.jsonl" \
  --graph="$SVC_TMP/graph.txt" > "$SVC_TMP/batch1.out" 2>/dev/null
# The batch driver is deterministic: a second identical run (its own
# process, so its own cold caches) must be byte-identical.
build/tools/ecrpq_cli serve --batch="$SVC_TMP/requests.jsonl" \
  --graph="$SVC_TMP/graph.txt" > "$SVC_TMP/batch2.out" 2>/dev/null
diff "$SVC_TMP/batch1.out" "$SVC_TMP/batch2.out"
# Spot-check the content: the aa-chain query gains an answer after the
# add_vertex/add_edge pair, the garbage line comes back as a structured
# parse_error with a null id, and the reused id is refused.
grep -q '"id":"r2","status":"ok".*"num_answers":2' "$SVC_TMP/batch1.out"
grep -q '"id":"r5","status":"ok".*"num_answers":3' "$SVC_TMP/batch1.out"
grep -q '"id":null,"status":"error","code":"parse_error"' "$SVC_TMP/batch1.out"
grep -q '"id":"r5","status":"error","code":"invalid_argument".*duplicate' \
  "$SVC_TMP/batch1.out"
# A misspelt option is refused with the usage (exit 2), never run with the
# defaults: `--pool 3` (a space for the =) would leave a stray "3", and an
# unknown --option is no option at all.
for bad in "--pool 3" "--bogus-flag"; do
  BAD_RC=0
  # shellcheck disable=SC2086  # $bad is two words on purpose.
  build/tools/ecrpq_cli serve --batch="$SVC_TMP/requests.jsonl" $bad \
    --graph="$SVC_TMP/graph.txt" > /dev/null 2>&1 || BAD_RC=$?
  if [ "$BAD_RC" -ne 2 ]; then
    echo "service smoke: serve with '$bad' exited $BAD_RC, expected 2" >&2
    exit 1
  fi
done
# Socket transport: two concurrent clients over a Unix socket against a
# 4-thread service; every response must carry the matching request id and
# the right answer count, whatever the interleaving. The timeout is a
# watchdog — a hung accept loop fails the stage instead of wedging CI.
rm -f "$SVC_TMP/svc.sock"
ECRPQ_THREADS=4 timeout 120 build/tools/ecrpq_cli serve \
  --listen-unix="$SVC_TMP/svc.sock" --graph="$SVC_TMP/graph.txt" \
  2> "$SVC_TMP/server.log" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SVC_TMP/svc.sock" ] && break
  sleep 0.1
done
python3 - "$SVC_TMP/svc.sock" <<'PYEOF'
import json, socket, sys, threading
path = sys.argv[1]
errors = []
def client(cid):
    try:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(path)
        f = s.makefile("rwb")
        for i in range(20):
            rid = f"c{cid}-{i}"
            if i % 2 == 0:
                req = {"id": rid, "op": "ping"}
            else:
                req = {"id": rid, "op": "query",
                       "query": "q(x) := x -[/aa/]-> y"}
            f.write((json.dumps(req) + "\n").encode())
            f.flush()
            resp = json.loads(f.readline())
            assert resp["id"] == rid, resp
            assert resp["status"] == "ok", resp
            if i % 2 == 1:
                assert resp["num_answers"] == 2, resp
        s.close()
    except Exception as e:
        errors.append(f"client {cid}: {e!r}")
threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
if errors:
    print("\n".join(errors), file=sys.stderr)
    sys.exit(1)
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(b'{"id":"bye","op":"shutdown"}\n')
resp = s.makefile("rb").readline()
assert b'"status":"ok"' in resp, resp
print("service socket smoke: 2 clients x 20 requests, clean shutdown")
PYEOF
wait "$SERVER_PID"
# Throughput gate over the fresh bench-smoke output: the warm concurrent
# per-query rate must beat the cold single-client rate by >= 5x (the
# cross-query caches are what a long-lived service exists to amortize).
# Same skip knob as the perf gate: load spikes can flatten the ratio.
if [ "${ECRPQ_SKIP_PERF_GATE:-0}" = "1" ]; then
  echo "service throughput check skipped (ECRPQ_SKIP_PERF_GATE=1)."
else
  python3 - build/BENCH_x6_service_load.json <<'PYEOF'
import json, sys
records = json.load(open(sys.argv[1]))
def per_query_ns(prefix):
    rates = [r["min_ns"] / r["counters"]["queries_per_iter"]
             for r in records if r["name"].startswith(prefix)]
    if not rates:
        print(f"service smoke: no bench record matching {prefix}",
              file=sys.stderr)
        sys.exit(1)
    return min(rates)
cold = per_query_ns("BM_ServiceSingleClientCold")
warm4 = per_query_ns("BM_ServiceConcurrentClientsWarm")
ratio = cold / warm4
print(f"service smoke: cold {cold/1e6:.2f}ms/query, warm-concurrent "
      f"{warm4/1e6:.2f}ms/query ({ratio:.1f}x)")
if ratio < 5.0:
    print("service smoke FAILED: warm concurrent throughput is under 5x "
          "the cold single-client rate", file=sys.stderr)
    sys.exit(1)
PYEOF
fi
# Telemetry-overhead gate over the same bench-smoke output: the default
# request-telemetry configuration (per-query tracing into the session's
# span buffer, request-level events, trace retention) must cost <= 5% per
# query on the warm serving path vs ServiceConfig::telemetry = false. Same skip knob: the margin is
# real but small, and a loaded machine can blur a few percent.
if [ "${ECRPQ_SKIP_PERF_GATE:-0}" = "1" ]; then
  echo "telemetry overhead check skipped (ECRPQ_SKIP_PERF_GATE=1)."
else
  python3 - build/BENCH_x7_telemetry.json <<'PYEOF'
import json, sys
records = json.load(open(sys.argv[1]))
def per_query_ns(name):
    for r in records:
        if r["name"] == name:
            return r["min_ns"] / r["counters"]["queries_per_iter"]
    print(f"telemetry gate: no bench record named {name}", file=sys.stderr)
    sys.exit(1)
off = per_query_ns("BM_ServiceWarmTelemetryOff")
on = per_query_ns("BM_ServiceWarmTelemetryOn")
overhead = on / off - 1.0
print(f"telemetry gate: warm off {off/1e6:.3f}ms/query, on "
      f"{on/1e6:.3f}ms/query ({overhead*100:+.1f}%)")
if overhead > 0.05:
    print("telemetry gate FAILED: telemetry-on warm path exceeds the 5% "
          "per-query overhead budget", file=sys.stderr)
    sys.exit(1)
PYEOF
fi
echo "service smoke passed."

echo "== [9/13] telemetry smoke (trace-id echo + exposition + event log) =="
TEL_TMP="build/telemetry-smoke"
rm -rf "$TEL_TMP"
mkdir -p "$TEL_TMP"
{
  echo "alphabet a b"
  echo "vertices 4"
  echo "edge 0 a 1"
  echo "edge 1 a 2"
  echo "edge 2 a 3"
} > "$TEL_TMP/graph.txt"
# A served process with the full telemetry surface on: slow-ms=0 logs every
# query, and the postmortem dir arms the postmortem and fatal-signal dumps.
rm -f "$TEL_TMP/svc.sock"
ECRPQ_THREADS=2 timeout 120 build/tools/ecrpq_cli serve \
  --listen-unix="$TEL_TMP/svc.sock" --graph="$TEL_TMP/graph.txt" \
  --event-log="$TEL_TMP/events.jsonl" --slow-ms=0 \
  --postmortem-dir="$TEL_TMP" 2> "$TEL_TMP/server.log" &
TEL_PID=$!
for _ in $(seq 1 100); do
  [ -S "$TEL_TMP/svc.sock" ] && break
  sleep 0.1
done
python3 - "$TEL_TMP/svc.sock" "$TEL_TMP/trace.json" <<'PYEOF'
import json, socket, sys
path, trace_out = sys.argv[1], sys.argv[2]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
f = s.makefile("rwb")
def rt(line):
    f.write((line + "\n").encode())
    f.flush()
    return f.readline().decode()
# 1. A client trace id is echoed byte-identically on the response line.
raw = rt('{"id":"t1","op":"query","query":"q(x) := x -[/aa/]-> y",'
         '"trace_id":"smoke-1"}')
assert '"trace_id":"smoke-1"' in raw, raw
assert '"status":"ok"' in raw, raw
# 2. An absent trace id leaves the response free of the field entirely.
raw = rt('{"id":"t2","op":"ping"}')
assert '"status":"ok"' in raw and "trace_id" not in raw, raw
# 3. The prometheus exposition carries the metric families and the
#    admission drain identities hold in the snapshot.
resp = json.loads(rt('{"id":"t3","op":"stats","format":"prometheus"}'))
assert resp["status"] == "ok", resp
expo = resp["exposition"]
metrics = {}
for line in expo.splitlines():
    if line.startswith("#") or " " not in line:
        continue
    name, value = line.rsplit(" ", 1)
    try:
        metrics[name] = int(value)
    except ValueError:
        pass
for family in ("ecrpq_admission_submitted", "ecrpq_admission_admitted",
               "ecrpq_admission_active", "ecrpq_service_request_ns_count"):
    assert family in metrics, (family, expo)
a = metrics
assert a["ecrpq_admission_submitted"] == (
    a["ecrpq_admission_admitted"] + a["ecrpq_admission_rejected"]), expo
assert a["ecrpq_admission_released"] + a["ecrpq_admission_active"] == (
    a["ecrpq_admission_admitted"]), expo
# 4. The trace op serves the retained request trace back.
resp = json.loads(rt('{"id":"t4","op":"trace","trace_id":"smoke-1"}'))
assert resp["status"] == "ok", resp
with open(trace_out, "w") as out:
    json.dump(resp["trace"], out)
# 5. Errors echo the trace id too (and are always event-logged).
raw = rt('{"id":"t5","op":"query","query":"this is no query",'
         '"trace_id":"smoke-err"}')
assert '"status":"error"' in raw and '"trace_id":"smoke-err"' in raw, raw
rt('{"id":"bye","op":"shutdown"}')
print("telemetry smoke: echo + exposition identities + trace op ok")
PYEOF
wait "$TEL_PID"
# The served-back trace must pass the same schema gate as CLI traces.
build/tools/ecrpq_cli trace-check "$TEL_TMP/trace.json"
# The event log is JSON-lines: every line parses, and both the ok query and
# the error landed with their trace ids.
python3 - "$TEL_TMP/events.jsonl" <<'PYEOF'
import json, sys
events = []
with open(sys.argv[1]) as f:
    for line in f:
        events.append(json.loads(line))
assert events, "event log is empty"
by_trace = {e.get("trace_id"): e for e in events if e.get("event") == "query"}
ok = by_trace["smoke-1"]
assert ok["status"] == "ok" and ok["query_key_hash"], ok
assert "latency_ms" in ok and "cache" in ok and "budget" in ok, ok
err = by_trace["smoke-err"]
assert err["status"] != "ok", err
print(f"telemetry smoke: {len(events)} event-log line(s) validate")
PYEOF
echo "telemetry smoke passed."

echo "== [10/13] scaling smoke (e11 suite: 4 threads must beat 1 thread) =="
NCORES="$(nproc 2>/dev/null || echo 1)"
if [ "${ECRPQ_SKIP_PERF_GATE:-0}" = "1" ]; then
  echo "scaling smoke skipped (ECRPQ_SKIP_PERF_GATE=1)."
elif [ "$NCORES" -lt 2 ]; then
  # A 4-thread pool on one hardware core time-slices a single CPU; a
  # strict-speedup gate cannot pass there by construction. Skip (don't
  # fail) so single-core CI boxes stay green — the gate arms itself on
  # any multi-core machine. Same degrade policy as the clang-only stages.
  echo "scaling smoke skipped ($NCORES hardware core(s); strict 4-vs-1" \
       "speedup needs >=2)."
else
  SCALE_TMP="build/scaling-smoke"
  mkdir -p "$SCALE_TMP"
  # Same flags as bench-smoke; only the pool size varies. The summed
  # min-of-repeats over the whole e11 suite is the statistic: individual
  # sub-millisecond points may not parallelize, but the suite total must —
  # that is the point of the work-stealing runtime.
  for t in 1 4; do
    ECRPQ_THREADS="$t" build/bench/bench_e11_data_complexity \
      --benchmark_min_time=0.01 --benchmark_repetitions=5 \
      --benchmark_report_aggregates_only=false \
      --json="$SCALE_TMP/e11_t$t.json" > /dev/null
  done
  python3 - "$SCALE_TMP/e11_t1.json" "$SCALE_TMP/e11_t4.json" <<'PYEOF'
import json, sys
def total(path):
    with open(path) as f:
        return sum(rec["min_ns"] for rec in json.load(f))
t1, t4 = total(sys.argv[1]), total(sys.argv[2])
print(f"scaling smoke: e11 suite min_ns total {t1/1e6:.2f}ms @1 thread, "
      f"{t4/1e6:.2f}ms @4 threads (speedup {t1/t4:.2f}x)")
if t4 >= t1:
    print("scaling smoke FAILED: 4-thread total is not strictly below "
          "1-thread", file=sys.stderr)
    sys.exit(1)
PYEOF
  echo "scaling smoke passed."
fi

echo "== [11/13] perf-regression gate (bench_compare vs committed baseline) =="
if [ "${ECRPQ_SKIP_PERF_GATE:-0}" = "1" ]; then
  echo "perf gate skipped (ECRPQ_SKIP_PERF_GATE=1)."
else
  PERF_TMP="build/perf-gate"
  mkdir -p "$PERF_TMP"
  GATED=0
  for current in build/BENCH_*.json; do
    base_name="$(basename "$current")"
    # Baseline = the copy committed at HEAD, not the working-tree file the
    # bench-smoke stage just overwrote.
    if ! git show "HEAD:$base_name" > "$PERF_TMP/$base_name" 2>/dev/null; then
      echo "perf gate: no committed baseline for $base_name, skipping."
      continue
    fi
    echo "-- $base_name"
    build/tools/bench_compare "$PERF_TMP/$base_name" "$current"
    GATED=$((GATED + 1))
  done
  if [ "$GATED" -eq 0 ]; then
    echo "perf gate: no committed BENCH_*.json baselines found (run" \
         "bench-smoke and commit the repo-root copies to arm the gate)."
  else
    echo "perf gate passed ($GATED file(s))."
  fi
fi

echo "== [12/13] lint =="
tools/run_lint.sh build -j "$JOBS"

echo "== [13/13] concurrency contracts (thread-safety build + ecrpq_lint) =="
# Part 1: the whole tree under clang's capability analysis promoted to
# errors (ECRPQ_ANALYZE=thread-safety). Clang-only by nature — skipped, not
# failed, on machines without clang, matching the run_lint.sh degrade
# policy. The lint fixture suite (below) keeps the annotation layer honest
# even on GCC-only machines.
CLANGXX=""
if command -v clang++ >/dev/null 2>&1; then
  CLANGXX=clang++
else
  for ver in 21 20 19 18 17 16 15 14; do
    if command -v "clang++-$ver" >/dev/null 2>&1; then
      CLANGXX="clang++-$ver"
      break
    fi
  done
fi
if [ -n "$CLANGXX" ]; then
  cmake -B build-tsafety -S . -DCMAKE_CXX_COMPILER="$CLANGXX" \
      -DECRPQ_ANALYZE=thread-safety >/dev/null
  cmake --build build-tsafety -j "$JOBS"
  echo "thread-safety build passed ($CLANGXX, -Werror=thread-safety)."
else
  echo "thread-safety build skipped (no clang++ on PATH; the capability" \
       "analysis only exists in clang)."
fi
# Part 2: the project-rule linter over the real tree (portable: python3).
python3 tools/ecrpq_lint/ecrpq_lint.py --build-dir build
# Part 3: the rule fixtures — every rule must still fire on its seeded
# violation and stay quiet on the clean fixture.
bash tests/lint_fixture_test.sh "$REPO_ROOT" "$REPO_ROOT/build"

echo "CI: all stages passed."
