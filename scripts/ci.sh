#!/usr/bin/env bash
# Canonical repository check: gofmt, vet, build, the full test suite under
# the race detector with a coverage profile, the differential-conformance
# matrix, and a coverage floor. CI and pre-commit hooks should run exactly
# this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
# Every Go file in the tree, perfbench included, must be gofmt-clean.
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "ci.sh: FAIL — gofmt -l lists:" >&2; echo "$unformatted" >&2; exit 1; }

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== bounds-check asm gate (hot kernels) =="
# The compiled-plan kernels (one body per op, instantiated at float64 and at
# float32 for the fast mode) must stay bounds-check-free and call-free: the
# test recompiles internal/sw with -d=ssa/check_bce and -S and greps the
# diagnostics and the listing of both instantiations. Run it on its own,
# without -race, because the unchecked views deliberately fall back to
# checked slices under the race detector.
go test -count=1 -run 'TestHotKernelsBoundsCheckFree' ./internal/sw

echo "== zero-alloc gate (level-7 plan, taskplan, fast32 and fast32 taskplan step) =="
# Also race-excluded: under -race the kernels run on checked slices and the
# level-7 build would blow the package test timeout in the coverage run.
go test -count=1 -run 'TestPlanStepZeroAllocBigMesh' .

echo "== go test -race (runtime + solver focus) =="
# The compiled-plan step, the pool runtime, and the TCP dist runtime are the
# concurrency hot spots: fail fast on them before the full (slower) coverage
# run below.
go test -race ./internal/par/... ./internal/sw/... ./internal/dist/...

echo "== task-runtime race stress (GOMAXPROCS 1, 2, NumCPU) =="
# The work-stealing task scheduler's interesting interleavings depend on how
# many OS threads the goroutines actually share: GOMAXPROCS=1 forces full
# cooperative multiplexing (stealing only happens across preemption points),
# 2 gives minimal real parallelism, NumCPU is the production shape. Run the
# deque/graph unit tests and the solver-level taskplan conformance under all
# three so a lost-wakeup or ordering bug can't hide behind one scheduler
# shape.
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
for gmp in 1 2 "$ncpu"; do
    echo "-- GOMAXPROCS=$gmp --"
    GOMAXPROCS=$gmp go test -race -count=1 \
        -run 'TaskGraph|TaskPlan|Deque|Steal' \
        ./internal/par ./internal/sw
done

echo "== go test -race (with coverage) =="
go test -race -timeout 20m -coverprofile=coverage.out -coverpkg=./... ./...

echo "== conformance matrix (cmd/conformance) =="
# Every execution strategy against the serial baseline: the named cases plus
# 20 seeded random cases on a small mesh, ending with the perturbation
# self-check. Non-zero exit on any divergence.
go run ./cmd/conformance -level 2 -steps 2 -random 20

echo "== swrank distributed smoke (2 real processes over TCP vs serial hash) =="
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go build -o "$smokedir/swrank" ./cmd/swrank
serial_hash=$("$smokedir/swrank" -serial -case tc5 -level 3 -steps 2 -hash \
    | awk '/^swrank hash /{print $3}')
dist_hash=$("$smokedir/swrank" -launch 2 -case tc5 -level 3 -steps 2 -hash \
    | awk '/^swrank hash /{print $3; exit}')
[ -n "$serial_hash" ] || { echo "ci.sh: FAIL — serial swrank printed no hash" >&2; exit 1; }
[ "$dist_hash" = "$serial_hash" ] \
    || { echo "ci.sh: FAIL — 2-process hash '$dist_hash' != serial '$serial_hash'" >&2; exit 1; }
echo "swrank smoke OK (2-process hash $dist_hash matches serial)"

echo "== swrank 4-process smoke (concurrent start, several leaves) =="
# All four ranks start at once: the three leaves build, dial rank 0 and
# queue their hellos while rank 0 is still building its own mesh.
dist4_hash=$("$smokedir/swrank" -launch 4 -case tc5 -level 3 -steps 2 -hash \
    | awk '/^swrank hash /{print $3; exit}')
[ "$dist4_hash" = "$serial_hash" ] \
    || { echo "ci.sh: FAIL — 4-process hash '$dist4_hash' != serial '$serial_hash'" >&2; exit 1; }
echo "swrank 4-process smoke OK (hash $dist4_hash matches serial)"

echo "== swrank -taskplan smoke (task-dataflow execution, canonical hash) =="
# Task-graph execution must be bitwise invisible: the same run driven by
# dependency-counted tasks instead of level barriers — serially and across 2
# real processes with halo exchange through hook tasks — hashes bit-for-bit
# to the SAME serial hash as above.
task_hash=$("$smokedir/swrank" -serial -taskplan -case tc5 -level 3 -steps 2 -hash \
    | awk '/^swrank hash /{print $3}')
[ "$task_hash" = "$serial_hash" ] \
    || { echo "ci.sh: FAIL — serial taskplan hash '$task_hash' != serial '$serial_hash'" >&2; exit 1; }
task_dist_hash=$("$smokedir/swrank" -launch 2 -taskplan -case tc5 -level 3 -steps 2 -hash \
    | awk '/^swrank hash /{print $3; exit}')
[ "$task_dist_hash" = "$serial_hash" ] \
    || { echo "ci.sh: FAIL — 2-process taskplan hash '$task_dist_hash' != serial '$serial_hash'" >&2; exit 1; }
echo "swrank -taskplan smoke OK (serial and 2-process task-graph hashes match serial)"

echo "== swrank -reorder smoke (renumbered 2-process run, canonical hash) =="
# Locality renumbering must be invisible in the output: the SFC-partitioned
# renumbered 2-process run, gathered and converted back to canonical
# numbering, hashes bit-for-bit to the SAME serial hash as above.
reorder_hash=$("$smokedir/swrank" -launch 2 -case tc5 -level 3 -steps 2 -hash -reorder \
    | awk '/^swrank hash /{print $3; exit}')
[ "$reorder_hash" = "$serial_hash" ] \
    || { echo "ci.sh: FAIL — reordered 2-process hash '$reorder_hash' != serial '$serial_hash'" >&2; exit 1; }
echo "swrank -reorder smoke OK (renumbered hash $reorder_hash matches serial)"

echo "== big-mesh ladder smoke (level 7, 163842 cells, with reorder columns) =="
# One Table-III rung end to end: serial, compiled-plan, and float32 fast
# mode (the plan instantiated at float32) on a real 163842-cell mesh, plus
# the per-rung report plumbing and the SFC-reorder columns (renumbered
# plan/fast32 + neighbor-distance pair). The full n=6..9 ladder
# (scripts/bench.sh) is too slow for every CI run; this smoke keeps the
# harness itself from silently regressing.
go run ./cmd/bigmesh -min-level 7 -max-level 7 -steps 2 -check=false -reorder

echo "== benchmark perf gate (newest two BENCH_pr*.json) =="
# Recorded step-kernel numbers may not regress more than 10% between the two
# newest checked-in benchmark summaries.
scripts/benchdiff.sh

echo "== swserver smoke (submit, poll, metrics, drain) =="
go build -o "$smokedir/swserver" ./cmd/swserver
"$smokedir/swserver" -addr 127.0.0.1:0 -spool "$smokedir/spool" -workers 1 \
    > "$smokedir/out.log" 2> "$smokedir/err.log" &
smoke_pid=$!
base=""
for _ in $(seq 1 100); do
    base=$(awk '/^swserver listening on /{print "http://" $4; exit}' "$smokedir/out.log")
    [ -n "$base" ] && break
    kill -0 "$smoke_pid" 2>/dev/null || { cat "$smokedir/err.log" >&2; echo "ci.sh: FAIL — swserver died on startup" >&2; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "ci.sh: FAIL — swserver never announced its port" >&2; exit 1; }
job=$(curl -sf -X POST "$base/jobs" -d '{"test_case":5,"level":2,"steps":20,"report_every":5}' \
      | sed -n 's/.*"id": "\(j-[0-9a-f]*\)".*/\1/p')
[ -n "$job" ] || { echo "ci.sh: FAIL — job submission returned no id" >&2; exit 1; }
state=""
for _ in $(seq 1 300); do
    state=$(curl -sf "$base/jobs/$job" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
    [ "$state" = completed ] && break
    case "$state" in failed|canceled) break ;; esac
    sleep 0.1
done
[ "$state" = completed ] || { echo "ci.sh: FAIL — smoke job ended in state '$state'" >&2; exit 1; }
curl -sf "$base/jobs/$job/events?follow=0" | grep -q '"type":"diag"' \
    || { echo "ci.sh: FAIL — event stream has no diagnostics" >&2; exit 1; }
curl -sf "$base/metrics" | grep -q '^serve_jobs_completed_total 1$' \
    || { echo "ci.sh: FAIL — /metrics does not count the completed job" >&2; exit 1; }
kill -TERM "$smoke_pid"
wait "$smoke_pid" || { echo "ci.sh: FAIL — swserver did not drain cleanly on SIGTERM" >&2; exit 1; }
echo "swserver smoke OK ($job completed, metrics scraped, drained)"

echo "== swcluster smoke (2 workers, kill -9 one mid-job, steal, federated metrics) =="
go build -o "$smokedir/swcluster" ./cmd/swcluster
"$smokedir/swcluster" -addr 127.0.0.1:0 -spool "$smokedir/cspool" \
    -heartbeat 200ms -evict-after 1s \
    > "$smokedir/cout.log" 2> "$smokedir/cerr.log" &
cluster_pid=$!
cbase=""
for _ in $(seq 1 100); do
    cbase=$(awk '/^swcluster listening on /{print "http://" $4; exit}' "$smokedir/cout.log")
    [ -n "$cbase" ] && break
    kill -0 "$cluster_pid" 2>/dev/null || { cat "$smokedir/cerr.log" >&2; echo "ci.sh: FAIL — swcluster died on startup" >&2; exit 1; }
    sleep 0.1
done
[ -n "$cbase" ] || { echo "ci.sh: FAIL — swcluster never announced its port" >&2; exit 1; }
worker_pids=""
for w in w1 w2; do
    "$smokedir/swserver" -addr 127.0.0.1:0 -spool "$smokedir/spool-$w" -workers 1 \
        -register "$cbase" -name "$w" \
        > "$smokedir/$w.out.log" 2> "$smokedir/$w.err.log" &
    worker_pids="$worker_pids $w:$!"
done
registered=""
for _ in $(seq 1 100); do
    registered=$(curl -sf "$cbase/cluster/workers" | grep -c '"name": "w[12]"' || true)
    [ "$registered" = 2 ] && break
    sleep 0.1
done
[ "$registered" = 2 ] || { echo "ci.sh: FAIL — workers never registered with the coordinator" >&2; exit 1; }
cjob=$(curl -sf -X POST "$cbase/jobs" \
       -d '{"test_case":5,"level":2,"steps":40,"report_every":4,"checkpoint_every":4,"step_delay_ms":50,"ensemble":4}' \
       | sed -n 's/.*"id": "\(c-[0-9a-f]*\)".*/\1/p')
[ -n "$cjob" ] || { echo "ci.sh: FAIL — cluster submission returned no id" >&2; exit 1; }
# Wait until the trajectory is past its first durable checkpoint (so the
# coordinator has a mirror), then identify and SIGKILL the assigned worker.
victim=""
for _ in $(seq 1 300); do
    status=$(curl -sf "$cbase/jobs/$cjob")
    steps_done=$(printf '%s' "$status" | sed -n 's/.*"steps_done": \([0-9]*\).*/\1/p')
    cstate=$(printf '%s' "$status" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
    case "$cstate" in completed|failed|canceled)
        echo "ci.sh: FAIL — cluster job ended '$cstate' before the kill" >&2; exit 1 ;; esac
    if [ "${steps_done:-0}" -gt 4 ]; then
        victim=$(printf '%s' "$status" | sed -n 's/.*"worker": "\(w[12]\)".*/\1/p')
        break
    fi
    sleep 0.1
done
[ -n "$victim" ] || { echo "ci.sh: FAIL — cluster job never passed its first checkpoint" >&2; exit 1; }
sleep 0.5   # one more heartbeat so the mirror covers the latest checkpoint
victim_pid=$(printf '%s' "$worker_pids" | tr ' ' '\n' | sed -n "s/^$victim://p")
kill -9 "$victim_pid"
echo "killed worker $victim (pid $victim_pid) mid-job; waiting for the steal"
cstate=""
for _ in $(seq 1 600); do
    cstate=$(curl -sf "$cbase/jobs/$cjob" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
    [ "$cstate" = completed ] && break
    case "$cstate" in failed|canceled) break ;; esac
    sleep 0.1
done
[ "$cstate" = completed ] || { echo "ci.sh: FAIL — stolen job ended in state '$cstate'" >&2; exit 1; }
steals=$(curl -sf "$cbase/jobs/$cjob" | sed -n 's/.*"steals": \([0-9]*\).*/\1/p')
[ "${steals:-0}" -ge 1 ] || { echo "ci.sh: FAIL — job completed without a recorded steal" >&2; exit 1; }
fed=$(curl -sf "$cbase/metrics")
printf '%s\n' "$fed" | grep -q '^cluster_jobs_stolen_total 1$' \
    || { echo "ci.sh: FAIL — federated metrics missing cluster_jobs_stolen_total 1" >&2; exit 1; }
printf '%s\n' "$fed" | grep -q '^cluster_w_w[12]_serve_jobs_completed_total 1$' \
    || { echo "ci.sh: FAIL — federated metrics missing per-worker completion count" >&2; exit 1; }
printf '%s\n' "$fed" | grep -q '^cluster_total_serve_jobs_completed_total 1$' \
    || { echo "ci.sh: FAIL — federated metrics missing cluster totals" >&2; exit 1; }
for entry in $worker_pids; do kill -9 "${entry#*:}" 2>/dev/null || true; done
kill -TERM "$cluster_pid" 2>/dev/null || true
wait "$cluster_pid" 2>/dev/null || true
echo "swcluster smoke OK ($cjob stolen from $victim and completed, federation scraped)"

echo "== coverage floor =="
total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
floor=$(cat scripts/coverage_baseline.txt)
echo "total coverage ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t+0 >= f+0) }' || {
    echo "ci.sh: FAIL — coverage ${total}% fell below the recorded floor ${floor}%" >&2
    echo "       (scripts/coverage_baseline.txt; raise it when coverage durably improves)" >&2
    exit 1
}

echo "ci.sh: all checks passed"
