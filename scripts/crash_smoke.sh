#!/usr/bin/env bash
# crash-smoke: the crash-recovery gate for jobs on the shipped ehserved
# binary. Usage: scripts/crash_smoke.sh grid|fleet
#
# Phase 1 (reference): run a job of the given kind to completion on a
# fresh data dir and keep the final result document.
# Phase 2 (crash): start the same job on a second data dir, SIGKILL the
# daemon mid-job — no drain, no journal retirement — restart it on the
# same dir, and wait for the resumed job to finish.
# The recovered final document must be byte-identical to the reference.
# The grid leg also requires the artifact uploaded before the kill to
# download byte-identical after the restart; the fleet leg requires the
# unified /v1/jobs listing and the per-fleet metric series to know the
# resumed fleet.
set -euo pipefail

KIND="${1:-}"
case "$KIND" in
    grid)
        NAME=crash-smoke
        PORT="${CRASH_SMOKE_PORT:-18163}"
        PREFIX=g
        # A grid slow enough to be caught mid-run on a 1-worker session
        # but quick enough for CI: 16 points with hundreds of warm-up
        # episodes each.
        SPEC='{"name":"crash-smoke","events":200,"traces":[{"name":"s","kind":"solar","seconds":86400,"peakPower":0.05}],"exits":[{"name":"q","mode":0,"warmup":200}],"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}'
        ;;
    fleet)
        NAME=fleet-smoke
        PORT="${FLEET_SMOKE_PORT:-18173}"
        PREFIX=f
        # A fleet slow enough to be caught mid-run on a 1-worker session
        # but quick enough for CI: every epoch checkpoints a snapshot, so
        # the kill can land between any two of the 60 barriers.
        SPEC='{"name":"fleet-smoke","baseSeed":5,"epochs":60,"snapshotEvery":1,"events":120,"populations":[{"name":"pop","count":512,"traceVariants":8}]}'
        ;;
    *)
        echo "usage: $0 grid|fleet" >&2
        exit 2
        ;;
esac
BASE="http://127.0.0.1:$PORT"
JOBS="$BASE/v1/${KIND}s"
TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/ehserved" ./cmd/ehserved

start_server() { # $1 = data dir
    "$TMP/ehserved" -addr "127.0.0.1:$PORT" -workers 1 -data-dir "$1" >>"$TMP/server.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "$NAME: server never became healthy" >&2
    cat "$TMP/server.log" >&2
    exit 1
}

stop_server() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}

submit() { # prints the new job's id
    curl -sf -X POST -d "$SPEC" "$JOBS" | grep -o "\"id\":\"$PREFIX[0-9]*\"" | cut -d'"' -f4
}

wait_done() { # $1 = job id; prints nothing, fails if the job errs
    for _ in $(seq 1 600); do
        state="$(curl -sf "$JOBS/$1" | grep -o '"state":"[a-z]*"')"
        case "$state" in
            '"state":"done"') return 0 ;;
            '"state":"failed"'|'"state":"canceled"')
                echo "$NAME: $KIND $1 ended $state" >&2
                curl -sf "$JOBS/$1" >&2 || true
                exit 1 ;;
        esac
        sleep 0.2
    done
    echo "$NAME: $KIND $1 never finished" >&2
    exit 1
}

upload_artifact() { # grid leg only; $1 = where the upload response goes
    if [ "$KIND" = grid ]; then
        curl -sf --data-binary @testdata/golden_two_exit.ehar "$BASE/v1/artifacts" >"$1"
    fi
}

# ---- Phase 1: uninterrupted reference run -------------------------------
start_server "$TMP/data-ref"
upload_artifact /dev/null
REF_ID="$(submit)"
wait_done "$REF_ID"
curl -sf "$JOBS/$REF_ID/results" >"$TMP/reference.json"
stop_server

# ---- Phase 2: SIGKILL mid-job, restart, resume --------------------------
# The kill must land while the job is running. If the job outruns us
# (fast machine), retry the whole phase on a fresh dir a few times.
killed=0
for attempt in 1 2 3; do
    DATA="$TMP/data-crash-$attempt"
    start_server "$DATA"
    upload_artifact "$TMP/upload.json"
    if [ "$KIND" = grid ]; then
        grep -q '"id":"a1"' "$TMP/upload.json" || { echo "$NAME: unexpected upload:"; cat "$TMP/upload.json"; exit 1; }
    fi
    JOB_ID="$(submit)"

    # Wait for at least one checkpointed line, then SIGKILL — no drain,
    # no deferred cleanup, exactly the crash the journal exists for.
    for _ in $(seq 1 300); do
        status="$(curl -sf "$JOBS/$JOB_ID")"
        completed="$(echo "$status" | grep -o '"completed":[0-9]*' | cut -d: -f2)"
        if echo "$status" | grep -q '"state":"running"' && [ "${completed:-0}" -ge 1 ]; then
            kill -9 "$SERVER_PID"
            wait "$SERVER_PID" 2>/dev/null || true
            SERVER_PID=""
            killed=1
            break
        fi
        if echo "$status" | grep -q '"state":"done"'; then break; fi
        sleep 0.05
    done
    if [ "$killed" = 1 ]; then break; fi
    echo "$NAME: attempt $attempt finished before the kill landed; retrying" >&2
    stop_server
done
if [ "$killed" != 1 ]; then
    echo "$NAME: could never SIGKILL mid-job ($KIND too fast?)" >&2
    exit 1
fi

# Restart on the same data dir: the job must resume and finish.
start_server "$DATA"
wait_done "$JOB_ID"

# The resumed run's final document is byte-identical to the reference.
curl -sf "$JOBS/$JOB_ID/results" >"$TMP/resumed.json"
if ! cmp -s "$TMP/reference.json" "$TMP/resumed.json"; then
    echo "$NAME: resumed results differ from the uninterrupted reference" >&2
    diff <(head -c 2000 "$TMP/reference.json") <(head -c 2000 "$TMP/resumed.json") >&2 || true
    exit 1
fi

# Recovery telemetry is on /metrics.
curl -sf "$BASE/metrics" >"$TMP/metrics.txt"
need_metric() { # $1 = extended regexp, $2 = what it proves
    grep -Eq "$1" "$TMP/metrics.txt" \
        || { echo "$NAME: $2" >&2; grep "ehserved_${KIND}\|ehserved_jobs\|ehserved_artifact" "$TMP/metrics.txt" >&2 || true; exit 1; }
}
if [ "$KIND" = grid ]; then
    # The artifact survived the SIGKILL byte-identically.
    curl -sf "$BASE/v1/artifacts/a1" >"$TMP/roundtrip.ehar"
    cmp -s testdata/golden_two_exit.ehar "$TMP/roundtrip.ehar" \
        || { echo "$NAME: artifact bytes changed across the crash" >&2; exit 1; }
    need_metric 'ehserved_jobs_resumed_total 1' "resume not counted"
    need_metric 'ehserved_artifact_recovery_total\{outcome="restored"\} 1' "artifact restore not counted"
else
    # The unified job listing knows the fleet, and the per-fleet
    # families continue under its id.
    curl -sf "$BASE/v1/jobs" | grep -q "\"id\":\"$JOB_ID\"" \
        || { echo "$NAME: /v1/jobs does not list $JOB_ID" >&2; exit 1; }
    need_metric 'ehserved_fleets_resumed_total 1' "resume not counted"
    need_metric 'ehserved_fleet_snapshots_restored_total [1-9]' "restored snapshots not counted"
    need_metric "ehserved_fleet_events_total\\{fleet=\"$JOB_ID\"\\} [1-9]" "per-fleet event counter missing"
fi
stop_server

echo "$NAME: OK ($KIND $JOB_ID resumed after SIGKILL; results byte-identical)"
