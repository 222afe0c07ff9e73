#!/usr/bin/env bash
# Remote-fleet smoke: exercise the address-book half of the scan
# fabric across real process boundaries.  Two pre-started --listen
# workers (plus assorted saboteurs) serve campaigns dialed through
# REPRO_DIST_ADDRESS_BOOK behind the HMAC handshake; every arm —
# remote-only, mixed spawned+remote, an injected auth_fail spawn, a
# wrong-secret remote, and a SIGKILLed-then-resumed coordinator — must
# produce status JSON byte-identical to an undisturbed spawn-only
# distributed run, which must itself match serial.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

WORK=$(mktemp -d)
cleanup() {
    # start_worker runs inside $(...), so each worker's pid comes back
    # through a file rather than a shell variable.
    local pidfile pid
    for pidfile in "$WORK"/*.pid; do
        [ -e "$pidfile" ] || continue
        pid=$(cat "$pidfile")
        kill "$pid" 2>/dev/null || true
        for _ in $(seq 1 50); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
        kill -KILL "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

SECRET=smoke-fleet-key
SPEC=(--preset tiny --protocol http --phi 0.95 --waves 2
      --reseed-mode interval --reseed-interval 0
      --shards 4 --executor distributed --batch-size 16384)

start_worker() {
    # start_worker <name> [env VAR=VALUE ...] -> announces port on stdout
    local name=$1; shift
    env "$@" python -m repro.scan.distributed --listen 127.0.0.1:0 \
        > "$WORK/$name.out" 2> "$WORK/$name.log" &
    echo "$!" > "$WORK/$name.pid"
    local port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
               "$WORK/$name.out" | head -n 1)
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || {
        echo "worker $name never announced a port" >&2
        cat "$WORK/$name.log" >&2
        exit 1
    }
    echo "$port"
}

plan_and_run() {
    # plan_and_run <dir> [env VAR=VALUE ...]
    local dir=$1; shift
    python -m repro.orchestrator plan --dir "$dir" "${SPEC[@]}" > /dev/null
    env "$@" python -m repro.orchestrator run --dir "$dir" > /dev/null
    python -m repro.orchestrator status --dir "$dir" --json
}

echo "== undisturbed spawn-only distributed reference"
plan_and_run "$WORK/reference" \
    REPRO_DIST_WORKERS=2 REPRO_DIST_SECRET="$SECRET" \
    > "$WORK/reference.json"

echo "== pre-starting two --listen workers"
PORT_A=$(start_worker worker-a REPRO_DIST_SECRET="$SECRET")
PORT_B=$(start_worker worker-b REPRO_DIST_SECRET="$SECRET")
BOOK="127.0.0.1:$PORT_A,127.0.0.1:$PORT_B"
echo "   address book: $BOOK"

echo "== arm 1: remote-only fleet via the address book"
plan_and_run "$WORK/remote" \
    REPRO_DIST_WORKERS=2 REPRO_DIST_SECRET="$SECRET" \
    REPRO_DIST_ADDRESS_BOOK="$BOOK" \
    > "$WORK/remote.json"
diff "$WORK/remote.json" "$WORK/reference.json" \
    || { echo "remote-only fleet perturbed the campaign" >&2; exit 1; }

echo "== arm 2: mixed fleet with an injected auth_fail spawn"
plan_and_run "$WORK/mixed" \
    REPRO_DIST_WORKERS=3 REPRO_DIST_SECRET="$SECRET" \
    REPRO_DIST_ADDRESS_BOOK="$BOOK" \
    REPRO_FAULT_PLAN="auth_fail@0" \
    > "$WORK/mixed.json"
diff "$WORK/mixed.json" "$WORK/reference.json" \
    || { echo "auth_fail in the mixed fleet perturbed the campaign" >&2
         exit 1; }

echo "== arm 3: a wrong-secret remote is rejected, not fatal"
PORT_BAD=$(start_worker worker-bad REPRO_DIST_SECRET=not-the-key)
plan_and_run "$WORK/badsecret" \
    REPRO_DIST_WORKERS=3 REPRO_DIST_SECRET="$SECRET" \
    REPRO_DIST_ADDRESS_BOOK="$BOOK,127.0.0.1:$PORT_BAD" \
    > "$WORK/badsecret.json"
diff "$WORK/badsecret.json" "$WORK/reference.json" \
    || { echo "a wrong-secret remote perturbed the campaign" >&2; exit 1; }

echo "== arm 4: SIGKILL the coordinator, resume over the address book"
# A universal stall on the run keeps the kill window wide; the fleet
# is two dedicated remotes only, so killing the run process kills the
# coordinator but none of the workers.
PORT_S1=$(start_worker worker-s1 REPRO_DIST_SECRET="$SECRET")
PORT_S2=$(start_worker worker-s2 REPRO_DIST_SECRET="$SECRET")
KILL_BOOK="127.0.0.1:$PORT_S1,127.0.0.1:$PORT_S2"
python -m repro.orchestrator plan --dir "$WORK/killed" "${SPEC[@]}" \
    > /dev/null
env REPRO_DIST_WORKERS=2 REPRO_DIST_SECRET="$SECRET" \
    REPRO_DIST_ADDRESS_BOOK="$KILL_BOOK" \
    REPRO_FAULT_PLAN="stall@*:attempts=*:delay=0.4" \
    python -m repro.orchestrator run --dir "$WORK/killed" &
PID=$!
for _ in $(seq 1 120); do
    compgen -G "$WORK/killed/checkpoint.*.npz" > /dev/null && break
    sleep 0.5
done
compgen -G "$WORK/killed/checkpoint.*.npz" > /dev/null || {
    echo "no checkpoint appeared within 60s" >&2; exit 1; }
sleep 1
kill -KILL "$PID" 2>/dev/null || true
set +e
wait "$PID"
RC=$?
set -e
echo "   SIGKILLed coordinator exited with $RC"

env REPRO_DIST_WORKERS=2 REPRO_DIST_SECRET="$SECRET" \
    REPRO_DIST_ADDRESS_BOOK="$KILL_BOOK" \
    python -m repro.orchestrator resume --dir "$WORK/killed" > /dev/null
python -m repro.orchestrator status --dir "$WORK/killed" --json \
    > "$WORK/killed.json"
diff "$WORK/killed.json" "$WORK/reference.json"

echo "== serial arm: the fleet must not perturb the science"
python -m repro.orchestrator plan --dir "$WORK/serial" \
    --preset tiny --protocol http --phi 0.95 --waves 2 \
    --reseed-mode interval --reseed-interval 0 \
    --shards 4 --executor serial --batch-size 16384 > /dev/null
python -m repro.orchestrator run --dir "$WORK/serial" > /dev/null
python -m repro.orchestrator status --dir "$WORK/serial" --json \
    > "$WORK/serial.json"
python - "$WORK/reference.json" "$WORK/serial.json" <<'PY'
import json, sys
dist, serial = (json.load(open(p)) for p in sys.argv[1:3])
assert dist["waves"] == serial["waves"], "per-wave accounting diverged"
assert dist["totals"] == serial["totals"], "campaign totals diverged"
print("   remote-fleet == serial on", len(dist["waves"]), "waves")
PY
echo "remote fleet smoke OK: every fleet shape byte-identical"
