#!/usr/bin/env bash
# Distributed-executor smoke: run a multi-worker campaign via the CLI
# with an injected worker failure, SIGTERM the coordinator mid-wave,
# resume, and require the final status JSON to be byte-identical to an
# uninterrupted distributed run — and its computed numbers (waves +
# totals) identical to a serial run of the same campaign.  Exercises
# the real process boundary (worker subprocesses, sockets, signals,
# durable checkpoints) that the in-process test suite can't.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

SPEC=(--preset tiny --protocol http --phi 0.95 --waves 3
      --reseed-mode interval --reseed-interval 0
      --shards 6 --executor distributed --batch-size 16384)

echo "== plan (interrupted arm)"
python -m repro.orchestrator plan --dir "$WORK/interrupted" "${SPEC[@]}"

echo "== run + SIGTERM mid-wave (worker failure injected on shard 1)"
# The universal stall entry stretches each wave to a couple of seconds
# so the SIGTERM reliably lands mid-campaign; the crash entry (first
# match wins) makes the first worker assigned shard 1 die and the
# shard requeue.  Neither entry changes any result.
REPRO_DIST_WORKERS=2 \
REPRO_FAULT_PLAN='crash@1,stall@*:attempts=*:delay=0.5' \
python -m repro.orchestrator run --dir "$WORK/interrupted" &
PID=$!
# Kill only after the first durable checkpoint exists (a fixed sleep
# races slow runners into a checkpoint-less kill), then give the wave
# a moment so the signal lands mid-wave rather than at its start.
for _ in $(seq 1 120); do
    compgen -G "$WORK/interrupted/checkpoint.*.npz" > /dev/null && break
    sleep 0.5
done
compgen -G "$WORK/interrupted/checkpoint.*.npz" > /dev/null || {
    echo "no checkpoint appeared within 60s" >&2; exit 1; }
sleep 1
kill -TERM "$PID" 2>/dev/null || true
set +e
wait "$PID"
RC=$?
set -e
echo "   interrupted run exited with $RC"

python -m repro.orchestrator status --dir "$WORK/interrupted" --json \
    > "$WORK/mid.json"
python - "$WORK/mid.json" <<'PY'
import json, sys
status = json.load(open(sys.argv[1]))
assert not status["finished"], (
    "campaign finished before the SIGTERM - raise the stall delay?")
position = status["position"]
print(f"   killed at wave {position['wave']} shard {position['shard']} "
      f"({status['waves_completed']} wave(s) complete)")
PY

echo "== resume to completion"
python -m repro.orchestrator resume --dir "$WORK/interrupted"
python -m repro.orchestrator status --dir "$WORK/interrupted" --json \
    > "$WORK/resumed.json"

echo "== uninterrupted distributed reference arm"
python -m repro.orchestrator plan --dir "$WORK/reference" "${SPEC[@]}" \
    > /dev/null
python -m repro.orchestrator run --dir "$WORK/reference"
python -m repro.orchestrator status --dir "$WORK/reference" --json \
    > "$WORK/reference.json"

echo "== diff final status JSON (kill-and-resume byte-identity)"
diff "$WORK/resumed.json" "$WORK/reference.json"

echo "== serial arm: merged results must be executor-invariant"
python -m repro.orchestrator plan --dir "$WORK/serial" \
    --preset tiny --protocol http --phi 0.95 --waves 3 \
    --reseed-mode interval --reseed-interval 0 \
    --shards 6 --executor serial --batch-size 16384 > /dev/null
python -m repro.orchestrator run --dir "$WORK/serial"
python -m repro.orchestrator status --dir "$WORK/serial" --json \
    > "$WORK/serial.json"
# The specs legitimately differ in the executor field; every computed
# number (per-wave accounting and campaign totals) must not.
python - "$WORK/reference.json" "$WORK/serial.json" <<'PY'
import json, sys
dist, serial = (json.load(open(p)) for p in sys.argv[1:3])
assert dist["waves"] == serial["waves"], "per-wave accounting diverged"
assert dist["totals"] == serial["totals"], "campaign totals diverged"
print("   distributed == serial on", len(dist["waves"]), "waves")
PY
echo "distributed smoke OK: kill-and-resume byte-identical, serial parity holds"
