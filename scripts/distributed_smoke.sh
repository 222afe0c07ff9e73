#!/usr/bin/env bash
# Distributed-executor smoke: run a multi-worker campaign via the CLI
# with an injected worker failure, SIGTERM the coordinator mid-wave,
# resume, and require the final status JSON to be byte-identical to an
# uninterrupted distributed run — and its computed numbers (waves +
# totals) identical to a serial run of the same campaign.  Exercises
# the real process boundary (forked workers, sockets, signals,
# durable checkpoints) that the in-process test suite can't.  The
# uninterrupted arm also counts its worker spawns: one fleet serves
# every wave of a run.
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

echo "== the live coordinator holds no listening socket"
# Forked workers each get a socketpair end, so nothing local can dial
# in: none of the coordinator's socket inodes may be a TCP LISTEN
# (state 0A) entry of its network namespace.
python - "$PID" <<'PY'
import os, sys
pid = sys.argv[1]
inodes = set()
for fd in os.listdir(f"/proc/{pid}/fd"):
    try:
        link = os.readlink(f"/proc/{pid}/fd/{fd}")
    except OSError:
        continue  # closed since listdir
    if link.startswith("socket:["):
        inodes.add(link[len("socket:["):-1])
listening = set()
for table in ("tcp", "tcp6"):
    with open(f"/proc/{pid}/net/{table}") as fh:
        next(fh)  # the header row
        for row in fh:
            fields = row.split()
            if fields[3] == "0A":
                listening.add(fields[9])
held = sorted(inodes & listening)
assert not held, f"coordinator pid {pid} listens on socket inode(s) {held}"
print(f"   coordinator pid {pid}: {len(inodes)} socket(s), none listening")
PY
sleep 1
kill -TERM "$PID" 2>/dev/null || true
set +e
wait "$PID"
RC=$?
set -e
echo "   interrupted run exited with $RC"

# Forked workers carry the coordinator's command line; none may outlive
# it by more than a moment.
for _ in $(seq 1 50); do
    pgrep -f -- "--dir $WORK/interrupted" > /dev/null || break
    sleep 0.1
done
if pgrep -af -- "--dir $WORK/interrupted" >&2; then
    echo "workers of the SIGTERMed run were still alive 5s later" >&2
    exit 1
fi

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
REPRO_OBS=events REPRO_DIST_WORKERS=2 \
python -m repro.orchestrator run --dir "$WORK/reference"
python -m repro.orchestrator status --dir "$WORK/reference" --json \
    > "$WORK/reference.json"

echo "== one fleet per run: the reference arm spawns at most its fleet"
# Every wave after the first reuses the open worker sessions, so an
# unfaulted run spawns no more workers than REPRO_DIST_WORKERS.
python - "$WORK/reference/events.jsonl" 2 <<'PY'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
spawns = sum(1 for event in events if event["type"] == "worker_spawn")
fleet = int(sys.argv[2])
assert spawns <= fleet, f"{spawns} worker spawns for a fleet of {fleet}"
print(f"   {spawns} worker spawn(s) across the run (fleet of {fleet})")
PY

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
