#!/usr/bin/env bash
# Chaos smoke: run real CLI campaigns under a rotating fault-plan
# matrix — worker crashes, hangs rescued by speculative re-dispatch,
# corrupt frames, mid-result deaths — and require every disturbed
# run's final status JSON to be byte-identical to an undisturbed
# distributed run.  A final arm layers a SIGTERM + resume on top of a
# combined plan.  This exercises the fault plane across the real
# process boundary (sockets, signals, worker subprocesses, durable
# checkpoints) that the in-process chaos tests approximate.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

SPEC=(--preset tiny --protocol http --phi 0.95 --waves 2
      --reseed-mode interval --reseed-interval 0
      --shards 4 --executor distributed --batch-size 16384)

plan_and_run() {
    # plan_and_run <dir> [env VAR=VALUE ...]
    local dir=$1; shift
    python -m repro.orchestrator plan --dir "$dir" "${SPEC[@]}" > /dev/null
    env "$@" python -m repro.orchestrator run --dir "$dir" > /dev/null
    python -m repro.orchestrator status --dir "$dir" --json
}

echo "== undisturbed distributed reference"
plan_and_run "$WORK/reference" REPRO_DIST_WORKERS=2 \
    > "$WORK/reference.json"

# Each plan entry sabotages a different shard in a different way; the
# tight shard deadline lets speculation rescue the hang in seconds.
declare -A PLANS=(
    [crash]="crash@1"
    [hang]="hang@2"
    [corrupt]="corrupt@0"
    [mid_result]="mid_result@3"
    [combined]="crash@0,corrupt@2,mid_result@1"
)

for name in crash hang corrupt mid_result combined; do
    echo "== fault plan '$name': ${PLANS[$name]}"
    plan_and_run "$WORK/$name" \
        REPRO_DIST_WORKERS=2 \
        REPRO_DIST_SHARD_DEADLINE=2 \
        REPRO_FAULT_PLAN="${PLANS[$name]}" \
        > "$WORK/$name.json"
    diff "$WORK/$name.json" "$WORK/reference.json" \
        || { echo "fault plan '$name' perturbed the campaign" >&2; exit 1; }
done

echo "== SIGTERM + resume under a combined fault plan"
python -m repro.orchestrator plan --dir "$WORK/killed" "${SPEC[@]}" \
    > /dev/null
REPRO_DIST_WORKERS=2 \
REPRO_DIST_SHARD_DEADLINE=2 \
REPRO_FAULT_PLAN="crash@1,corrupt@3,stall@*:attempts=*:delay=0.5" \
python -m repro.orchestrator run --dir "$WORK/killed" &
PID=$!
for _ in $(seq 1 120); do
    compgen -G "$WORK/killed/checkpoint.*.npz" > /dev/null && break
    sleep 0.5
done
compgen -G "$WORK/killed/checkpoint.*.npz" > /dev/null || {
    echo "no checkpoint appeared within 60s" >&2; exit 1; }
sleep 1
kill -TERM "$PID" 2>/dev/null || true
set +e
wait "$PID"
RC=$?
set -e
echo "   interrupted run exited with $RC"

REPRO_DIST_WORKERS=2 \
REPRO_DIST_SHARD_DEADLINE=2 \
REPRO_FAULT_PLAN="crash@1,corrupt@3" \
python -m repro.orchestrator resume --dir "$WORK/killed" > /dev/null
python -m repro.orchestrator status --dir "$WORK/killed" --json \
    > "$WORK/killed.json"
diff "$WORK/killed.json" "$WORK/reference.json"

echo "== serial arm: chaos must not perturb the science"
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
print("   distributed-under-chaos == serial on",
      len(dist["waves"]), "waves")
PY
echo "chaos smoke OK: every fault plan byte-identical to the calm run"
