#!/usr/bin/env bash
# Storage chaos smoke: run CLI campaigns under a rotating
# REPRO_FS_FAULT_PLAN matrix — clean save failures (enospc +
# fsync_fail), a simulated crash at the promote rename, a deleted or
# truncated progress.json after a mid-wave crash, bitrot caught
# by `verify --repair`, and a torn final write recovered by the
# automatic rollback-on-resume path — and require every surviving
# arm's journaled checkpoint generations and final status JSON to be
# byte-identical to an unfaulted serial run of the same campaign.
# Exercises the real process boundary (the fault plan, the tmp sweep,
# and the fsck CLI) that the in-process test suite can't.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

SPEC=(--preset tiny --protocol http --phi 0.95 --waves 2
      --reseed-mode interval --reseed-interval 0
      --shards 4 --executor serial --batch-size 16384)

# The journaled generation file names of a campaign directory.
gen_files() {
    python - "$1" <<'PY'
import sys
from repro.orchestrator.checkpoint import CheckpointStore
journal, error = CheckpointStore(sys.argv[1], sweep=False).read_journal()
assert error is None, error
for entry in journal["generations"]:
    print(entry["file"])
PY
}

# Byte-diff an arm against the reference: same journaled generations,
# same generation bytes, same final status JSON.
diff_against_ref() {
    diff <(gen_files "$WORK/ref") <(gen_files "$1")
    while read -r name; do
        cmp "$WORK/ref/$name" "$1/$name"
    done < <(gen_files "$WORK/ref")
    python -m repro.orchestrator status --dir "$1" --json \
        > "$WORK/arm-status.json"
    diff "$WORK/ref.json" "$WORK/arm-status.json"
}

run_arm() {  # run_arm <dir> <fault plan>
    python -m repro.orchestrator plan --dir "$1" "${SPEC[@]}" > /dev/null
    REPRO_FS_FAULT_PLAN="$2" python -m repro.orchestrator run --dir "$1"
}

echo "== reference arm: no faults"
python -m repro.orchestrator plan --dir "$WORK/ref" "${SPEC[@]}" > /dev/null
python -m repro.orchestrator run --dir "$WORK/ref"
python -m repro.orchestrator status --dir "$WORK/ref" --json \
    > "$WORK/ref.json"
python -m repro.orchestrator verify --dir "$WORK/ref"
G=$(gen_files "$WORK/ref" | wc -l)
LATEST=$(gen_files "$WORK/ref" | tail -n 1 | sed 's/checkpoint\.\([0-9]*\)\.npz/\1/')
echo "   reference keeps $G generation(s), latest gen $LATEST"

echo "== arm: enospc + fsync_fail absorbed by the save-retry path"
run_arm "$WORK/retry" "enospc@save-1,fsync_fail@save-3"
diff_against_ref "$WORK/retry"
python -m repro.orchestrator verify --dir "$WORK/retry"

echo "== arm: rename_crash kills the process; resume sweeps and continues"
python -m repro.orchestrator plan --dir "$WORK/crash" "${SPEC[@]}" \
    > /dev/null
set +e
REPRO_FS_FAULT_PLAN="rename_crash@save-2" \
python -m repro.orchestrator run --dir "$WORK/crash" 2> /dev/null
RC=$?
set -e
[ "$RC" -ne 0 ] || { echo "rename_crash arm should have died" >&2; exit 1; }
compgen -G "$WORK/crash/checkpoint.*.tmp.npz" > /dev/null || {
    echo "crash left no orphaned tmp behind" >&2; exit 1; }
python -m repro.orchestrator resume --dir "$WORK/crash"
diff_against_ref "$WORK/crash"
python -m repro.orchestrator verify --dir "$WORK/crash"

echo "== arm: progress.json lost after a mid-wave kill, deleted or truncated"
# progress.json is atomic but not durable: a crash may leave it
# missing or stale.  The injected crash kills the run at wave 0's
# third shard; one copy resumes without progress.json, the other with
# half of it.
python -m repro.orchestrator plan --dir "$WORK/lost" "${SPEC[@]}" \
    > /dev/null
set +e
REPRO_FS_FAULT_PLAN="rename_crash@save-2" \
python -m repro.orchestrator run --dir "$WORK/lost" 2> /dev/null
RC=$?
set -e
[ "$RC" -ne 0 ] || { echo "lost-progress arm should have died" >&2; exit 1; }
[ -s "$WORK/lost/progress.json" ] || {
    echo "the killed run left no progress.json to lose" >&2; exit 1; }
cp -r "$WORK/lost" "$WORK/lost-deleted"
cp -r "$WORK/lost" "$WORK/lost-truncated"
rm "$WORK/lost-deleted/progress.json"
PROGRESS="$WORK/lost-truncated/progress.json"
truncate -s $(( $(stat -c %s "$PROGRESS") / 2 )) "$PROGRESS"
for arm in lost-deleted lost-truncated; do
    python -m repro.orchestrator resume --dir "$WORK/$arm"
    diff_against_ref "$WORK/$arm"
    python -m repro.orchestrator verify --dir "$WORK/$arm"
done

echo "== arm: bitrot on the latest generation, caught by verify --repair"
run_arm "$WORK/rot" "bitrot@gen-$LATEST"
set +e
python -m repro.orchestrator verify --dir "$WORK/rot" > /dev/null
RC=$?
set -e
[ "$RC" -ne 0 ] || { echo "verify missed the bitrot" >&2; exit 1; }
set +e
python -m repro.orchestrator verify --dir "$WORK/rot" --repair
RC=$?
set -e
[ "$RC" -ne 0 ] || { echo "repair run must still report problems" >&2; exit 1; }
[ -f "$WORK/rot/quarantine/checkpoint.$LATEST.npz" ] || {
    echo "repair did not quarantine the rotted generation" >&2; exit 1; }
python -m repro.orchestrator verify --dir "$WORK/rot"
# The rolled-back tail replays deterministically to the same bytes.
python -m repro.orchestrator resume --dir "$WORK/rot"
diff_against_ref "$WORK/rot"
python -m repro.orchestrator verify --dir "$WORK/rot"

echo "== arm: torn final write, recovered by automatic rollback on resume"
run_arm "$WORK/torn" "torn_write@save-$((LATEST - 1))"
set +e
python -m repro.orchestrator verify --dir "$WORK/torn" > /dev/null
RC=$?
set -e
[ "$RC" -ne 0 ] || { echo "verify missed the torn write" >&2; exit 1; }
# No repair: resume's load() detects the tear against the journaled
# digest, quarantines, rolls back, and re-runs the lost tail.
python -m repro.orchestrator resume --dir "$WORK/torn"
[ -f "$WORK/torn/quarantine/checkpoint.$LATEST.npz" ] || {
    echo "resume did not quarantine the torn generation" >&2; exit 1; }
diff_against_ref "$WORK/torn"
python -m repro.orchestrator verify --dir "$WORK/torn"

echo "storage chaos smoke OK: every fault arm byte-identical to the unfaulted run"
