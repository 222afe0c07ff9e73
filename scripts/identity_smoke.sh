#!/usr/bin/env bash
# Byte-identity smoke: run the same campaigns from a base checkout and
# from this one, keeping every checkpoint generation, and require
# status.json, campaign.json, checkpoints.json and each
# checkpoint.<gen>.npz to match byte for byte; then render the paper
# analysis passes in both trees and require each text to match.  A
# change that claims "outputs unchanged" runs this against its
# merge-base.
#
# Usage: scripts/identity_smoke.sh BASE_DIR [V4_PRESET] [V6_PRESET]
#   BASE_DIR   a checkout of the base commit (e.g. a git worktree of
#              `git merge-base origin/main HEAD`)
#   V4_PRESET  dataset preset of the v4 arms (default: tiny)
#   V6_PRESET  dataset preset of the v6 arms (default: v6-tiny)
#
# Arms, each run at both commits:
#   v4, serial, 8 shards, --use-blocklist --explore-frac 0.01
#   v6, serial, 8 shards, 64 samples per prefix
#   v4, distributed (2 workers), 8 shards, --use-blocklist
#       --explore-frac 0.01 (the coordinator explores between runs of a
#       fleet that stays alive across waves)
#   v6, distributed (2 workers), 8 shards, 64 samples per prefix (the
#       v6 shard descriptions cross the wire)
#   v4, distributed (2 workers) as above, under the fault plan
#       crash@1,corrupt@3,mid_result@5,spawn_crash@2; this arm also
#       requires progress.json's executor_telemetry (failures,
#       respawns, faults armed, ...) to match
#   analysis: the paper analysis passes of this tree's
#       repro.analysis.PASSES (each pass's run_* then render_*) on
#       V4_PRESET, dataset seed 0; each rendered text must match
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_DIR=$(cd "${1:?usage: $0 BASE_DIR [V4_PRESET] [V6_PRESET]}" && pwd)
HEAD_DIR=$PWD
V4_PRESET=${2:-tiny}
V6_PRESET=${3:-v6-tiny}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Keep every generation so each one is compared, not only the last few.
export REPRO_CKPT_KEEP=1000
export REPRO_DIST_WORKERS=2
unset REPRO_OBS REPRO_FAULT_PLAN REPRO_FS_FAULT_PLAN \
    REPRO_DIST_ADDRESS_BOOK REPRO_DIST_SECRET

COMMON=(--protocol http --phi 0.9 --waves 4 --reseed-mode interval
        --reseed-interval 2 --shards 8)

run_arm() {  # run_arm TREE OUT PLAN-ARGS...
    local tree=$1 out=$2
    shift 2
    (
        cd "$tree"
        export PYTHONPATH=src
        python -m repro.orchestrator plan --dir "$out" "${COMMON[@]}" "$@" \
            > /dev/null
        python -m repro.orchestrator run --dir "$out" > /dev/null
    )
}

compare_arm() {  # [REPRO_FAULT_PLAN=...] compare_arm NAME PLAN-ARGS...
    local name=$1
    shift
    echo "== $name"
    run_arm "$BASE_DIR" "$WORK/base-$name" "$@"
    run_arm "$HEAD_DIR" "$WORK/head-$name" "$@"
    local files=(status.json campaign.json checkpoints.json)
    local gens=0 npz
    for npz in "$WORK/base-$name"/checkpoint.*.npz; do
        files+=("$(basename "$npz")")
        gens=$((gens + 1))
    done
    [ "$gens" -gt 0 ] || { echo "no checkpoint generations" >&2; exit 1; }
    for file in "${files[@]}"; do
        cmp "$WORK/base-$name/$file" "$WORK/head-$name/$file"
    done
    # Every generation the head wrote must exist at the base too.
    local head_gens
    head_gens=$(compgen -G "$WORK/head-$name/checkpoint.*.npz" | wc -l)
    [ "$head_gens" -eq "$gens" ] || {
        echo "generation count differs: base $gens, head $head_gens" >&2
        exit 1
    }
    if [ -n "${REPRO_FAULT_PLAN:-}" ]; then
        python - "$WORK/base-$name" "$WORK/head-$name" <<'PY'
import json, sys
base, head = (
    json.load(open(f"{d}/progress.json"))["executor_telemetry"]
    for d in sys.argv[1:]
)
if base != head:
    sys.exit(f"executor_telemetry differs:\n  base {base}\n  head {head}")
print(f"   telemetry identical: {head}")
PY
    fi
    echo "   identical: ${#files[@]} files ($gens checkpoint generations)"
}

compare_arm v4-serial --preset "$V4_PRESET" --executor serial \
    --use-blocklist --explore-frac 0.01
compare_arm v6-serial --preset "$V6_PRESET" --executor serial \
    --samples-per-prefix 64
compare_arm v4-distributed --preset "$V4_PRESET" --executor distributed \
    --use-blocklist --explore-frac 0.01
compare_arm v6-distributed --preset "$V6_PRESET" --executor distributed \
    --samples-per-prefix 64
REPRO_FAULT_PLAN=crash@1,corrupt@3,mid_result@5,spawn_crash@2 \
    compare_arm v4-distributed-faults --preset "$V4_PRESET" \
    --executor distributed --use-blocklist --explore-frac 0.01

# The paper's passes from this tree's registry, one "NAME MODULE:RUN
# MODULE:RENDER" line each.  The same list goes to both trees, so a base
# that predates the registry renders it too.
PASS_LINES=$(PYTHONPATH="$HEAD_DIR/src" python -c '
from repro.analysis import PASSES
for name, entry in PASSES.items():
    print(name, entry.run, entry.render)
')
mapfile -t ANALYSIS_PASSES <<< "$PASS_LINES"

render_analysis() {  # render_analysis TREE OUT
    mkdir -p "$2"
    (
        cd "$1"
        PYTHONPATH=src python - "$V4_PRESET" "$2" "${ANALYSIS_PASSES[@]}" <<'PY'
import importlib, sys
from repro.census.loader import get_dataset


def resolve(ref):
    module, name = ref.split(":")
    return getattr(importlib.import_module(module), name)


preset, out, *passes = sys.argv[1:]
dataset = get_dataset(preset=preset, seed=0)
for item in passes:
    name, run, render = item.split()
    with open(f"{out}/{name}.txt", "w") as fh:
        fh.write(resolve(render)(resolve(run)(dataset)) + "\n")
PY
    )
}

echo "== analysis"
render_analysis "$BASE_DIR" "$WORK/base-analysis"
render_analysis "$HEAD_DIR" "$WORK/head-analysis"
for item in "${ANALYSIS_PASSES[@]}"; do
    name=${item%% *}
    cmp "$WORK/base-analysis/$name.txt" "$WORK/head-analysis/$name.txt"
done
echo "   identical: ${#ANALYSIS_PASSES[@]} rendered passes"

echo "identity smoke passed"
