#!/usr/bin/env python3
"""Process-boundary smokes: real CLI campaigns, killed, resumed,
faulted and distributed, must leave byte-identical results.

Usage:
    python scripts/smoke.py ARM [ARM ...]
    python scripts/smoke.py identity BASE_DIR [V4_PRESET] [V6_PRESET]

Each arm plans and runs ``python -m repro.orchestrator`` campaigns in a
fresh temporary directory and compares what they leave behind: the
``status --json`` document, the journaled checkpoint generations and,
where an arm says so, the serial run's ``waves`` and ``totals``.  The
shared steps (plan and run, signal at the first checkpoint, resume,
status, serial parity, generation-by-generation comparison) are written
once below; each arm states its spec, its environment and its extra
checks.  ``identity`` runs the same campaigns and the paper's analysis
passes from ``BASE_DIR`` (a checkout of another commit, such as a git
worktree of the merge-base) and from this tree, and requires every
output to match byte for byte.

Children see only ``REPRO_DATA_DIR`` of the caller's ``REPRO_*``
variables, plus what an arm sets.  Every child starts in its own
session, and every process group the driver started is killed when an
arm ends, pass or fail.  Linux only: two checks read ``/proc``.
Stdlib only; exits 0 when every arm passed, 1 when one failed and 2 on
a usage error.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = ("usage: smoke.py ARM [ARM ...] | "
         "smoke.py identity BASE_DIR [V4_PRESET] [V6_PRESET]")

V4 = ["--preset", "tiny", "--protocol", "http", "--phi", "0.95",
      "--reseed-mode", "interval", "--reseed-interval", "0",
      "--batch-size", "16384"]
SERIAL_2x4 = V4 + ["--waves", "2", "--shards", "4", "--executor", "serial"]
DIST_2x4 = V4 + ["--waves", "2", "--shards", "4",
                 "--executor", "distributed"]
DIST_3x6 = V4 + ["--waves", "3", "--shards", "6",
                 "--executor", "distributed"]
SERIAL_3x6 = V4 + ["--waves", "3", "--shards", "6", "--executor", "serial"]
# Each shard stalls a second, so a signal a second after the first
# checkpoint lands mid-campaign; no result changes, and resumes skip it.
STALL = "stall@*:attempts=*:delay=1"


class Failure(Exception):
    """A check of an arm did not hold."""


def check(condition, message):
    if not condition:
        raise Failure(message)


def step(message):
    print(f"== {message}", flush=True)


# -- processes ---------------------------------------------------------

_started: list[subprocess.Popen] = []


def spawn(module, *args, tree=ROOT, env=None, **popen):
    """Start ``python -m MODULE ARGS`` in ``tree``, in its own session."""
    child = {k: v for k, v in os.environ.items()
             if not k.startswith("REPRO_") or k == "REPRO_DATA_DIR"}
    child["PYTHONPATH"] = str(Path(tree) / "src")
    child.update(env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *map(str, args)], cwd=tree,
        env=child, start_new_session=True, **popen)
    _started.append(proc)
    return proc


def run(module, *args, ok=True, echo=False, **kw):
    """Run to completion; ``(returncode, stdout)``, the stdout printed
    too with ``echo``.  With ``ok`` a non-zero exit is a failure."""
    proc = spawn(module, *args, stdout=subprocess.PIPE, **kw)
    out = proc.communicate()[0].decode()
    if echo:
        print(out, end="", flush=True)
    if ok:
        check(proc.returncode == 0,
              f"{module} {' '.join(map(str, args))} exited "
              f"{proc.returncode}")
    return proc.returncode, out


def reap():
    """Kill every process group started so far, and wait for each."""
    while _started:
        proc = _started.pop()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()


def group_alive(pgid):
    """Pids of the live (not zombie) members of process group ``pgid``."""
    alive = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited since listdir
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


def no_listen_socket(pid):
    """None of ``pid``'s sockets is a TCP LISTEN (``0A``) row: forked
    workers each get a socketpair end, so nothing local can dial in."""
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
    check(not held, f"coordinator pid {pid} listens on socket inode(s) {held}")
    print(f"   coordinator pid {pid}: {len(inodes)} socket(s), none listening")


# -- the shared campaign steps -----------------------------------------

def orch(*args, **kw):
    return run("repro.orchestrator", *args, **kw)


def status(d, tree=ROOT):
    return orch("status", "--dir", d, "--json", tree=tree)[1]


def campaign(d, spec, env=None, run_args=(), tree=ROOT):
    """Plan and run a campaign to the end; its ``status --json``."""
    orch("plan", "--dir", d, *spec, tree=tree)
    orch("run", "--dir", d, *run_args, env=env, tree=tree)
    return status(d, tree)


def kill_and_resume(d, spec, env=None, *, sig=signal.SIGTERM, settle=1.0,
                    before_signal=None, resume_args=(), resume_env=None):
    """Plan, run in the background, send ``sig`` once the first
    checkpoint exists and ``settle`` seconds more have passed, check
    that the killed coordinator left no live worker and an unfinished
    campaign, then resume; the resumed ``status --json``."""
    orch("plan", "--dir", d, *spec)
    proc = spawn("repro.orchestrator", "run", "--dir", d, env=env,
                 stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while not list(Path(d).glob("checkpoint.*.npz")):
        check(proc.poll() is None,
              f"the run exited {proc.returncode} before its first checkpoint")
        check(time.monotonic() < deadline,
              "no checkpoint appeared within 60s")
        time.sleep(0.1)
    if before_signal is not None:
        before_signal(proc.pid)
    time.sleep(settle)
    proc.send_signal(sig)
    print(f"   interrupted run exited with {proc.wait()}")
    # Forked workers share the coordinator's process group; none may
    # outlive it by more than a moment.
    deadline = time.monotonic() + 5
    while (alive := group_alive(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.1)
    check(not alive, f"workers {alive} of the killed run were alive 5s later")
    mid = json.loads(status(d))
    check(not mid["finished"], "campaign finished before the signal")
    position = mid["position"]
    print(f"   killed at wave {position['wave']} shard {position['shard']} "
          f"({mid['waves_completed']} wave(s) complete)")
    orch("resume", "--dir", d, *resume_args, env=resume_env)
    return status(d)


def same_text(a, b, what):
    """``a == b``, or a failure that shows their unified diff."""
    if a != b:
        diff = difflib.unified_diff(a.splitlines(), b.splitlines(),
                                    "expected", "got", lineterm="", n=1)
        print("\n".join(list(diff)[:60]), file=sys.stderr)
        raise Failure(f"{what} differs")


def same_bytes(a, b):
    data_a, data_b = Path(a).read_bytes(), Path(b).read_bytes()
    if data_a != data_b:
        at = next((i for i, (x, y) in enumerate(zip(data_a, data_b))
                   if x != y), min(len(data_a), len(data_b)))
        raise Failure(f"{a} and {b} differ at byte {at} "
                      f"(sizes {len(data_a)}, {len(data_b)})")


def journal(d):
    """The journaled generation file names of ``d``, oldest first."""
    with open(Path(d) / "checkpoints.json") as fh:
        entries = json.load(fh)["generations"]
    return [e["file"] for e in sorted(entries, key=lambda e: e["gen"])]


def same_generations(ref, d):
    """The same journaled generations, byte for byte, and no other
    generation file on disk; the number compared."""
    names = journal(ref)
    check(names, f"{ref} journals no checkpoint generation")
    check(journal(d) == names,
          f"journaled generations {journal(d)} != reference {names}")
    on_disk = sorted(p.name for p in Path(d).glob("checkpoint.*.npz"))
    check(on_disk == sorted(names),
          f"generation files on disk {on_disk} != journal {names}")
    for name in names:
        same_bytes(Path(ref) / name, Path(d) / name)
    return len(names)


def serial_parity(dist, serial, keys=("waves", "totals")):
    """Every computed number matches the serial run (the specs differ
    in their executor field)."""
    dist, serial = json.loads(dist), json.loads(serial)
    for key in keys:
        same_text(json.dumps(serial[key], indent=1),
                  json.dumps(dist[key], indent=1), f"{key} vs serial")
    print(f"   serial parity on {len(serial['waves'])} waves: "
          f"{', '.join(keys)}")


# -- arms --------------------------------------------------------------

def arm_orchestrator(w):
    # Paced at 150k probes/s a wave takes ~10 s, so the SIGTERM lands
    # mid-wave; pacing changes no result, so the rest runs unpaced.
    step("run + SIGTERM mid-wave + resume; vs an uninterrupted run")
    spec = SERIAL_2x4 + ["--probes-per-sec", "150000"]
    resumed = kill_and_resume(w / "killed", spec, settle=2,
                              resume_args=["--no-pace"])
    same_text(campaign(w / "ref", spec, run_args=["--no-pace"]), resumed,
              "resumed status")


def arm_ipv6(w):
    # ~4.5k probes a wave at 400/s: a wave takes ~10 s.
    spec = ["--preset", "v6-tiny", "--protocol", "http", "--phi", "0.9",
            "--waves", "2", "--reseed-mode", "interval",
            "--reseed-interval", "0", "--shards", "4",
            "--samples-per-prefix", "16", "--batch-size", "4096"]
    serial = spec + ["--executor", "serial", "--probes-per-sec", "400"]
    step("v6 serial run + SIGTERM mid-wave + resume; vs uninterrupted")
    resumed = kill_and_resume(w / "killed", serial, settle=2,
                              resume_args=["--no-pace"])
    check(json.loads(resumed)["spec"]["family"] == "v6", "not a v6 campaign")
    ref = campaign(w / "ref", serial, run_args=["--no-pace"])
    same_text(ref, resumed, "resumed status")
    step("distributed executor: the same wave accounting")
    dist = campaign(w / "dist", spec + ["--executor", "distributed"],
                    env={"REPRO_DIST_WORKERS": "2"})
    serial_parity(dist, ref, keys=("totals", "waves", "announced_addresses",
                                   "waves_completed"))
    step("a walk past 2^32 coordinates: one error line, exit 2, no debris")
    for executor in ("serial", "distributed"):
        d = w / f"oversized-{executor}"
        orch("plan", "--dir", d, *spec, "--executor", executor,
             "--samples-per-prefix", str(1 << 40))
        proc = spawn("repro.orchestrator", "run", "--dir", d,
                     env={"REPRO_DIST_WORKERS": "2"},
                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        out = proc.communicate()[0].decode()
        errors = [line for line in out.splitlines()
                  if line.startswith("error:")]
        check(proc.returncode == 2, f"{executor}: run exited "
              f"{proc.returncode}, not 2:\n{out[-2000:]}")
        check(len(errors) == 1 and "Traceback" not in out,
              f"{executor}: not one error line and no traceback:\n{out}")
        check(not list(d.glob("checkpoint.*.npz")),
              f"{executor}: the refused run left a checkpoint")
        alive = group_alive(proc.pid)
        check(not alive, f"{executor}: workers {alive} outlived the run")
        print(f"   {executor}: {errors[0]}")


def arm_distributed(w):
    step("2 workers, crash@1: SIGTERM mid-wave + resume")
    resumed = kill_and_resume(
        w / "killed", DIST_3x6, before_signal=no_listen_socket,
        env={"REPRO_DIST_WORKERS": "2",
             "REPRO_FAULT_PLAN": f"crash@1,{STALL}"})
    step("uninterrupted distributed run spawns one fleet")
    ref = campaign(w / "ref", DIST_3x6, env={"REPRO_OBS": "events",
                                             "REPRO_DIST_WORKERS": "2"})
    with open(w / "ref" / "events.jsonl") as fh:
        spawns = sum(json.loads(line)["type"] == "worker_spawn"
                     for line in fh)
    check(spawns <= 2, f"{spawns} worker spawns for a fleet of 2")
    print(f"   {spawns} worker spawn(s) across the run (fleet of 2)")
    same_text(ref, resumed, "resumed status")
    step("serial run")
    serial_parity(ref, campaign(w / "serial", SERIAL_3x6))


def arm_chaos(w):
    step("undisturbed distributed reference")
    ref = campaign(w / "ref", DIST_2x4, env={"REPRO_DIST_WORKERS": "2"})
    # Each plan sabotages a different shard in a different way; the
    # tight shard deadline lets speculation rescue the hang in seconds.
    plans = {"crash": "crash@1", "hang": "hang@2", "corrupt": "corrupt@0",
             "mid_result": "mid_result@3",
             "combined": "crash@0,corrupt@2,mid_result@1"}
    chaos = {"REPRO_DIST_WORKERS": "2", "REPRO_DIST_SHARD_DEADLINE": "2"}
    for name, plan in plans.items():
        step(f"fault plan {name!r}: {plan}")
        same_text(ref, campaign(w / name, DIST_2x4,
                                env=dict(chaos, REPRO_FAULT_PLAN=plan)),
                  f"status under {plan}")
    step("SIGTERM + resume under a combined fault plan")
    resumed = kill_and_resume(
        w / "killed", DIST_2x4,
        env=dict(chaos, REPRO_FAULT_PLAN=f"crash@1,corrupt@3,{STALL}"),
        resume_env=dict(chaos, REPRO_FAULT_PLAN="crash@1,corrupt@3"))
    same_text(ref, resumed, "resumed status")
    step("serial run")
    serial_parity(ref, campaign(w / "serial", SERIAL_2x4))


def listen_worker(w, name, secret):
    """Start a ``--listen`` worker; the ``127.0.0.1:PORT`` it announces."""
    out = w / f"{name}.out"
    with open(out, "w") as fh:
        spawn("repro.scan.distributed", "--listen", "127.0.0.1:0",
              env={"REPRO_DIST_SECRET": secret}, stdout=fh,
              stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 10
    while not (found := re.search(r"listening on (127\.0\.0\.1:\d+)$",
                                  out.read_text(), re.M)):
        check(time.monotonic() < deadline,
              f"worker {name} never announced a port")
        time.sleep(0.1)
    return found.group(1)


def arm_remote_fleet(w):
    key = {"REPRO_DIST_SECRET": "smoke-fleet-key"}
    step("undisturbed spawn-only distributed reference")
    ref = campaign(w / "ref", DIST_2x4, env=dict(key, REPRO_DIST_WORKERS="2"))
    book = ",".join(listen_worker(w, n, key["REPRO_DIST_SECRET"])
                    for n in ("a", "b"))
    print(f"   address book: {book}")
    bad = listen_worker(w, "bad", "not-the-key")
    arms = {
        "remote-only fleet": dict(REPRO_DIST_WORKERS="2",
                                  REPRO_DIST_ADDRESS_BOOK=book),
        "mixed fleet, auth_fail spawn": dict(
            REPRO_DIST_WORKERS="3", REPRO_DIST_ADDRESS_BOOK=book,
            REPRO_FAULT_PLAN="auth_fail@0"),
        "a wrong-secret remote": dict(REPRO_DIST_WORKERS="3",
                                      REPRO_DIST_ADDRESS_BOOK=f"{book},{bad}"),
    }
    for i, (name, env) in enumerate(arms.items()):
        step(name)
        same_text(ref, campaign(w / f"arm{i}", DIST_2x4, env=dict(key, **env)),
                  f"status of the {name}")
    # Two dedicated remotes: SIGKILLing the run kills the coordinator
    # and none of the workers, which the resume dials again.
    step("SIGKILL the coordinator, resume over the address book")
    fleet = dict(key, REPRO_DIST_WORKERS="2", REPRO_DIST_ADDRESS_BOOK=",".join(
        listen_worker(w, n, key["REPRO_DIST_SECRET"]) for n in ("s1", "s2")))
    resumed = kill_and_resume(
        w / "killed", DIST_2x4, sig=signal.SIGKILL,
        env=dict(fleet, REPRO_FAULT_PLAN=STALL),
        resume_env=fleet)
    same_text(ref, resumed, "resumed status")
    step("serial run")
    serial_parity(ref, campaign(w / "serial", SERIAL_2x4))


def latest_generation(d):
    return Path(d) / journal(d)[-1]


def arm_obs(w):
    step("REPRO_OBS=off, no faults")
    off = campaign(w / "off", DIST_3x6,
                   env={"REPRO_OBS": "off", "REPRO_DIST_WORKERS": "2"})
    check(not (w / "off" / "events.jsonl").exists(),
          "REPRO_OBS=off wrote events.jsonl")
    step("REPRO_OBS=full under crash@1,stall@4")
    full = campaign(w / "full", DIST_3x6, env={
        "REPRO_OBS": "full", "REPRO_DIST_WORKERS": "2",
        "REPRO_FAULT_PLAN": "crash@1,stall@4"})
    run("repro.obs", "validate", "--dir", w / "full", echo=True)
    report = run("repro.obs", "report", "--dir", w / "full", echo=True)[1]
    check("per-wave:" in report and "per-shard:" in report,
          "the report lacks its per-wave or per-shard table")
    with open(w / "full" / "progress.json") as fh:
        telemetry = json.load(fh)["executor_telemetry"]
    check(telemetry.get("faults_armed", 0) >= 1
          and telemetry.get("failures", 0) >= 1,
          f"fault telemetry missing from progress.json: {telemetry}")
    print(f"   executor_telemetry: {telemetry}")
    same_text(off, full, "status with REPRO_OBS=full")
    same_bytes(latest_generation(w / "off"), latest_generation(w / "full"))
    step("SIGTERM under REPRO_OBS=events, resume under full")
    toggled = kill_and_resume(
        w / "toggle", DIST_3x6,
        env={"REPRO_OBS": "events", "REPRO_DIST_WORKERS": "2",
             "REPRO_FAULT_PLAN": STALL},
        resume_env={"REPRO_OBS": "full", "REPRO_DIST_WORKERS": "2"})
    same_text(off, toggled, "toggled status")
    same_bytes(latest_generation(w / "off"), latest_generation(w / "toggle"))
    run("repro.obs", "validate", "--dir", w / "toggle", echo=True)
    with open(w / "toggle" / "events.jsonl") as fh:
        runs = {json.loads(line)["run"] for line in fh}
    check(len(runs) == 2, f"{len(runs)} run ids, not 2 (kill + resume)")


def arm_storage_chaos(w):
    step("reference: no faults")
    ref = campaign(w / "ref", SERIAL_2x4)
    orch("verify", "--dir", w / "ref")
    latest = int(journal(w / "ref")[-1].split(".")[1])
    print(f"   {len(journal(w / 'ref'))} generation(s) kept, latest {latest}")

    def same_as_ref(d):
        same_generations(w / "ref", d)
        same_text(ref, status(d), "status")
        orch("verify", "--dir", d)

    def faulted(name, plan, **kw):
        orch("plan", "--dir", w / name, *SERIAL_2x4)
        return orch("run", "--dir", w / name,
                    env={"REPRO_FAULT_PLAN": plan}, **kw)[0]

    def verify_fails(d, *args):
        check(orch("verify", "--dir", d, *args, ok=False)[0] != 0,
              f"verify {' '.join(args)} reported no problem in {d.name}")

    step("enospc + fsync_fail, absorbed by the save retry")
    faulted("retry", "enospc@save-1,fsync_fail@save-3")
    same_as_ref(w / "retry")
    step("rename_crash: the run dies; resume sweeps and continues")
    for name in ("crash", "lost"):
        check(faulted(name, "rename_crash@save-2", ok=False,
                      stderr=subprocess.DEVNULL) != 0,
              "the rename_crash run did not die")
    check(list((w / "crash").glob("checkpoint.*.tmp.npz")),
          "the crash left no orphaned tmp behind")
    orch("resume", "--dir", w / "crash")
    same_as_ref(w / "crash")
    # progress.json is atomic but not durable: a crash may leave it
    # missing or stale.
    step("progress.json deleted or truncated after the crash")
    progress = w / "lost" / "progress.json"
    check(progress.stat().st_size > 0, "the crash left no progress.json")
    for name in ("deleted", "truncated"):
        shutil.copytree(w / "lost", w / name)
    (w / "deleted" / "progress.json").unlink()
    os.truncate(w / "truncated" / "progress.json",
                progress.stat().st_size // 2)
    for name in ("deleted", "truncated"):
        orch("resume", "--dir", w / name)
        same_as_ref(w / name)
    step("bitrot on the latest generation, repaired by verify --repair")
    faulted("rot", f"bitrot@gen-{latest}")
    verify_fails(w / "rot")
    verify_fails(w / "rot", "--repair")
    check((w / "rot" / "quarantine" / f"checkpoint.{latest}.npz").exists(),
          "repair did not quarantine the rotted generation")
    orch("verify", "--dir", w / "rot")
    orch("resume", "--dir", w / "rot")
    same_as_ref(w / "rot")
    step("torn final write, rolled back by resume")
    faulted("torn", f"torn_write@save-{latest - 1}")
    verify_fails(w / "torn")
    orch("resume", "--dir", w / "torn")
    check((w / "torn" / "quarantine" / f"checkpoint.{latest}.npz").exists(),
          "resume did not quarantine the torn generation")
    same_as_ref(w / "torn")


def arm_identity(w, base_dir, v4="tiny", v6="v6-tiny"):
    base = Path(base_dir).resolve()
    check((base / "src" / "repro").is_dir(), f"{base} is no checkout")
    # Every generation is kept, so every one is compared.
    env = {"REPRO_CKPT_KEEP": "1000", "REPRO_DIST_WORKERS": "2"}
    common = ["--protocol", "http", "--phi", "0.9", "--waves", "4",
              "--reseed-mode", "interval", "--reseed-interval", "2",
              "--shards", "8"]
    explore = ["--use-blocklist", "--explore-frac", "0.01"]
    samples = ["--samples-per-prefix", "64"]
    arms = {
        "v4-serial": ["--preset", v4, "--executor", "serial", *explore],
        "v6-serial": ["--preset", v6, "--executor", "serial", *samples],
        "v4-distributed": ["--preset", v4, "--executor", "distributed",
                           *explore],
        "v6-distributed": ["--preset", v6, "--executor", "distributed",
                           *samples],
        "v4-distributed-faults": ["--preset", v4, "--executor",
                                  "distributed", *explore],
    }
    plans = {"v4-distributed-faults":
             "crash@1,corrupt@3,mid_result@5,spawn_crash@2"}
    # Telemetry that follows the clock, not the plan (two runs of one
    # fault plan may differ in it), and the passes, from this tree.
    clocked, passes = json.loads(subprocess.check_output(
        [sys.executable, "-c", "import json; from repro.scan.fleet_policy "
         "import CLOCKED_TELEMETRY as C; from repro.analysis import PASSES; "
         "print(json.dumps([list(C), list(PASSES)]))"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))))
    for name, spec in arms.items():
        step(name)
        plan = plans.get(name)
        dirs = {}
        for side, tree in (("base", base), ("head", ROOT)):
            dirs[side] = w / f"{side}-{name}"
            orch("plan", "--dir", dirs[side], *common, *spec, tree=tree)
            orch("run", "--dir", dirs[side], tree=tree,
                 env=dict(env, REPRO_FAULT_PLAN=plan) if plan else env)
        for doc in ("status.json", "campaign.json", "checkpoints.json"):
            same_bytes(dirs["base"] / doc, dirs["head"] / doc)
        gens = same_generations(dirs["base"], dirs["head"])
        if plan:
            telemetry = []
            for d in dirs.values():
                with open(d / "progress.json") as fh:
                    telemetry.append({
                        k: v for k, v in json.load(fh)[
                            "executor_telemetry"].items()
                        if k not in clocked})
            same_text(*(json.dumps(t, indent=1, sort_keys=True)
                        for t in telemetry), "executor_telemetry")
        print(f"   identical: 3 documents and {gens} checkpoint generations")
    step(f"analysis: {len(passes)} passes on {v4}")
    for side, tree in (("base", base), ("head", ROOT)):
        run("repro.analysis", "--preset", v4, "--out", w / f"{side}-analysis",
            *passes, tree=tree)
    for name in passes:
        same_bytes(w / "base-analysis" / f"{name}.txt",
                   w / "head-analysis" / f"{name}.txt")


ARMS = {
    "orchestrator": arm_orchestrator,
    "ipv6": arm_ipv6,
    "distributed": arm_distributed,
    "chaos": arm_chaos,
    "remote_fleet": arm_remote_fleet,
    "obs": arm_obs,
    "storage_chaos": arm_storage_chaos,
    "identity": arm_identity,
}


def parse(argv):
    """``[(arm, args)]``, or ``SystemExit(2)`` after the usage line."""
    if argv[:1] == ["identity"] and 2 <= len(argv) <= 4:
        return [("identity", argv[1:])]
    bad = [a for a in argv if a not in ARMS or a == "identity"]
    if not argv or bad:
        print(USAGE, file=sys.stderr)
        print(f"arms: {', '.join(ARMS)}; identity runs alone with its "
              f"BASE_DIR" + (f" (got {', '.join(bad)})" if bad else ""),
              file=sys.stderr)
        raise SystemExit(2)
    return [(a, []) for a in argv]


def main(argv=None):
    arms = parse(sys.argv[1:] if argv is None else list(argv))
    # A cancelled job still kills what the driver started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    failed = []
    for name, args in arms:
        print(f"=== {name}", flush=True)
        start = time.monotonic()
        with tempfile.TemporaryDirectory(prefix=f"smoke-{name}-") as work:
            try:
                ARMS[name](Path(work), *args)
            except Failure as exc:
                print(f"FAIL {name}: {exc}", file=sys.stderr, flush=True)
                failed.append(name)
            finally:
                reap()
        print(f"=== {name} {'FAILED' if name in failed else 'OK'} in "
              f"{time.monotonic() - start:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
