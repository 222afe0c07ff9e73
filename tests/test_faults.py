"""Fault plane unit tests: plan syntax, matching, recovery arithmetic.

Everything here is pure — no sockets, no subprocesses, fake clocks
only.  ``test_parse`` holds the good and bad entries of both planes'
syntax.  The process-level chaos matrices that *use* these plans live
in ``tests/test_chaos.py`` and ``tests/test_storage_chaos.py``.
"""

import re

import pytest

import repro.env as env
from repro.scan.faults import (
    FAULT_KINDS,
    WORKER_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    RespawnGovernor,
    backoff_delay,
    deadline_action,
)


# ---------------------------------------------------------------------------
# Plan syntax
# ---------------------------------------------------------------------------

#: Entries in canonical form and the fault each parses to:
#: ``to_string()`` gives each entry back byte for byte.
GOOD = {
    "crash@2": FaultSpec("crash", 2),
    "stall@1:attempts=3:delay=2.5": FaultSpec(
        "stall", 1, attempts=3, delay=2.5
    ),
    "hang@*:attempts=*": FaultSpec("hang", None, attempts=None),
    "hang@1": FaultSpec("hang", 1),
    "stall@2:delay=1": FaultSpec("stall", 2, delay=1.0),
    "hang@1:attempts=*": FaultSpec("hang", 1, attempts=None),
    "stall@0:delay=1.5": FaultSpec("stall", 0, delay=1.5),
    "spawn_crash@4:attempts=2": FaultSpec("spawn_crash", 4, attempts=2),
    **{f"{kind}@0": FaultSpec(kind, 0) for kind in WORKER_FAULT_KINDS},
    "spawn_crash@0": FaultSpec("spawn_crash", 0),
    "auth_fail@0": FaultSpec("auth_fail", 0),
    "torn_write@save-2": FaultSpec("torn_write", 2),
    "bitrot@gen-3:offset=17": FaultSpec("bitrot", 3, offset=17),
    "enospc@save-0": FaultSpec("enospc", 0),
    "enospc@save-1": FaultSpec("enospc", 1),
    "fsync_fail@save-1": FaultSpec("fsync_fail", 1),
    "rename_crash@save-2": FaultSpec("rename_crash", 2),
    "bitrot@gen-2": FaultSpec("bitrot", 2),
}

#: Worker and spawn entries no parser accepts.
WORKER_BAD = [
    "crash",                # no @shard
    "crash@x",              # non-integer shard
    "tornado@1",            # unknown kind
    "crash@1:attempts",     # option without value
    "crash@1:color=red",    # unknown option
    "crash@-1",             # negative shard
    "crash@1:attempts=0",   # zero attempts
    "spawn_crash@*",        # spawn faults need an ordinal
    "stall@0:delay=nan",    # non-finite delay
    "stall@0:delay=inf",
]

#: Storage entries no parser accepts.
STORAGE_BAD = [
    "melt@save-1",          # unknown kind
    "enospc",               # no site
    "enospc@shard-1",       # unknown site
    "enospc@save-x",        # non-integer position
    "enospc@save--1",       # negative position
    "bitrot@save-1",        # bitrot fires at gen sites
    "torn_write@gen-1",     # save kinds fire at save sites
    "bitrot@gen-0",         # generations are 1-based
    "enospc@save-1:offset=3",  # offset is bitrot-only
    "bitrot@gen-1:depth=3",    # unknown option
]


@pytest.mark.parametrize("entry", [*GOOD, *WORKER_BAD, *STORAGE_BAD])
def test_parse(entry):
    """Each good entry parses to its fault and back to itself; each bad
    one raises a ValueError that names it."""
    if entry in GOOD:
        (spec,) = FaultPlan.parse(entry).specs
        assert spec == GOOD[entry]
        assert spec.to_string() == entry
    else:
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            FaultPlan.parse(entry)


class TestPlanParsing:
    def test_single_entry_defaults(self):
        plan = FaultPlan.parse("crash@2")
        assert plan.specs == (FaultSpec("crash", 2),)

    def test_full_entry(self):
        (spec,) = FaultPlan.parse("stall@1:attempts=3:delay=2.5").specs
        assert spec == FaultSpec(
            "stall", 1, attempts=3, delay=2.5
        )

    def test_wildcard_shard_and_unbounded_attempts(self):
        (spec,) = FaultPlan.parse("hang@*:attempts=*").specs
        assert spec.at is None and spec.attempts is None

    def test_separators_and_whitespace(self):
        plan = FaultPlan.parse(" crash@0 ; hang@1 , stall@2:delay=1 ")
        assert [s.kind for s in plan.specs] == ["crash", "hang", "stall"]

    def test_empty_and_none_mean_no_faults(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ,  ; ")

    def test_roundtrip_through_string(self):
        text = "crash@2,hang@1:attempts=*,stall@0:delay=1.5,spawn_crash@4:attempts=2"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.to_string()) == plan
        assert plan.to_string() == text

    @pytest.mark.parametrize("bad", WORKER_BAD)
    def test_bad_entries_raise(self, bad):
        # Through the knob's resolver the message names its source too.
        with pytest.raises(ValueError, match="from argument") as excinfo:
            env.fault_plan(bad)
        assert repr(bad) in str(excinfo.value)

    def test_every_kind_parses(self):
        for kind in WORKER_FAULT_KINDS:
            assert FaultPlan.parse(f"{kind}@0")
        assert FaultPlan.parse("spawn_crash@0")
        assert FaultPlan.parse("auth_fail@0")

    def test_auth_fail_needs_explicit_ordinal(self):
        with pytest.raises(ValueError, match="spawn ordinal"):
            FaultPlan.parse("auth_fail@*")


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


class TestMatching:
    def test_first_attempt_only_by_default(self):
        plan = FaultPlan.parse("crash@2")
        assert plan.shard_fault(2, 0) is not None
        assert plan.shard_fault(2, 1) is None
        assert plan.shard_fault(1, 0) is None

    def test_bounded_attempts(self):
        plan = FaultPlan.parse("crash@0:attempts=2")
        assert plan.shard_fault(0, 0) and plan.shard_fault(0, 1)
        assert plan.shard_fault(0, 2) is None

    def test_unbounded_attempts_poison_shard(self):
        plan = FaultPlan.parse("crash@0:attempts=*")
        assert all(plan.shard_fault(0, k) for k in range(50))

    def test_wildcard_shard(self):
        plan = FaultPlan.parse("stall@*:delay=1")
        assert plan.shard_fault(0, 0) and plan.shard_fault(17, 0)

    def test_first_match_wins(self):
        plan = FaultPlan.parse("crash@1,hang@1:attempts=*")
        assert plan.shard_fault(1, 0).kind == "crash"
        assert plan.shard_fault(1, 1).kind == "hang"

    def test_spawn_fault_by_ordinal(self):
        plan = FaultPlan.parse("spawn_crash@3:attempts=2")
        assert plan.spawn_fault(2) is None
        assert plan.spawn_fault(3) and plan.spawn_fault(4)
        assert plan.spawn_fault(5) is None

    def test_spawn_faults_never_match_shards_and_vice_versa(self):
        plan = FaultPlan.parse("spawn_crash@0:attempts=*,crash@0")
        assert plan.shard_fault(0, 0).kind == "crash"
        assert plan.spawn_fault(0).kind == "spawn_crash"

    def test_planes_ignore_each_others_entries(self):
        plan = FaultPlan.parse(
            "crash@2,spawn_crash@2,torn_write@save-2,bitrot@gen-2"
        )
        assert plan.shard_fault(2, 0).kind == "crash"
        assert plan.spawn_fault(2).kind == "spawn_crash"
        assert plan.save_fault(2).kind == "torn_write"
        assert plan.gen_fault(2).kind == "bitrot"
        plan = FaultPlan.parse("hang@*:attempts=*,enospc@save-0")
        assert plan.save_fault(0).kind == "enospc"
        assert plan.save_fault(1) is None and plan.gen_fault(1) is None
        assert plan.spawn_fault(0) is None

    def test_auth_fail_matches_spawn_ordinals_like_spawn_crash(self):
        plan = FaultPlan.parse("auth_fail@1:attempts=2")
        assert plan.spawn_fault(0) is None
        assert plan.spawn_fault(1).kind == "auth_fail"
        assert plan.spawn_fault(2).kind == "auth_fail"
        assert plan.spawn_fault(3) is None
        assert plan.shard_fault(1, 0) is None


# ---------------------------------------------------------------------------
# Recovery arithmetic (deterministic clocks)
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_no_failures_no_delay(self):
        assert backoff_delay(0, 0.05, 2.0) == 0.0
        assert backoff_delay(-1, 0.05, 2.0) == 0.0

    def test_exponential_doubling(self):
        delays = [backoff_delay(k, 0.05, 100.0) for k in range(1, 6)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8]

    def test_cap(self):
        assert backoff_delay(30, 0.05, 2.0) == 2.0

    def test_zero_base_disables(self):
        assert backoff_delay(5, 0.0, 2.0) == 0.0


class TestDeadlineAction:
    def test_disabled_deadline_is_always_ok(self):
        assert deadline_action(1e9, 0.0, None) == "ok"

    def test_within_deadline(self):
        assert deadline_action(10.0, 9.5, 1.0) == "ok"
        assert deadline_action(11.0, 10.0, 1.0) == "ok"  # exactly at

    def test_past_deadline_speculates(self):
        assert deadline_action(11.5, 10.0, 1.0) == "speculate"

    def test_far_past_deadline_kills(self):
        assert deadline_action(13.01, 10.0, 1.0) == "kill"
        assert deadline_action(12.99, 10.0, 1.0) == "speculate"

    def test_custom_hard_kill_factor(self):
        assert deadline_action(12.5, 10.0, 1.0, hard_kill_factor=2.0) == "kill"


class TestRespawnGovernor:
    def test_success_resets_consecutive_failures(self):
        gov = RespawnGovernor(base=0.05, crash_loop_threshold=3)
        gov.record_failure()
        gov.record_failure()
        assert not gov.in_crash_loop
        gov.record_success()
        assert gov.failures == 0
        gov.record_failure()
        assert not gov.in_crash_loop

    def test_crash_loop_trips_at_threshold(self):
        gov = RespawnGovernor(crash_loop_threshold=3)
        for _ in range(3):
            assert not gov.in_crash_loop
            gov.record_failure()
        assert gov.in_crash_loop

    def test_delay_follows_backoff(self):
        gov = RespawnGovernor(base=0.1, cap=0.25, crash_loop_threshold=99)
        assert gov.delay() == 0.0
        gov.record_failure()
        assert gov.delay() == 0.1
        gov.record_failure()
        assert gov.delay() == 0.2
        gov.record_failure()
        assert gov.delay() == 0.25  # capped

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RespawnGovernor(crash_loop_threshold=0)


# ---------------------------------------------------------------------------
# Env knobs
# ---------------------------------------------------------------------------


class TestEnvKnobs:
    def test_fault_plan_reads_env(self, monkeypatch):
        monkeypatch.setenv(env.ENV_FAULT_PLAN, "crash@1,hang@2")
        plan = env.fault_plan()
        assert [s.kind for s in plan.specs] == ["crash", "hang"]

    def test_fault_plan_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(env.ENV_FAULT_PLAN, "crash@1")
        assert env.fault_plan("hang@0").specs[0].kind == "hang"
        passthrough = FaultPlan.parse("stall@0")
        assert env.fault_plan(passthrough) is passthrough

    def test_fault_plan_default_empty(self, monkeypatch):
        monkeypatch.delenv(env.ENV_FAULT_PLAN, raising=False)
        assert not env.fault_plan()

    def test_bad_fault_plan_names_source(self, monkeypatch):
        monkeypatch.setenv(env.ENV_FAULT_PLAN, "tornado@1")
        with pytest.raises(ValueError, match=env.ENV_FAULT_PLAN):
            env.fault_plan()

    def test_shard_deadline_default_and_disable(self, monkeypatch):
        monkeypatch.delenv(env.ENV_DIST_SHARD_DEADLINE, raising=False)
        assert env.dist_shard_deadline() == 30.0
        assert env.dist_shard_deadline(0) is None
        monkeypatch.setenv(env.ENV_DIST_SHARD_DEADLINE, "2.5")
        assert env.dist_shard_deadline() == 2.5

    def test_shard_deadline_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(env.ENV_DIST_SHARD_DEADLINE, "soon")
        with pytest.raises(ValueError, match="shard deadline"):
            env.dist_shard_deadline()
        with pytest.raises(ValueError, match="shard deadline"):
            env.dist_shard_deadline(-1)
        # A nan deadline would compare false forever: never speculate.
        for bad in ("nan", "inf"):
            monkeypatch.setenv(env.ENV_DIST_SHARD_DEADLINE, bad)
            with pytest.raises(ValueError, match="shard deadline"):
                env.dist_shard_deadline()

    def test_all_kinds_documented_in_module(self):
        import repro.scan.faults as faults

        for kind in FAULT_KINDS:
            assert kind in faults.__doc__
