"""Validated environment knobs: clear errors instead of silent fallbacks."""

import pytest

from repro.census.loader import get_dataset
from repro.env import (
    ckpt_keep,
    data_dir,
    dist_address_book,
    dist_secret,
    dist_shard_delay,
    dist_workers,
    obs_mode,
    scan_executor,
    scan_shards,
)
from repro.orchestrator import CampaignSpec
from repro.scan.sharded import run_sharded


class TestScanShards:
    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCAN_SHARDS", raising=False)
        assert scan_shards() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_SHARDS", "8")
        assert scan_shards(3) == 3
        assert scan_shards() == 8

    def test_env_string_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_SHARDS", "4")
        assert scan_shards() == 4

    @pytest.mark.parametrize("bad", ["abc", "", "2.5", "0x4"])
    def test_non_integer_rejected_with_source(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SCAN_SHARDS", bad)
        with pytest.raises(ValueError) as excinfo:
            scan_shards()
        message = str(excinfo.value)
        assert "positive integer" in message
        assert repr(bad) in message
        assert "REPRO_SCAN_SHARDS" in message

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SCAN_SHARDS", bad)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            scan_shards()

    def test_bad_explicit_names_argument(self):
        with pytest.raises(ValueError, match=r"\(from argument\)"):
            scan_shards("nope")

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_integral_python_values_rejected(self, bad):
        # int() would silently truncate these; the knob must not.
        with pytest.raises(ValueError, match="positive integer"):
            scan_shards(bad)


class TestCkptKeep:
    def test_defaults_to_two(self, monkeypatch):
        monkeypatch.delenv("REPRO_CKPT_KEEP", raising=False)
        assert ckpt_keep() == 2

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CKPT_KEEP", "5")
        assert ckpt_keep(3) == 3
        assert ckpt_keep() == 5

    @pytest.mark.parametrize("bad", ["abc", "", "2.5"])
    def test_non_integer_rejected_with_source(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_CKPT_KEEP", bad)
        with pytest.raises(ValueError) as excinfo:
            ckpt_keep()
        message = str(excinfo.value)
        assert "positive integer" in message
        assert "REPRO_CKPT_KEEP" in message

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_non_positive_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_CKPT_KEEP", bad)
        with pytest.raises(ValueError, match="keep window must be >= 1"):
            ckpt_keep()

    def test_bad_explicit_names_argument(self):
        with pytest.raises(ValueError, match=r"\(from argument\)"):
            ckpt_keep("nope")


class TestScanExecutor:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCAN_EXECUTOR", raising=False)
        assert scan_executor() == "serial"

    def test_valid_values(self, monkeypatch):
        assert scan_executor("process") == "process"
        monkeypatch.setenv("REPRO_SCAN_EXECUTOR", "process")
        assert scan_executor() == "process"

    def test_distributed_accepted(self, monkeypatch):
        assert scan_executor("distributed") == "distributed"
        monkeypatch.setenv("REPRO_SCAN_EXECUTOR", "distributed")
        assert scan_executor() == "distributed"

    def test_bad_env_value_lists_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_EXECUTOR", "threads")
        with pytest.raises(ValueError) as excinfo:
            scan_executor()
        message = str(excinfo.value)
        assert "unknown executor 'threads'" in message
        assert "'serial'" in message and "'process'" in message
        assert "'distributed'" in message
        assert "REPRO_SCAN_EXECUTOR" in message

    def test_executors_attribute_is_registry_backed(self):
        import repro.env as env
        from repro.scan.executors import available_executors

        assert env.EXECUTORS == tuple(available_executors())
        with pytest.raises(AttributeError):
            env.NOT_A_KNOB


class TestDistWorkers:
    def test_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIST_WORKERS", raising=False)
        assert dist_workers() is None

    def test_explicit_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_WORKERS", "8")
        assert dist_workers(3) == 3
        assert dist_workers() == 8

    @pytest.mark.parametrize("bad", ["abc", "0", "-2", "1.5"])
    def test_bad_values_rejected_with_source(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_DIST_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_DIST_WORKERS"):
            dist_workers()


class TestDistAddressBook:
    def test_defaults_to_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIST_ADDRESS_BOOK", raising=False)
        assert dist_address_book() == ()

    def test_env_string_parsed(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_DIST_ADDRESS_BOOK", "10.0.0.1:9001, node-b:9002"
        )
        assert dist_address_book() == (
            ("10.0.0.1", 9001),
            ("node-b", 9002),
        )

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_ADDRESS_BOOK", "env-host:1")
        assert dist_address_book("host:7") == (("host", 7),)
        assert dist_address_book([("a", 1), "b:2"]) == (
            ("a", 1),
            ("b", 2),
        )

    @pytest.mark.parametrize(
        "bad",
        ["no-port", ":9000", "host:", "host:abc", "host:0", "host:70000"],
    )
    def test_bad_entries_rejected_with_source(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_DIST_ADDRESS_BOOK", bad)
        with pytest.raises(ValueError, match="REPRO_DIST_ADDRESS_BOOK"):
            dist_address_book()

    def test_duplicates_rejected(self):
        # A duplicate would dial the same one-session-at-a-time listen
        # worker twice and deadlock its handshake.
        with pytest.raises(ValueError, match="duplicate"):
            dist_address_book("host:9001,host:9001")


class TestDistSecret:
    def test_defaults_to_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIST_SECRET", raising=False)
        assert dist_secret() is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_SECRET", "env-secret")
        assert dist_secret("arg-secret") == "arg-secret"
        assert dist_secret() == "env-secret"

    @pytest.mark.parametrize("bad", ["", "   "])
    def test_blank_secret_rejected(self, monkeypatch, bad):
        # A set-but-blank secret would silently authenticate everyone.
        monkeypatch.setenv("REPRO_DIST_SECRET", bad)
        with pytest.raises(ValueError, match="non-empty"):
            dist_secret()


class TestDataDir:
    def test_defaults_to_data(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        assert data_dir() == "data"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", "/env/cache")
        assert data_dir("/arg/cache") == "/arg/cache"
        assert data_dir() == "/env/cache"

    @pytest.mark.parametrize("bad", ["", "   "])
    def test_blank_rejected_with_source(self, monkeypatch, bad):
        # A blank directory would silently mean the current directory.
        monkeypatch.setenv("REPRO_DATA_DIR", bad)
        with pytest.raises(ValueError, match="REPRO_DATA_DIR"):
            data_dir()
        with pytest.raises(ValueError, match="non-empty"):
            get_dataset(preset="tiny")
        with pytest.raises(ValueError, match="argument"):
            data_dir(bad)


class TestCountBackend:
    """Counting has one path; the spec's ``backend`` only records it."""

    def test_defaults_to_searchsorted(self, monkeypatch):
        # REPRO_COUNT_BACKEND is no knob: even a bogus value is ignored.
        monkeypatch.setenv("REPRO_COUNT_BACKEND", "gpu")
        assert CampaignSpec().resolved().backend == "searchsorted"

    def test_registered_names_accepted(self):
        spec = CampaignSpec(backend="searchsorted")
        assert spec.resolved().backend == "searchsorted"

    def test_bad_value_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            CampaignSpec(backend="gpu")
        message = str(excinfo.value)
        assert "backend" in message and "'gpu'" in message
        assert "searchsorted" in message


class TestDistShardDelay:
    def test_defaults_to_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIST_SHARD_DELAY", raising=False)
        assert dist_shard_delay() == 0.0

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_SHARD_DELAY", "0.5")
        assert dist_shard_delay(0.25) == 0.25
        assert dist_shard_delay() == 0.5

    @pytest.mark.parametrize("bad", ["abc", "-1", ""])
    def test_bad_values_name_the_knob(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_DIST_SHARD_DELAY", bad)
        with pytest.raises(ValueError, match="shard delay") as excinfo:
            dist_shard_delay()
        assert "REPRO_DIST_SHARD_DELAY" in str(excinfo.value)


class TestObsMode:
    def test_defaults_to_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert obs_mode() == "off"

    def test_valid_values(self, monkeypatch):
        for mode in ("off", "events", "full"):
            monkeypatch.setenv("REPRO_OBS", mode)
            assert obs_mode() == mode

    def test_case_and_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "  FULL ")
        assert obs_mode() == "full"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "full")
        assert obs_mode("events") == "events"

    def test_bad_env_value_lists_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "verbose")
        with pytest.raises(ValueError) as excinfo:
            obs_mode()
        message = str(excinfo.value)
        assert "unknown observability mode 'verbose'" in message
        assert "REPRO_OBS" in message
        assert "'events'" in message

    def test_bad_explicit_names_argument(self):
        with pytest.raises(ValueError, match=r"\(from argument\)"):
            obs_mode("nope")


def test_run_sharded_surfaces_bad_env_shards(monkeypatch):
    import numpy as np

    monkeypatch.setenv("REPRO_SCAN_SHARDS", "lots")
    with pytest.raises(ValueError, match="positive integer"):
        run_sharded(1000, np.array([1, 2, 3], dtype=np.int64))
