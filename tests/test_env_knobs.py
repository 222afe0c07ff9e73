"""Validated environment knobs: clear errors instead of silent fallbacks."""

import pytest

from repro.census.loader import get_dataset
from repro.env import (
    ckpt_keep,
    data_dir,
    dist_address_book,
    dist_secret,
    dist_workers,
    obs_mode,
)
from repro.orchestrator import CampaignSpec


class TestScanShards:
    """The shard count is a spec field; no environment variable sets it."""

    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_SHARDS", "8")
        assert CampaignSpec().resolved().shards == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_SHARDS", "8")
        assert CampaignSpec(shards=3).resolved().shards == 3

    @pytest.mark.parametrize("bad", ["abc", "", "2.5", "0x4"])
    def test_non_integer_rejected_with_source(self, bad):
        with pytest.raises(ValueError) as excinfo:
            CampaignSpec(shards=bad)
        message = str(excinfo.value)
        assert "shards must be a positive integer" in message
        assert repr(bad) in message

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="shards must be a positive"):
            CampaignSpec(shards=int(bad))

    def test_bad_explicit_names_argument(self):
        with pytest.raises(ValueError, match="shards"):
            CampaignSpec(shards="nope")

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_integral_python_values_rejected(self, bad):
        # int() would silently truncate these; the spec must not.
        with pytest.raises(ValueError, match="positive integer"):
            CampaignSpec(shards=bad)


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
    """The executor is a spec field; no environment variable sets it."""

    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_EXECUTOR", "process")
        assert CampaignSpec().resolved().executor == "serial"

    def test_valid_values(self):
        spec = CampaignSpec(executor="process")
        assert spec.resolved().executor == "process"

    def test_distributed_accepted(self):
        spec = CampaignSpec(executor="distributed")
        assert spec.resolved().executor == "distributed"


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
