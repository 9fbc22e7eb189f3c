"""The deterministic fault-injection harness itself."""

import pytest

from repro.core import faults as F


def test_from_spec_parses_all_keys():
    config = F.FaultConfig.from_spec(
        "crash=0.2,hang=0.1,corrupt=0.05,seed=7,times=2,hang_seconds=3"
    )
    assert config.crash == 0.2
    assert config.hang == 0.1
    assert config.corrupt == 0.05
    assert config.seed == 7
    assert config.times == 2
    assert config.hang_seconds == 3.0
    assert config.any_enabled


def test_from_spec_empty_is_no_faults():
    config = F.FaultConfig.from_spec("")
    assert not config.any_enabled


def test_from_spec_rejects_unknown_keys():
    with pytest.raises(ValueError):
        F.FaultConfig.from_spec("crsh=0.2")
    with pytest.raises(ValueError):
        F.FaultConfig.from_spec("crash")
    with pytest.raises(ValueError):
        F.FaultConfig.from_spec("replica_kill=0.3")


def test_decisions_are_deterministic():
    config = F.FaultConfig(crash=0.5, seed=7)
    keys = [f"task-{i}" for i in range(200)]
    first = [config.should_inject("crash", k) for k in keys]
    second = [config.should_inject("crash", k) for k in keys]
    assert first == second
    # Roughly half the keys draw an injection at rate 0.5.
    assert 40 < sum(first) < 160
    # A different seed draws a different afflicted set.
    other = F.FaultConfig(crash=0.5, seed=8)
    assert first != [other.should_inject("crash", k) for k in keys]


def test_attempts_past_times_run_clean():
    config = F.FaultConfig(crash=1.0, seed=0, times=2)
    assert config.should_inject("crash", "t", attempt=1)
    assert config.should_inject("crash", "t", attempt=2)
    assert not config.should_inject("crash", "t", attempt=3)


def test_rate_zero_never_injects():
    config = F.FaultConfig(crash=0.0, hang=1.0, seed=0)
    assert not config.should_inject("crash", "anything")
    assert config.should_inject("hang", "anything")


def test_injected_context_manager_restores():
    assert F.active() is None
    config = F.FaultConfig(crash=1.0)
    with F.injected(config):
        assert F.active() is config
        with F.injected(None):
            assert F.active() is None
        assert F.active() is config
    assert F.active() is None


def test_config_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert F.config_from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "off")
    assert F.config_from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "crash=0.25,seed=3")
    config = F.config_from_env()
    assert config is not None and config.crash == 0.25 and config.seed == 3


def test_resolve_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash=0.1")
    env_config = F.resolve()
    assert env_config is not None and env_config.crash == 0.1
    installed = F.FaultConfig(hang=0.2)
    with F.injected(installed):
        assert F.resolve() is installed
        explicit = F.FaultConfig(corrupt=0.3)
        assert F.resolve(explicit) is explicit
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert F.resolve() is None


def test_crash_site_raises_and_counts():
    config = F.FaultConfig(crash=1.0, seed=0)
    with pytest.raises(F.InjectedCrash):
        F.maybe_crash_or_hang(config, "k", 1, in_worker=False)
    # Past `times`, the same task runs clean.
    F.maybe_crash_or_hang(config, "k", 2, in_worker=False)


def test_serial_hang_degrades_to_error():
    config = F.FaultConfig(hang=1.0, seed=0, hang_seconds=60.0)
    with pytest.raises(F.InjectedHang):
        # Must return promptly: no process boundary, so no sleep.
        F.maybe_crash_or_hang(config, "k", 1, in_worker=False)


def test_corrupt_flips_payload_after_checksum():
    config = F.FaultConfig(corrupt=1.0, seed=0)
    payload = b"\x01payload"
    mangled = F.maybe_corrupt(config, "k", 1, payload)
    assert mangled != payload
    assert len(mangled) == len(payload)
    assert F.maybe_corrupt(config, "k", 2, payload) == payload
    assert F.maybe_corrupt(None, "k", 1, payload) == payload


def test_serial_corrupt_raises():
    config = F.FaultConfig(corrupt=1.0, seed=0)
    with pytest.raises(F.InjectedCorruption):
        F.maybe_corrupt_inline(config, "k", 1)
    F.maybe_corrupt_inline(config, "k", 2)
    F.maybe_corrupt_inline(None, "k", 1)
