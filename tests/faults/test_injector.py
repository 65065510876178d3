"""Injector semantics: activation, determinism, budgets, fault actions."""

from __future__ import annotations

import time

import pytest

from repro.errors import FaultInjected, PartitionError
from repro.faults import (
    FaultInjector,
    active_injector,
    corrupt_point,
    fault_point,
    parse_spec,
    reset_faults,
)
from repro.faults.inject import FAULTS_ENV


class TestActivation:
    def test_no_env_means_no_injector(self):
        assert active_injector() is None
        fault_point("execute", "anything")  # must be a no-op

    @pytest.mark.parametrize("value", ["", "  ", "0"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(FAULTS_ENV, value)
        assert active_injector() is None

    def test_injector_cached_on_spec_text(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "execute:error")
        first = active_injector()
        assert first is active_injector()  # same text -> same injector
        monkeypatch.setenv(FAULTS_ENV, "simulate:error")
        second = active_injector()
        assert second is not first
        assert second.clauses[0].site == "simulate"

    def test_reset_faults_drops_state(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "execute:error:times=1")
        with pytest.raises(FaultInjected):
            fault_point("execute")
        fault_point("execute")  # budget spent: no longer fires
        reset_faults()
        with pytest.raises(FaultInjected):  # fresh budget after reset
            fault_point("execute")


class TestSelect:
    def test_match_filters_on_label_substring(self):
        injector = FaultInjector(parse_spec("execute:error:match=m88ksim"))
        assert injector.select("execute", "compress") is None
        assert injector.select("execute", "m88ksim") is not None

    def test_site_must_match(self):
        injector = FaultInjector(parse_spec("execute:error"))
        assert injector.select("simulate", "x") is None
        assert injector.select("execute", "x") is not None

    def test_times_budget_is_consumed(self):
        injector = FaultInjector(parse_spec("execute:error:times=2"))
        assert injector.select("execute") is not None
        assert injector.select("execute") is not None
        assert injector.select("execute") is None

    def test_fault_kinds_do_not_burn_corrupt_budget(self):
        """A ``corrupt`` clause must not spend its budget at a
        ``fault_point`` (which ignores corruption), and vice versa."""
        injector = FaultInjector(parse_spec("cache.get:corrupt:times=1"))
        assert injector.select("cache.get", corrupt=False) is None
        assert injector.select("cache.get", corrupt=True) is not None
        assert injector.select("cache.get", corrupt=True) is None


class TestFaultActions:
    def test_error_raises_fault_injected_with_site(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "partition:error")
        with pytest.raises(FaultInjected) as excinfo:
            fault_point("partition", "compress")
        assert excinfo.value.site == "partition"
        assert excinfo.value.stage == "partition"
        assert "compress" in str(excinfo.value)

    def test_error_raises_requested_repro_error(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "partition:error:type=PartitionError")
        with pytest.raises(PartitionError):
            fault_point("partition")

    def test_hang_sleeps_for_secs(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "simulate:hang:secs=0.05")
        start = time.perf_counter()
        fault_point("simulate")
        assert time.perf_counter() - start >= 0.05

    def test_corrupt_point_scrambles_payload_not_envelope(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache.get:corrupt")
        entry = {"key": "abc", "cache_schema": 1, "result": {"cycles": 9}}
        corrupted = corrupt_point("cache.get", entry)
        assert corrupted["key"] == "abc"  # envelope intact
        assert corrupted["result"] == {"__corrupted__": True}
        assert entry["result"] == {"cycles": 9}  # caller's dict untouched

    def test_corrupt_point_passthrough_without_fault(self):
        entry = {"result": 1}
        assert corrupt_point("cache.get", entry) is entry

    def test_fault_point_ignores_corrupt_clauses(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache.get:corrupt")
        fault_point("cache.get")  # must not raise, hang or crash
