"""Parsing of the ``REPRO_FAULTS`` specification grammar."""

from __future__ import annotations

import pytest

from repro.errors import FaultInjected, PartitionError, ReproError
from repro.faults import FAULT_KINDS, FAULT_SITES, parse_spec
from repro.faults.spec import resolve_error_type


class TestParseSpec:
    def test_minimal_clause(self):
        [clause] = parse_spec("execute:error")
        assert clause.site == "execute"
        assert clause.kind == "error"
        assert clause.times is None
        assert clause.match is None
        assert clause.error_type == "FaultInjected"

    def test_multiple_clauses(self):
        clauses = parse_spec("execute:crash:match=m88ksim;cache.get:corrupt")
        assert [c.site for c in clauses] == ["execute", "cache.get"]
        assert [c.kind for c in clauses] == ["crash", "corrupt"]

    def test_all_parameters(self):
        [clause] = parse_spec("simulate:hang:times=3:match=compress:secs=1.5")
        assert clause.times == 3
        assert clause.match == "compress"
        assert clause.secs == 1.5

    def test_error_type_parameter(self):
        [clause] = parse_spec("partition:error:type=PartitionError")
        assert clause.error_type == "PartitionError"

    def test_whitespace_and_empty_clauses_tolerated(self):
        assert len(parse_spec(" execute:error ;; ")) == 1

    def test_describe_round_trips_the_interesting_fields(self):
        [clause] = parse_spec("execute:error:times=2:match=go")
        assert clause.describe() == "execute:error:times=2:match=go"

    @pytest.mark.parametrize(
        "bad",
        [
            "",  # no clauses at all
            "seed=12",  # retired seed clause
            "seed=abc;execute:error",  # retired seed clause
            "execute",  # missing kind
            "teleport:error",  # unknown site
            "serve_admit:error",  # retired site (the HTTP daemon is gone)
            "ckpt_write:crash",  # retired site (checkpointing is gone)
            "compile:error",  # retired site
            "profile:error",  # retired site
            "regalloc:error",  # retired site
            "execute:meltdown",  # unknown kind
            "execute:error:frobnicate=1",  # unknown parameter
            "execute:error:p",  # parameter without value
            "execute:error:p=2.0",  # retired probability parameter
            "execute:error:p=0.5",  # retired probability parameter
            "execute:error:times=0",  # times must be >= 1
            "execute:error:times=soon",  # non-integer times
            "simulate:hang:secs=-1",  # negative sleep
            "execute:error:type=ValueError",  # not a ReproError subclass
            "execute:error:type=NoSuchError",  # unknown class name
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ReproError):
            parse_spec(bad)

    def test_every_documented_site_and_kind_parses(self):
        for site in FAULT_SITES:
            for kind in FAULT_KINDS:
                assert parse_spec(f"{site}:{kind}")[0].site == site


class TestResolveErrorType:
    def test_resolves_repro_error_subclasses(self):
        assert resolve_error_type("PartitionError") is PartitionError
        assert resolve_error_type("FaultInjected") is FaultInjected

    def test_rejects_non_repro_types(self):
        with pytest.raises(ReproError):
            resolve_error_type("Exception")
