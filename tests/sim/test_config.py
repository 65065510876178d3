"""Tests for Table 1 machine configurations."""

import pytest

from repro.errors import ReproError
from repro.sim.config import config_for_width, eight_way, four_way


class TestTable1:
    def test_four_way_parameters(self):
        config = four_way()
        assert config.fetch_width == 4
        assert config.decode_width == 4
        assert config.retire_width == 4
        assert config.int_window == 32 and config.fp_window == 32
        assert config.max_inflight == 32
        assert config.int_units == 2 and config.fp_units == 2
        assert config.ls_ports == 1
        assert config.phys_int == 48 and config.phys_fp == 48

    def test_eight_way_parameters(self):
        config = eight_way()
        assert config.fetch_width == 8
        assert config.max_inflight == 64
        assert config.int_units == 4 and config.fp_units == 4
        assert config.ls_ports == 2
        assert config.phys_int == 80 and config.phys_fp == 80

    def test_shared_parameters(self):
        for config in (four_way(), eight_way()):
            assert config.icache.size_bytes == 64 * 1024
            assert config.icache.line_bytes == 128
            assert config.icache.miss_penalty == 6
            assert config.dcache.size_bytes == 32 * 1024
            assert config.dcache.line_bytes == 32
            assert config.mul_latency == 6
            assert config.div_latency == 12
            assert config.predictor.table_entries == 32 * 1024
            assert config.predictor.history_bits == 15

    def test_rename_register_derivation(self):
        assert four_way().rename_int == 16
        assert eight_way().rename_int == 48

    def test_overrides(self):
        config = four_way(int_window=64, name="4-way-big")
        assert config.int_window == 64
        assert config.name == "4-way-big"

    def test_width_validation_in_runner(self):
        from repro.experiments.runner import run_benchmark

        with pytest.raises(ReproError, match="width"):
            run_benchmark("compress", "conventional", width=6, scale=4)

    def test_config_for_width(self):
        assert config_for_width(4) == four_way()
        assert config_for_width(8) == eight_way()
        for width in (0, 6, 16):
            with pytest.raises(ReproError, match="width must be 4 or 8"):
                config_for_width(width)

    def test_max_inflight_below_producer_clip(self):
        # producer distances are clipped at 0xFFFF; a window reaching
        # the clip would alias "no producer" with a real one
        assert four_way(max_inflight=0xFFFE).max_inflight == 0xFFFE
        for inflight in (0xFFFF, 0x10000):
            with pytest.raises(ReproError, match="max_inflight"):
                four_way(max_inflight=inflight)
