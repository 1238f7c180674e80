"""Unit tests for the processor catalog against the paper's Table 3."""

import pytest

from repro.hardware.catalog import (
    NODE_45NM_KEYS,
    PROCESSORS,
    PROCESSORS_BY_KEY,
    REFERENCE_PROCESSOR_KEYS,
    processor,
    reference_processors,
)


class TestTable3Facts:
    """Every data-sheet cell from Table 3, row by row."""

    def test_eight_processors(self):
        assert len(PROCESSORS) == 8

    @pytest.mark.parametrize(
        "key,cmp_smt,llc_mb,ghz,nm,mtrans,die,tdp",
        [
            ("pentium4_130", "1C2T", 0.5, 2.4, 130, 55, 131, 66),
            ("c2d_65", "2C1T", 4.0, 2.4, 65, 291, 143, 65),
            ("c2q_65", "4C1T", 8.0, 2.4, 65, 582, 286, 105),
            ("i7_45", "4C2T", 8.0, 2.66, 45, 731, 263, 130),
            ("atom_45", "1C2T", 0.5, 1.66, 45, 47, 26, 4),
            ("c2d_45", "2C1T", 3.0, 3.06, 45, 228, 82, 65),
            ("atomd_45", "2C2T", 1.0, 1.66, 45, 176, 87, 13),
            ("i5_32", "2C2T", 4.0, 3.46, 32, 382, 81, 73),
        ],
    )
    def test_specs(self, key, cmp_smt, llc_mb, ghz, nm, mtrans, die, tdp):
        spec = processor(key)
        assert spec.cmp_smt == cmp_smt
        assert spec.llc_mb == llc_mb
        assert spec.stock_clock.ghz == pytest.approx(ghz, abs=0.01)
        assert spec.node.nanometers == nm
        assert spec.transistors_m == mtrans
        assert spec.die_mm2 == die
        assert spec.tdp_w == tdp

    @pytest.mark.parametrize(
        "key,vid",
        [
            ("pentium4_130", None),
            ("c2d_65", (0.85, 1.50)),
            ("c2q_65", (0.85, 1.50)),
            ("i7_45", (0.80, 1.38)),
            ("atom_45", (0.90, 1.16)),
            ("c2d_45", (0.85, 1.36)),
            ("atomd_45", (0.80, 1.17)),
            ("i5_32", (0.65, 1.40)),
        ],
    )
    def test_vid_ranges(self, key, vid):
        assert processor(key).vid_range == vid

    @pytest.mark.parametrize(
        "key,sspec",
        [
            ("pentium4_130", "SL6WF"),
            ("c2d_65", "SL9S8"),
            ("c2q_65", "SL9UM"),
            ("i7_45", "SLBCH"),
            ("atom_45", "SLB6Z"),
            ("c2d_45", "SLGTD"),
            ("atomd_45", "SLBLA"),
            ("i5_32", "SLBLT"),
        ],
    )
    def test_sspec_numbers(self, key, sspec):
        assert processor(key).sspec == sspec

    def test_prices(self):
        assert processor("pentium4_130").price_usd is None
        assert processor("atom_45").price_usd == 29
        assert processor("c2q_65").price_usd == 851
        assert processor("i7_45").price_usd == 284

    def test_only_nehalems_have_turbo(self):
        turbo = {spec.key for spec in PROCESSORS if spec.has_turbo}
        assert turbo == {"i7_45", "i5_32"}

    def test_smt_machines(self):
        smt = {spec.key for spec in PROCESSORS if spec.threads_per_core > 1}
        assert smt == {"pentium4_130", "atom_45", "atomd_45", "i7_45", "i5_32"}

    def test_hardware_contexts(self):
        assert processor("i7_45").hardware_contexts == 8
        assert processor("atom_45").hardware_contexts == 2
        assert processor("c2q_65").hardware_contexts == 4


class TestStructure:
    def test_keys_unique(self):
        assert len(PROCESSORS_BY_KEY) == len(PROCESSORS)

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            processor("pentium3")

    def test_reference_machines_span_all_generations(self):
        nodes = {processor(k).node.nanometers for k in REFERENCE_PROCESSOR_KEYS}
        assert nodes == {130, 65, 45, 32}

    def test_reference_machines_span_all_families(self):
        families = {processor(k).family.name for k in REFERENCE_PROCESSOR_KEYS}
        assert families == {"NetBurst", "Core", "Bonnell", "Nehalem"}

    def test_reference_processors_helper(self):
        assert tuple(s.key for s in reference_processors()) == REFERENCE_PROCESSOR_KEYS

    def test_45nm_parts(self):
        assert {processor(k).node.nanometers for k in NODE_45NM_KEYS} == {45}
        assert len(NODE_45NM_KEYS) == 4

    def test_clock_points_end_at_stock(self):
        for spec in PROCESSORS:
            assert spec.clock_points_ghz[-1] == pytest.approx(spec.stock_clock.ghz)

    def test_supports_clock(self):
        i7 = processor("i7_45")
        assert i7.supports_clock(1.6)
        assert not i7.supports_clock(3.2)
