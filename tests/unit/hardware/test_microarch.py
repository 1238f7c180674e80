"""Unit tests for the microarchitecture family definitions."""

import pytest

from repro.hardware.microarch import (
    BONNELL,
    CORE,
    Microarchitecture,
    NEHALEM,
    NETBURST,
)


class TestDefinitions:
    def test_bonnell_is_the_only_in_order(self):
        assert not BONNELL.out_of_order
        assert NETBURST.out_of_order and CORE.out_of_order and NEHALEM.out_of_order

    def test_netburst_pipeline_deepest(self):
        assert NETBURST.pipeline_depth > max(
            CORE.pipeline_depth, BONNELL.pipeline_depth, NEHALEM.pipeline_depth
        )

    def test_branch_penalty_tracks_pipeline(self):
        assert NETBURST.branch_penalty_cycles() == NETBURST.pipeline_depth

    def test_netburst_most_power_hungry_per_instruction(self):
        assert NETBURST.epi_factor > max(
            CORE.epi_factor, BONNELL.epi_factor, NEHALEM.epi_factor
        )

    def test_bonnell_most_frugal_per_instruction(self):
        assert BONNELL.epi_factor < min(
            CORE.epi_factor, NETBURST.epi_factor, NEHALEM.epi_factor
        )

    def test_core_family_has_no_smt(self):
        assert CORE.smt_overlap == 0.0

    def test_smt_maturity_ordering(self):
        """Bonnell and Nehalem recover more slots than the pioneering
        NetBurst implementation (§3.2)."""
        assert BONNELL.smt_overlap > NETBURST.smt_overlap
        assert NEHALEM.smt_overlap > NETBURST.smt_overlap

    def test_only_netburst_penalises_jit_code(self):
        assert NETBURST.jit_code_penalty > 0.0
        assert CORE.jit_code_penalty == 0.0
        assert NEHALEM.jit_code_penalty == 0.0
        assert BONNELL.jit_code_penalty == 0.0

    def test_front_end_width_ordering(self):
        width = lambda f: f.issue_width * f.issue_efficiency
        assert width(NEHALEM) > width(CORE) > width(NETBURST) > width(BONNELL)


class TestValidation:
    def _kwargs(self, **overrides):
        base = dict(
            name="X",
            issue_width=2,
            out_of_order=True,
            pipeline_depth=10,
            issue_efficiency=0.5,
            miss_overlap=0.5,
            smt_overlap=0.5,
            smt_contention=0.1,
            epi_factor=1.0,
        )
        base.update(overrides)
        return base

    def test_valid(self):
        Microarchitecture(**self._kwargs())

    def test_zero_issue_width_rejected(self):
        with pytest.raises(ValueError):
            Microarchitecture(**self._kwargs(issue_width=0))

    def test_issue_efficiency_bounds(self):
        with pytest.raises(ValueError):
            Microarchitecture(**self._kwargs(issue_efficiency=0.0))
        with pytest.raises(ValueError):
            Microarchitecture(**self._kwargs(issue_efficiency=1.5))

    def test_fraction_bounds(self):
        for field in ("miss_overlap", "smt_overlap", "smt_contention"):
            with pytest.raises(ValueError):
                Microarchitecture(**self._kwargs(**{field: 1.5}))
            with pytest.raises(ValueError):
                Microarchitecture(**self._kwargs(**{field: -0.1}))
