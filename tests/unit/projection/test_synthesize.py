"""Unit tests for the ProjectedProcessor synthesizer (ISSUE 10)."""

import pytest

from repro.hardware.technology import PROJECTED_NODES
from repro.projection.synthesize import (
    BIG_CLOCKS,
    DEFAULT_NODES,
    LITTLE_CLOCKS,
    Budget,
    ProjectionQuery,
    ProjectionQueryError,
    node_capacity,
    parse_query,
    synthesize_candidates,
    synthesize_spec,
)

_NODES = (22, 14, 10, 7)


class TestBudget:
    def test_defaults_match_desktop_class(self):
        budget = Budget()
        assert budget.area_mm2 == pytest.approx(260.0)
        assert budget.tdp_w == pytest.approx(130.0)

    @pytest.mark.parametrize("kwargs", [
        {"area_mm2": 0.0},
        {"area_mm2": -1.0},
        {"tdp_w": 0.0},
        {"tdp_w": -5.0},
    ])
    def test_nonpositive_axes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    @pytest.mark.parametrize("axis", ["area_mm2", "tdp_w"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_axes_rejected(self, axis, value):
        with pytest.raises(ProjectionQueryError, match="positive and finite"):
            Budget(**{axis: value})


class TestParseQuery:
    def test_defaults(self):
        assert parse_query({}, default_samples=512) == ProjectionQuery(
            nodes=DEFAULT_NODES, samples=512, seed=0, budget=Budget()
        )

    def test_text_values_parse(self):
        query = parse_query(
            {"nodes": "7,22", "samples": "6", "seed": "3", "area": "100",
             "tdp": "65.5"},
            default_samples=64,
        )
        assert query == ProjectionQuery(
            nodes=(7, 22), samples=6, seed=3, budget=Budget(100.0, 65.5)
        )

    def test_none_takes_the_default(self):
        assert parse_query({"samples": None}, default_samples=64).samples == 64

    def test_sample_cap_is_the_callers(self):
        assert parse_query({"samples": "4096"}, default_samples=512).samples == 4096
        with pytest.raises(ProjectionQueryError, match="at most 512"):
            parse_query({"samples": "4096"}, default_samples=64, max_samples=512)

    @pytest.mark.parametrize("params", [
        {"nodes": "22,22"},
        {"nodes": "45"},
        {"nodes": ","},
        {"nodes": "22,x"},
        {"samples": "0"},
        {"samples": "1.5"},
        {"seed": "x"},
        {"area": "-1"},
        {"area": "inf"},
        {"tdp": "nan"},
        {"tdp": "watts"},
    ])
    def test_bad_values_raise_one_error_type(self, params):
        with pytest.raises(ProjectionQueryError):
            parse_query(params, default_samples=64)


class TestSynthesizeSpec:
    def test_key_embeds_every_degree_of_freedom(self):
        spec = synthesize_spec("big", 22, 8, 3.2)
        assert spec.key == "proj22_big8c3.2g"
        assert spec.cores == 8
        assert spec.node is PROJECTED_NODES[22]
        assert spec.node.synthetic

    def test_keys_unique_across_the_grid(self):
        keys = {
            synthesize_spec(kind, nm, cores, clock).key
            for nm in _NODES
            for kind, grid in (("big", BIG_CLOCKS), ("little", LITTLE_CLOCKS))
            for clock in grid[nm]
            for cores in (1, 2, 5)
        }
        assert len(keys) == len(_NODES) * 2 * 3 * 3

    def test_vid_range_comes_from_the_node(self):
        spec = synthesize_spec("little", 7, 4, 1.6)
        floor, nominal = PROJECTED_NODES[7].vid_span
        assert spec.vid_range == (floor.value, nominal.value)

    def test_off_grid_clock_rejected(self):
        with pytest.raises(ValueError):
            synthesize_spec("big", 22, 4, 2.5)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            synthesize_spec("big", 22, 0, 2.4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            synthesize_spec("medium", 22, 4, 2.4)

    def test_measured_node_rejected(self):
        with pytest.raises(KeyError):
            synthesize_spec("big", 45, 4, 2.4)

    def test_idle_power_shrinks_with_node(self):
        """Capacitance x V^2 falls faster than leakage_scale rises, so
        per-core idle watts still decline each shrink — just slowly."""
        idle = [
            synthesize_spec("big", nm, 1, BIG_CLOCKS[nm][0]).power.core_idle_watts
            for nm in _NODES
        ]
        assert idle == sorted(idle, reverse=True)

    def test_sane_power_and_tdp(self):
        spec = synthesize_spec("big", 14, 8, 3.0)
        assert spec.power.core_active_watts > 0
        assert spec.power.core_idle_watts > 0
        assert spec.power.uncore_watts > 0
        assert spec.tdp_w >= spec.power.uncore_watts


class TestCandidates:
    def test_deterministic_for_same_inputs(self):
        first = synthesize_candidates(22, 32, seed=3)
        second = synthesize_candidates(22, 32, seed=3)
        assert first == second

    def test_seed_changes_the_draw(self):
        assert synthesize_candidates(22, 32, seed=0) != synthesize_candidates(
            22, 32, seed=1
        )

    def test_sorted_by_unique_key(self):
        candidates = synthesize_candidates(14, 48, seed=0)
        keys = [c.key for c in candidates]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("nanometers", _NODES)
    def test_every_candidate_fits_the_budget(self, nanometers):
        budget = Budget()
        for candidate in synthesize_candidates(nanometers, 48, budget, seed=0):
            assert candidate.node_nm == nanometers
            assert candidate.area_mm2 <= budget.area_mm2 + 1e-9
            assert candidate.peak_watts <= budget.tdp_w + 1e-9
            assert 0.0 <= candidate.dark_fraction < 1.0
            assert candidate.clusters  # never an empty machine

    def test_both_shapes_represented(self):
        """The draw keeps homogeneous extremes alongside big.LITTLE mixes."""
        candidates = synthesize_candidates(10, 96, seed=0)
        assert any(c.heterogeneous for c in candidates)
        assert any(c.big is not None and c.little is None for c in candidates)
        assert any(c.big is None and c.little is not None for c in candidates)

    def test_cluster_configs_are_stock_shaped(self):
        for candidate in synthesize_candidates(7, 16, seed=0):
            for cluster in candidate.clusters:
                config = cluster.config
                assert config.active_cores == cluster.cores
                assert config.clock_ghz == cluster.clock_ghz
                assert config.spec.key.startswith(f"proj{candidate.node_nm}_")

    def test_tight_budget_yields_small_machines(self):
        tight = Budget(area_mm2=40.0, tdp_w=25.0)
        candidates = synthesize_candidates(22, 32, tight, seed=0)
        assert candidates  # something always fits
        for candidate in candidates:
            assert candidate.area_mm2 <= 40.0 + 1e-9
            assert candidate.peak_watts <= 25.0 + 1e-9

    def test_budget_no_machine_fits_is_refused(self):
        with pytest.raises(ProjectionQueryError, match="no candidate machine"):
            synthesize_candidates(22, 8, Budget(tdp_w=1.0))

    def test_draws_that_find_no_machine_raise_not_return_empty(self):
        # Just under the 1.14 W minimum little core: nothing fits, and an
        # empty candidate set would crash the frontier later.
        with pytest.raises(ProjectionQueryError, match="no candidate machine"):
            synthesize_candidates(22, 1, Budget(tdp_w=1.14))

    def test_a_machine_the_draws_miss_is_still_found(self):
        # The 64 draws never land on the one 1.8 mm^2, 1.14 W little core
        # that fits; the smallest-machine fallback returns it.
        (candidate,) = synthesize_candidates(22, 1, Budget(tdp_w=1.15))
        assert candidate.key == "proj22/l1@1.2"
        assert candidate.big is None and candidate.little.cores == 1
        assert candidate.peak_watts == pytest.approx(1.14, abs=0.005)

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValueError):
            synthesize_candidates(22, 0)

    def test_measured_node_rejected(self):
        with pytest.raises(KeyError):
            synthesize_candidates(32, 8)


class TestNodeCapacity:
    def test_dark_fraction_grows_with_shrink(self):
        fractions = [node_capacity(nm)["dark_fraction"] for nm in _NODES]
        assert fractions == sorted(fractions)
        assert fractions[0] > 0.2

    def test_power_limits_before_area(self):
        """Post-Dennard signature: the budget can place far more big cores
        than it can power at every projected node."""
        for nm in _NODES:
            capacity = node_capacity(nm)
            assert capacity["big_cores_by_power"] < capacity["big_cores_by_area"]
            assert capacity["big_cores"] >= 1.0

    def test_relaxed_power_budget_lights_the_die(self):
        lavish = node_capacity(22, Budget(area_mm2=260.0, tdp_w=5000.0))
        assert lavish["dark_fraction"] == pytest.approx(0.0, abs=0.05)
