"""Integration: the §3 feature analyses reproduce the paper's shapes.

Each test pins a directional or banded claim from Figures 4-10 — who
wins, by roughly what factor, and with what sign.
"""

import pytest

from repro.experiments import (
    fig4_cmp,
    fig5_smt,
    fig7_clock,
    fig8_die_shrink,
    fig9_microarch,
    fig10_turbo,
)
from repro.core.aggregation import group_means
from repro.experiments import paper_data
from repro.hardware.config import Configuration
from repro.workloads.benchmark import Group
from repro.workloads.catalog import BENCHMARKS


class TestFig4Cmp:
    def test_i7_pays_more_power_for_same_gain(self, study):
        i7, i5 = fig4_cmp.effects(study)
        assert i7.performance == pytest.approx(i5.performance, rel=0.1)
        assert i7.power > i5.power + 0.05

    def test_performance_within_band(self, study):
        i7, i5 = fig4_cmp.effects(study)
        assert i7.performance == pytest.approx(1.32, rel=0.1)
        assert i5.performance == pytest.approx(1.34, rel=0.1)

    def test_native_nonscalable_never_gains(self, study):
        i7, _ = fig4_cmp.effects(study)
        assert i7.energy_by_group[Group.NATIVE_NONSCALABLE] > 1.0


class TestFig5Smt:
    def test_atom_gains_most_performance(self, study):
        effects = fig5_smt.effects(study)
        atom = effects["atom_45"].performance
        assert atom > effects["pentium4_130"].performance
        assert atom > effects["i7_45"].performance

    def test_p4_gains_least(self, study):
        effects = fig5_smt.effects(study)
        p4 = effects["pentium4_130"].performance
        assert p4 < effects["i5_32"].performance
        assert p4 < effects["atom_45"].performance

    def test_performance_bands(self, study):
        effects = fig5_smt.effects(study)
        for key in ("pentium4_130", "i7_45", "atom_45", "i5_32"):
            paper = paper_data.FIG5_SMT[key]["performance"]
            assert effects[key].performance == pytest.approx(paper, abs=0.12), key

    def test_smt_cheaper_than_cmp(self, study):
        """§3.2: SMT adds about half CMP's performance at a fraction of
        its power cost on the i7."""
        smt = fig5_smt.effects(study)["i7_45"]
        cmp_effect, _ = fig4_cmp.effects(study)
        smt_power_cost = smt.power - 1.0
        cmp_power_cost = cmp_effect.power - 1.0
        assert smt_power_cost < 0.55 * cmp_power_cost
        assert smt.performance - 1.0 < cmp_effect.performance - 1.0

    def test_scalable_groups_save_energy_on_modern_smt(self, study):
        effects = fig5_smt.effects(study)
        for key in ("i7_45", "atom_45", "i5_32"):
            by_group = effects[key].energy_by_group
            assert by_group[Group.NATIVE_SCALABLE] < 1.0, key
            assert by_group[Group.JAVA_SCALABLE] < 1.0, key


class TestFig7Clock:
    def test_energy_signs(self, study):
        rows = {r["processor"]: r for r in fig7_clock.doubling_rows(study)}
        assert float(rows["i7 (45)"]["energy_per_doubling"]) > 0.3
        assert float(rows["C2D (45)"]["energy_per_doubling"]) > 0.3
        assert abs(float(rows["i5 (32)"]["energy_per_doubling"])) < 0.15

    def test_performance_sublinear(self, study):
        """Doubling the clock buys roughly +80%, never +100% (§3.3)."""
        for row in fig7_clock.doubling_rows(study):
            gain = float(row["performance_per_doubling"])
            assert 0.5 < gain < 1.0, row["processor"]

    def test_power_superlinear_on_45nm(self, study):
        rows = {r["processor"]: r for r in fig7_clock.doubling_rows(study)}
        assert float(rows["i7 (45)"]["power_per_doubling"]) > 1.0
        assert float(rows["C2D (45)"]["power_per_doubling"]) > 1.0

    def test_i5_energy_curve_flat(self, study):
        """Fig. 7(c): the i5's energy stays within a narrow band over its
        whole clock range."""
        curve = fig7_clock.energy_curve(study, "i5_32")
        energies = [e for _, _, e in curve]
        assert max(energies) / min(energies) < 1.25

    def test_i7_energy_curve_rises(self, study):
        curve = fig7_clock.energy_curve(study, "i7_45")
        assert curve[-1][2] > 1.3 * curve[0][2]

    def test_fig7d_nn_draws_least_power(self, study):
        """Fig. 7(d) / Workload Finding 3: Native Non-scalable draws less
        power than every other group at every i7 clock point."""
        _, spec, cores, threads = next(
            m for m in fig7_clock.MACHINES if m[0] == "i7_45"
        )
        for ghz in spec.clock_points_ghz:
            results = study.run_config(Configuration(spec, cores, threads, ghz))
            watts = group_means(results.values("watts"), BENCHMARKS)
            nn = watts.pop(Group.NATIVE_NONSCALABLE)
            for group, value in watts.items():
                assert value > nn, (group, ghz)


class TestFig8DieShrink:
    def test_matched_clock_power_savings(self, study):
        matched = fig8_die_shrink.matched_clock_effects(study)
        assert matched["core"].power < 0.65
        assert matched["nehalem"].power < 0.92

    def test_matched_clock_no_performance_regression_core(self, study):
        matched = fig8_die_shrink.matched_clock_effects(study)
        assert matched["core"].performance == pytest.approx(1.0, abs=0.12)

    def test_native_clock_both_faster_and_cooler(self, study):
        native = fig8_die_shrink.native_clock_effects(study)
        for effect in native.values():
            assert effect.performance > 1.0
            assert effect.power < 1.0


class TestFig9Microarch:
    def test_nehalem_vs_netburst_enormous(self, study):
        effect = fig9_microarch.effects(study)["netburst"]
        assert effect.performance > 2.2
        assert effect.power < 0.45
        assert effect.energy < 0.2

    def test_nehalem_vs_core_modest(self, study):
        effects = fig9_microarch.effects(study)
        assert 1.0 < effects["core_45"].performance < 1.4
        assert 1.0 < effects["core_65"].performance < 1.45

    def test_energy_parity_at_45nm(self, study):
        """Architecture Finding 7."""
        effects = fig9_microarch.effects(study)
        assert 0.6 < effects["core_45"].energy < 1.3
        assert 0.6 < effects["bonnell"].energy < 1.3


class TestFig10Turbo:
    def test_i7_boost_costly(self, study):
        effects = fig10_turbo.effects(study)
        assert effects["i7_45/4C2T"].power > 1.15
        assert effects["i7_45/1C1T"].power > 1.3

    def test_i5_boost_nearly_free(self, study):
        effects = fig10_turbo.effects(study)
        assert effects["i5_32/2C2T"].power < 1.08
        assert abs(effects["i5_32/2C2T"].energy - 1.0) < 0.06

    def test_performance_tracks_clock_steps(self, study):
        """§3.6: 'actual performance changes are well predicted by the
        clock rate increases' — gains land between half the step ratio
        and the full step ratio."""
        effects = fig10_turbo.effects(study)
        for key, steps, base in (
            ("i7_45/4C2T", 1, 2.66),
            ("i7_45/1C1T", 2, 2.66),
            ("i5_32/2C2T", 1, 3.46),
            ("i5_32/1C1T", 2, 3.46),
        ):
            clock_ratio = (base + steps * 0.133) / base
            gain = effects[key].performance
            assert 1.0 < gain <= clock_ratio + 0.01, key
            assert gain > 1.0 + (clock_ratio - 1.0) * 0.4, key


class TestFig7GroupPanel:
    def test_i5_flat_for_every_group(self, study):
        """Fig. 7(b): the i5's per-group energy change per doubling stays
        near zero for all four groups."""
        rows = [r for r in fig7_clock.group_energy_rows(study)
                if r["processor"] == "i5 (32)"]
        assert len(rows) == 4
        for row in rows:
            assert abs(float(row["energy_per_doubling"])) < 0.20, row["group"]

    def test_45nm_parts_rise_for_every_group(self, study):
        for machine in ("i7 (45)", "C2D (45)"):
            rows = [r for r in fig7_clock.group_energy_rows(study)
                    if r["processor"] == machine]
            for row in rows:
                assert float(row["energy_per_doubling"]) > 0.25, (machine, row)

    def test_paper_values_attached(self, study):
        for row in fig7_clock.group_energy_rows(study):
            assert row["paper_energy"] is not None
