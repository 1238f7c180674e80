"""Unit tests for process-node physics (measured and projected)."""

import pytest

from repro.core.quantities import Hertz, Volts
from repro.hardware.technology import (
    ALL_NODES,
    NODES,
    PROJECTED_NODES,
    ProcessNode,
    VoltageCurve,
    node_for,
)

#: Every node, measured then projected, largest feature size first.
_ALL_ORDER = (130, 65, 45, 32, 22, 14, 10, 7)


class TestNodes:
    def test_all_four_generations_present(self):
        assert sorted(NODES) == [32, 45, 65, 130]

    def test_lookup(self):
        assert node_for(45).nanometers == 45

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            node_for(90)

    def test_capacitance_shrinks_with_node(self):
        scales = [NODES[nm].capacitance_scale for nm in (130, 65, 45, 32)]
        assert scales == sorted(scales, reverse=True)

    def test_leakage_share_grows_with_shrink(self):
        """Post-Dennard: leakage per transistor relative to dynamic energy
        grows at each shrink."""
        ratio = [
            NODES[nm].leakage_scale / NODES[nm].capacitance_scale
            for nm in (130, 65, 45, 32)
        ]
        assert ratio == sorted(ratio)

    def test_voltage_drops_with_node(self):
        volts = [NODES[nm].nominal_voltage.value for nm in (130, 65, 45, 32)]
        assert volts == sorted(volts, reverse=True)


class TestProjectedNodes:
    def test_measured_catalog_unchanged(self):
        """Projected nodes live beside, not inside, the measured study."""
        assert sorted(NODES) == [32, 45, 65, 130]
        assert sorted(PROJECTED_NODES) == [7, 10, 14, 22]
        assert sorted(ALL_NODES) == sorted(_ALL_ORDER)

    def test_projected_flagged_synthetic(self):
        assert all(node.synthetic for node in PROJECTED_NODES.values())
        assert not any(node.synthetic for node in NODES.values())

    def test_lookup_spans_both_eras(self):
        assert ALL_NODES[130].synthetic is False
        assert ALL_NODES[7].synthetic is True
        with pytest.raises(KeyError):
            node_for(22)  # measured lookup stays measured-only

    def test_capacitance_monotone_across_all_nodes(self):
        scales = [ALL_NODES[nm].capacitance_scale for nm in _ALL_ORDER]
        assert scales == sorted(scales, reverse=True)

    def test_capacitance_shrink_slows_post_dennard(self):
        """Per-step shrink factor flattens toward 1.0 after 32 nm."""
        steps = [
            ALL_NODES[b].capacitance_scale / ALL_NODES[a].capacitance_scale
            for a, b in zip(_ALL_ORDER, _ALL_ORDER[1:])
        ]
        measured_era, projected_era = steps[:3], steps[3:]
        assert max(measured_era) < min(projected_era) + 0.15
        assert all(step > 0.6 for step in projected_era)

    def test_leakage_share_monotone_across_all_nodes(self):
        ratios = [
            ALL_NODES[nm].leakage_scale / ALL_NODES[nm].capacitance_scale
            for nm in _ALL_ORDER
        ]
        assert ratios == sorted(ratios)

    def test_voltage_monotone_with_floor(self):
        volts = [ALL_NODES[nm].nominal_voltage.value for nm in _ALL_ORDER]
        assert volts == sorted(volts, reverse=True)
        floors = [PROJECTED_NODES[nm].voltage_floor.value for nm in (22, 14, 10, 7)]
        assert floors == sorted(floors, reverse=True)
        assert min(floors) > 0.5  # threshold-limited, never free-falling

    def test_dark_silicon_grows_with_shrink(self):
        fractions = [
            PROJECTED_NODES[nm].dark_silicon_fraction for nm in (22, 14, 10, 7)
        ]
        assert fractions == sorted(fractions)
        assert fractions[0] > 0.0
        assert all(node.dark_silicon_fraction == 0.0 for node in NODES.values())

    def test_vid_span(self):
        floor, nominal = PROJECTED_NODES[22].vid_span
        assert floor.value == pytest.approx(0.65)
        assert nominal.value == pytest.approx(0.95)
        # Measured nodes publish no floor: the span collapses to nominal.
        floor, nominal = NODES[45].vid_span
        assert floor.value == nominal.value == pytest.approx(1.10)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProcessNode(22, Volts(0.95), 0.1, 1.5, dark_silicon_fraction=1.0)
        with pytest.raises(ValueError):
            ProcessNode(22, Volts(0.95), 0.1, 1.5, dark_silicon_fraction=-0.1)
        with pytest.raises(ValueError):
            ProcessNode(22, Volts(0.95), 0.1, 1.5, voltage_floor=Volts(1.2))
        with pytest.raises(ValueError):
            ProcessNode(22, Volts(0.95), 0.1, 1.5, voltage_floor=Volts(0.0))


class TestVoltageCurve:
    def _curve(self) -> VoltageCurve:
        return VoltageCurve(
            v_min=Volts(0.8),
            v_max=Volts(1.4),
            f_min=Hertz.from_ghz(1.6),
            f_max=Hertz.from_ghz(2.66),
        )

    def test_endpoints(self):
        curve = self._curve()
        assert curve.voltage_at(Hertz.from_ghz(1.6)).value == pytest.approx(0.8)
        assert curve.voltage_at(Hertz.from_ghz(2.66)).value == pytest.approx(1.4)

    def test_monotone(self):
        curve = self._curve()
        low = curve.voltage_at(Hertz.from_ghz(1.8)).value
        high = curve.voltage_at(Hertz.from_ghz(2.4)).value
        assert low < high

    def test_clamps_below_floor(self):
        curve = self._curve()
        assert curve.voltage_at(Hertz.from_ghz(1.0)).value == pytest.approx(0.8)

    def test_extrapolates_above_ceiling(self):
        """Turbo territory: voltage extrapolates beyond v_max."""
        curve = self._curve()
        assert curve.voltage_at(Hertz.from_ghz(2.93)).value > 1.4

    def test_flat_curve(self):
        flat = VoltageCurve(
            Volts(1.5), Volts(1.5), Hertz.from_ghz(2.4), Hertz.from_ghz(2.4)
        )
        assert flat.voltage_at(Hertz.from_ghz(2.4)).value == 1.5

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            VoltageCurve(Volts(1.4), Volts(0.8), Hertz(1.0), Hertz(2.0))
        with pytest.raises(ValueError):
            VoltageCurve(Volts(0.8), Volts(1.4), Hertz(2.0), Hertz(1.0))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            self._curve().voltage_at(Hertz(0.0))

    @pytest.mark.parametrize("nanometers", sorted(PROJECTED_NODES, reverse=True))
    def test_projected_vid_boundaries_exact(self, nanometers):
        """A curve built from a projected node's VID span must return the
        floor exactly at f_min and the nominal voltage exactly at f_max —
        interpolation error at the boundaries would leak into every
        synthesized spec's power model."""
        node = PROJECTED_NODES[nanometers]
        floor, nominal = node.vid_span
        curve = VoltageCurve(
            v_min=floor,
            v_max=nominal,
            f_min=Hertz.from_ghz(1.0),
            f_max=Hertz.from_ghz(3.5),
        )
        assert curve.voltage_at(Hertz.from_ghz(1.0)).value == floor.value
        assert curve.voltage_at(Hertz.from_ghz(3.5)).value == nominal.value
        # Below the floor the curve clamps; above the ceiling it
        # extrapolates beyond nominal (turbo territory).
        assert curve.voltage_at(Hertz.from_ghz(0.5)).value == floor.value
        assert curve.voltage_at(Hertz.from_ghz(3.8)).value > nominal.value
        midpoint = curve.voltage_at(Hertz.from_ghz(2.25)).value
        assert midpoint == pytest.approx((floor.value + nominal.value) / 2)
