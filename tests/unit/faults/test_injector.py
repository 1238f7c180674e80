"""Unit tests for the ambient fault injector."""

import numpy as np
import pytest

from repro.faults.errors import (
    InvocationCrash,
    InvocationTimeout,
    LoggerDropout,
    MeterSaturation,
)
from repro.faults.injector import (
    FaultInjector,
    active,
    attempt_scope,
    injected,
    install,
    shielded,
    uninstall,
)
from repro.faults import injector as injector_module
from repro.faults.plan import FaultPlan, FaultSpec


def _crash_plan(probability, seed="unit", scope="*"):
    return FaultPlan(
        specs=(
            FaultSpec(
                kind="invocation.crash", probability=probability, scope=scope
            ),
        ),
        seed=seed,
    )


def _crashing_sites(injector, sites):
    crashed = set()
    for site in sites:
        try:
            injector.check_invocation(site)
        except InvocationCrash:
            crashed.add(site)
    return crashed


SITES = [f"i7_45-stock/db/{i}" for i in range(64)]


class TestDeterminism:
    def test_same_plan_same_failures(self):
        a = _crashing_sites(FaultInjector(_crash_plan(0.5)), SITES)
        b = _crashing_sites(FaultInjector(_crash_plan(0.5)), SITES)
        assert a == b
        assert 0 < len(a) < len(SITES)

    def test_seed_rerolls_every_decision(self):
        a = _crashing_sites(FaultInjector(_crash_plan(0.5, seed="a")), SITES)
        b = _crashing_sites(FaultInjector(_crash_plan(0.5, seed="b")), SITES)
        assert a != b

    def test_attempt_rerolls_the_dice(self):
        injector = FaultInjector(_crash_plan(0.5))
        first = _crashing_sites(injector, SITES)
        with attempt_scope(1):
            second = _crashing_sites(injector, SITES)
        assert first != second

    def test_probability_extremes(self):
        never = FaultInjector(_crash_plan(0.0))
        assert not _crashing_sites(never, SITES)
        always = FaultInjector(_crash_plan(1.0))
        assert _crashing_sites(always, SITES) == set(SITES)

    def test_scope_restricts_fire_sites(self):
        injector = FaultInjector(_crash_plan(1.0, scope="i7_45*"))
        with pytest.raises(InvocationCrash):
            injector.check_invocation("i7_45-stock/db/0")
        injector.check_invocation("atom_45-stock/db/0")  # out of scope: no-op


class TestInvocationFaults:
    def test_hang_raises_timeout_with_simulated_elapsed(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="invocation.hang", probability=1.0, magnitude=120.0
                ),
            )
        )
        with pytest.raises(InvocationTimeout) as excinfo:
            FaultInjector(plan).check_invocation("site/x/0")
        assert excinfo.value.elapsed_s == 120.0
        assert excinfo.value.site == "site/x/0"


class TestSensorFaults:
    def _codes(self):
        return np.arange(100, 200, dtype=np.int64)

    def test_stuck_freezes_the_stream(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="sensor.stuck", probability=1.0),)
        )
        out = FaultInjector(plan).corrupt_sensor_codes("s", self._codes(), 1023)
        assert np.all(out == out[0])

    def test_glitch_spikes_to_the_rails(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="sensor.glitch", probability=1.0, magnitude=0.1),
            )
        )
        codes = self._codes()
        out = FaultInjector(plan).corrupt_sensor_codes("s", codes, 1023)
        changed = np.nonzero(out != codes)[0]
        assert 0 < len(changed) <= 10
        assert set(out[changed]) <= {0, 1023}

    def test_drift_ramps_and_clips(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="sensor.drift", probability=1.0, magnitude=50.0),
            )
        )
        codes = self._codes()
        out = FaultInjector(plan).corrupt_sensor_codes("s", codes, 1023)
        assert out[0] == codes[0]
        assert out[-1] == codes[-1] + 50
        assert np.all(out <= 1023)

    def test_untriggered_stream_passes_through_unchanged(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="sensor.stuck", probability=0.0),)
        )
        codes = self._codes()
        out = FaultInjector(plan).corrupt_sensor_codes("s", codes, 1023)
        assert out is codes


class TestLoggerFaults:
    def _run(self):
        times = np.linspace(0.0, 2.0, 100)
        codes = np.arange(100, dtype=np.int64)
        return times, codes

    def test_gap_drops_one_contiguous_window(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="logger.gap", probability=1.0, magnitude=0.25),
            )
        )
        times, codes = self._run()
        out_t, out_c = FaultInjector(plan).filter_logged_samples(
            "s", times, codes
        )
        assert len(out_c) == 75 and len(out_t) == 75
        # The survivors are the original stream minus one contiguous block.
        missing = np.setdiff1d(codes, out_c)
        assert len(missing) == 25
        assert np.all(np.diff(missing) == 1)

    def test_disconnect_raises_dropout(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="logger.disconnect", probability=1.0),)
        )
        with pytest.raises(LoggerDropout, match="disconnect"):
            FaultInjector(plan).filter_logged_samples("s", *self._run())

    def test_total_gap_raises_instead_of_emptying(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="logger.gap", probability=1.0, magnitude=1.0),
            )
        )
        with pytest.raises(LoggerDropout, match="every sample"):
            FaultInjector(plan).filter_logged_samples("s", *self._run())


class TestMeterFaults:
    def test_saturation_rails_a_burst(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="meter.saturation", probability=1.0, magnitude=0.3
                ),
            )
        )
        codes = np.full(100, 150, dtype=np.int64)
        out = FaultInjector(plan).saturate_meter_codes("s", codes, 950)
        railed = np.nonzero(out == 950)[0]
        assert len(railed) == 30
        assert np.all(np.diff(railed) == 1)
        assert np.all(out[out != 950] == 150)

    def test_total_saturation_raises(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="meter.saturation", probability=1.0, magnitude=1.0
                ),
            )
        )
        with pytest.raises(MeterSaturation):
            FaultInjector(plan).saturate_meter_codes(
                "s", np.full(10, 150, dtype=np.int64), 950
            )


class TestAmbientInstallation:
    def test_install_uninstall(self):
        try:
            injector = install(_crash_plan(1.0))
            assert active() is injector
        finally:
            uninstall()
        assert active() is None

    def test_injected_restores_previous(self):
        with injected(_crash_plan(1.0, seed="outer")) as outer:
            with injected(_crash_plan(1.0, seed="inner")) as inner:
                assert active() is inner
            assert active() is outer

    def test_shielded_suppresses_the_active_injector(self):
        with injected(_crash_plan(1.0)) as injector:
            assert active() is injector
            with shielded():
                assert active() is None
            assert active() is injector

    def test_attempt_scope_nests(self):
        current_attempt = injector_module._ATTEMPT.get
        assert current_attempt() == 0
        with attempt_scope(2):
            assert current_attempt() == 2
            with attempt_scope(5):
                assert current_attempt() == 5
            assert current_attempt() == 2
        assert current_attempt() == 0
