"""Unit tests for BIOS-style configurations (§2.8)."""

import dataclasses
import pickle

import pytest

from repro.hardware.catalog import (
    ATOM_45,
    CORE2DUO_65,
    CORE_I5_32,
    CORE_I7_45,
    PROCESSORS,
)
from repro.hardware.config import (
    Configuration,
    UnsupportedConfigurationError,
    configure,
    resolve_pair,
    stock,
)
from repro.hardware.configurations import all_configurations
from repro.workloads.catalog import benchmark


class TestValidation:
    def test_stock_is_valid(self):
        for spec in (CORE_I7_45, ATOM_45, CORE2DUO_65):
            config = stock(spec)
            assert (config.active_cores, config.threads_per_core) == (
                spec.cores, spec.threads_per_core,
            )
            assert config.clock_ghz == spec.stock_clock.ghz
            assert config.turbo_enabled == spec.has_turbo

    def test_too_many_cores_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            Configuration(CORE2DUO_65, 3, 1, 2.4)

    def test_zero_cores_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            Configuration(CORE2DUO_65, 0, 1, 2.4)

    def test_smt_on_non_smt_part_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            Configuration(CORE2DUO_65, 2, 2, 2.4)

    def test_unsupported_clock_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            Configuration(CORE_I7_45, 4, 2, 3.2)

    def test_turbo_requires_capability(self):
        with pytest.raises(UnsupportedConfigurationError):
            Configuration(ATOM_45, 1, 2, 1.66, turbo_enabled=True)

    def test_turbo_requires_stock_clock(self):
        """§3.6: Turbo Boost only engages at the default highest clock."""
        with pytest.raises(UnsupportedConfigurationError):
            Configuration(CORE_I7_45, 4, 2, 1.6, turbo_enabled=True)

    def test_turbo_at_stock_clock_allowed(self):
        Configuration(CORE_I7_45, 4, 2, 2.66, turbo_enabled=True)


class TestIdentity:
    def test_key_format(self):
        config = Configuration(CORE_I7_45, 4, 2, 2.66, turbo_enabled=True)
        assert config.key == "i7_45/4C2T@2.66+TB"

    def test_key_marks_disabled_turbo(self):
        config = Configuration(CORE_I7_45, 4, 2, 2.66)
        assert config.key.endswith("-TB")

    def test_non_turbo_parts_have_plain_keys(self):
        assert stock(ATOM_45).key == "atom_45/1C2T@1.66"

    def test_label_mentions_no_tb(self):
        assert "No TB" in Configuration(CORE_I7_45, 1, 1, 2.66).label

    def test_keys_unique_across_space(self):
        from repro.hardware.configurations import all_configurations

        keys = [c.key for c in all_configurations()]
        assert len(keys) == len(set(keys))


class TestStoredKey:
    """``key`` is built once at construction; equality, pickling and
    ``dataclasses.replace`` behave as they do over the five declared
    fields alone, and the hash is the key's, which those fields fix."""

    FIELDS = (CORE_I7_45, 4, 2, 2.66, True)

    def test_equality_ignores_the_key(self):
        assert Configuration(*self.FIELDS) == Configuration(*self.FIELDS)
        other = Configuration(CORE_I7_45, 4, 1, 2.66, True)
        assert Configuration(*self.FIELDS) != other
        compared = [f.name for f in dataclasses.fields(Configuration) if f.compare]
        assert compared == [
            "spec", "active_cores", "threads_per_core", "clock_ghz", "turbo_enabled"
        ]

    def test_hash_is_the_key_hash(self):
        config = Configuration(*self.FIELDS)
        assert hash(config) == hash(config.key) == hash("i7_45/4C2T@2.66+TB")

    def test_equal_configurations_hash_equal_and_share_dict_entries(self):
        first, second = Configuration(*self.FIELDS), Configuration(*self.FIELDS)
        assert first is not second and first == second
        assert hash(first) == hash(second)
        table = {first: "measured", (benchmark("mcf"), first): "pair"}
        assert table[second] == "measured"
        assert table[(benchmark("mcf"), second)] == "pair"
        assert table[pickle.loads(pickle.dumps(first))] == "measured"
        assert Configuration(CORE_I7_45, 4, 1, 2.66, True) not in table
        configs = all_configurations()
        by_config = {config: config.key for config in configs}
        assert len(by_config) == len(configs)
        for config in configs:
            assert by_config[dataclasses.replace(config)] == config.key

    def test_pickle_round_trip_keeps_value_and_key(self):
        config = Configuration(*self.FIELDS)
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config
        assert hash(restored) == hash(config)
        assert restored.key == config.key == "i7_45/4C2T@2.66+TB"

    def test_replace_rebuilds_the_key(self):
        config = Configuration(*self.FIELDS)
        derived = dataclasses.replace(config, active_cores=2, turbo_enabled=False)
        assert derived == Configuration(CORE_I7_45, 2, 2, 2.66)
        assert derived.key == "i7_45/2C2T@2.66-TB"
        assert dataclasses.replace(config, threads_per_core=1).key == "i7_45/4C1T@2.66+TB"
        with pytest.raises(ValueError):
            dataclasses.replace(config, key="forged")

    def test_key_is_read_only_and_not_in_repr(self):
        config = Configuration(*self.FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.key = "forged"
        assert config.key not in repr(config)


class TestDerived:
    def test_hardware_contexts(self):
        assert Configuration(CORE_I7_45, 2, 2, 2.66).hardware_contexts == 4

    def test_voltage_at_stock_is_vid_max(self):
        config = stock(CORE_I5_32)
        assert config.voltage().value == pytest.approx(1.40)


class TestDerivationHelpers:
    def test_with_cores(self):
        assert stock(CORE_I7_45).with_cores(2).active_cores == 2

    def test_at_clock_drops_turbo_below_stock(self):
        derived = stock(CORE_I7_45).at_clock(1.6)
        assert derived.clock_ghz == 1.6
        assert not derived.turbo_enabled

    def test_at_clock_keeps_turbo_at_stock(self):
        derived = stock(CORE_I7_45).at_clock(2.66)
        assert derived.turbo_enabled


class TestResolvePair:
    def test_processor_and_settings(self):
        bench, config = resolve_pair(
            "xalan", processor_key="i7_45", cores=2, threads=1, clock=1.6
        )
        assert bench is benchmark("xalan")
        assert config.key == "i7_45/2C1T@1.6-TB"

    def test_every_study_configuration_resolves_from_its_key(self):
        for config in all_configurations():
            assert resolve_pair("mcf", config.key)[1] == config

    def test_every_built_configuration_resolves_from_its_key(self):
        # Journal recovery resolves the keys POST /measure wrote, and
        # those include configurations outside the study's 45.
        for spec in PROCESSORS:
            for cores in range(1, spec.cores + 1):
                config = configure(spec, cores=cores, threads=1, turbo=False)
                assert resolve_pair("mcf", config.key)[1] == config

    @pytest.mark.parametrize("args, message", [
        (("nope", None, "i7_45"), "unknown benchmark 'nope'"),
        (("mcf", None, "nope"), "unknown processor 'nope'"),
        (("mcf", "bogus"), "unknown configuration key 'bogus'"),
        (("mcf", "i7_45/9C2T@2.66-TB"), "unknown configuration key"),
        (("mcf", "i7_45/4C2T@2.660-TB"), "unknown configuration key"),
        (("mcf",), "need 'config'"),
    ], ids=["benchmark", "processor", "key", "key-too-many-cores",
            "key-not-canonical", "no-configuration"])
    def test_bad_names_raise_one_error_type(self, args, message):
        with pytest.raises(UnsupportedConfigurationError, match=message):
            resolve_pair(*args)

    def test_bad_setting_names_the_configuration(self):
        with pytest.raises(
            UnsupportedConfigurationError, match="^unsupported configuration: "
        ):
            resolve_pair("mcf", processor_key="i7_45", cores=9)
