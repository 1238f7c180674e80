"""Unit tests for the 45-point configuration space (§2.8)."""

from repro.hardware.configurations import (
    all_configurations,
    node_45nm_configurations,
    stock_configurations,
)


def _configurations_of(processor_key):
    return [c for c in all_configurations() if c.spec.key == processor_key]


class TestSpaceShape:
    def test_exactly_45_configurations(self):
        """§2.8: 'We evaluate the eight stock processors and configure
        them for a total of 45 processor configurations.'"""
        assert len(all_configurations()) == 45

    def test_exactly_29_at_45nm(self):
        """§4.2: 'We expand the number of processors from four to
        twenty-nine.'"""
        assert len(node_45nm_configurations()) == 29

    def test_eight_stock(self):
        assert len(stock_configurations()) == 8

    def test_every_stock_configuration_in_space(self):
        keys = {c.key for c in all_configurations()}
        for config in stock_configurations():
            assert config.key in keys

    def test_all_keys_unique(self):
        keys = [c.key for c in all_configurations()]
        assert len(keys) == len(set(keys))

    def test_every_processor_represented(self):
        keys = {c.spec.key for c in all_configurations()}
        assert len(keys) == 8


class TestTable5Members:
    """Every configuration the paper's Table 5 lists must exist."""

    def test_table5_configurations_exist(self):
        from repro.experiments import paper_data

        keys = {c.key for c in node_45nm_configurations()}
        for grouping, members in paper_data.TABLE5_PARETO.items():
            for member in members:
                assert member in keys, f"{member} missing ({grouping})"

    def test_atomd_has_all_four_configurations(self):
        """§4.2 mentions 'all four AtomD (45) configurations'."""
        atomd = _configurations_of("atomd_45")
        assert len(atomd) == 4
        shapes = {(c.active_cores, c.threads_per_core) for c in atomd}
        assert shapes == {(1, 1), (1, 2), (2, 1), (2, 2)}


class TestPerProcessor:
    def test_configurations_for_filters(self):
        i7_configs = _configurations_of("i7_45")
        assert all(c.spec.key == "i7_45" for c in i7_configs)
        assert len(i7_configs) == 19

    def test_i7_has_turbo_contrasts(self):
        i7_configs = _configurations_of("i7_45")
        enabled = {c.key for c in i7_configs if c.turbo_enabled}
        disabled = {c.key for c in i7_configs if not c.turbo_enabled}
        assert enabled and disabled

    def test_feature_experiment_configs_present(self):
        """The §3 controlled experiments' settings exist in the space."""
        keys = {c.key for c in all_configurations()}
        for needed in (
            "i7_45/2C1T@2.66-TB",
            "i7_45/1C1T@2.66-TB",
            "i5_32/1C2T@3.46-TB",
            "pentium4_130/1C1T@2.4",
            "atom_45/1C1T@1.66",
            "c2d_45/2C1T@1.6",
            "c2d_65/1C1T@2.4",
        ):
            assert needed in keys, needed
