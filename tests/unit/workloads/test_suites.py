"""Unit tests for the per-suite signature content.

Checks the domain knowledge encoded in the suite modules: which
benchmarks are the memory-bound outliers, which are the power hogs, how
the suites differ in control-flow behaviour — the facts the experiments
lean on.
"""

import pytest

from repro.core.statistics import mean
from repro.workloads.benchmark import Suite
from repro.workloads.catalog import BENCHMARKS, benchmark


def by_suite(suite):
    return tuple(b for b in BENCHMARKS if b.suite is suite)


class TestSpecCpu2006:
    def test_known_memory_bound_members(self):
        """mcf, lbm, milc, libquantum, omnetpp, GemsFDTD are the famous
        memory-bound SPEC codes."""
        for name in ("mcf", "lbm", "milc", "libquantum", "omnetpp", "GemsFDTD"):
            assert benchmark(name).character.memory_mpki >= 10.0, name

    def test_known_compute_bound_members(self):
        for name in ("hmmer", "gamess", "povray", "namd", "h264ref"):
            assert benchmark(name).character.memory_mpki < 1.0, name

    def test_cint_branchier_than_cfp(self):
        cint = mean([b.character.branch_mpki for b in by_suite(Suite.SPEC_CINT2006)])
        cfp = mean([b.character.branch_mpki for b in by_suite(Suite.SPEC_CFP2006)])
        assert cint > 2 * cfp

    def test_cfp_higher_activity_than_cint(self):
        """FP pipelines switch more logic per instruction."""
        cint = mean([b.character.activity for b in by_suite(Suite.SPEC_CINT2006)])
        cfp = mean([b.character.activity for b in by_suite(Suite.SPEC_CFP2006)])
        assert cfp > cint

    def test_omnetpp_lowest_activity(self):
        """§2.5's 23 W minimum on the i7 is omnetpp."""
        spec = by_suite(Suite.SPEC_CINT2006) + by_suite(Suite.SPEC_CFP2006)
        lowest = min(spec, key=lambda b: b.character.activity)
        assert lowest.name == "omnetpp"


class TestParsec:
    def test_fluidanimate_hungriest(self):
        """§2.5's 89 W maximum on the i7 is fluidanimate."""
        hungriest = max(
            by_suite(Suite.PARSEC), key=lambda b: b.character.activity
        )
        assert hungriest.name == "fluidanimate"

    def test_canneal_and_streamcluster_memory_bound(self):
        assert benchmark("canneal").character.memory_mpki >= 10.0
        assert benchmark("streamcluster").character.memory_mpki >= 8.0

    def test_all_highly_parallel(self):
        for bench in by_suite(Suite.PARSEC):
            assert bench.character.parallel_fraction > 0.9, bench.name

    def test_swaptions_tiny_working_set(self):
        assert benchmark("swaptions").character.footprint_mb <= 2.0


class TestJavaSuites:
    def test_db_displacement_strongest(self):
        """§3.1's worked example: db suffers the most collector
        displacement of the SPECjvm codes."""
        specjvm = by_suite(Suite.SPECJVM)
        worst = max(specjvm, key=lambda b: b.jvm.displacement_mpki_factor)
        assert worst.name == "db"

    def test_antlr_most_jvm_intensive(self):
        """§3.1: antlr spends up to 50% of its time in the JVM."""
        java = [b for b in by_suite(Suite.DACAPO_06) + by_suite(Suite.DACAPO_9)
                + by_suite(Suite.SPECJVM)]
        heaviest = max(java, key=lambda b: b.jvm.service_fraction)
        assert heaviest.name == "antlr"
        assert heaviest.jvm.service_fraction > 0.35

    def test_mpegaudio_barely_allocates(self):
        assert benchmark("mpegaudio").jvm.service_fraction <= 0.02

    def test_mtrt_two_threads(self):
        """'Dual-threaded raytracer' (Table 1)."""
        assert benchmark("mtrt").character.software_threads == 2

    def test_pjbb_eight_warehouses(self):
        from repro.workloads.suites.pjbb2005 import WAREHOUSES

        assert WAREHOUSES == 8
        assert benchmark("pjbb2005").character.software_threads == 8

    def test_dacapo9_scalable_sorted_by_paper_scalability(self):
        """sunflow must out-scale eclipse (Fig. 1's extremes)."""
        assert (
            benchmark("sunflow").character.parallel_fraction
            > benchmark("eclipse").character.parallel_fraction
        )

    @pytest.mark.parametrize(
        "name", ["avrora", "batik", "h2", "jython", "pmd", "tradebeans"]
    )
    def test_mt_nonscalable_parallel_fractions_low(self, name):
        assert benchmark(name).character.parallel_fraction < 0.5
