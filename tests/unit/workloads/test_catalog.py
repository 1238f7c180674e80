"""Unit tests for the 61-benchmark catalog (Table 1)."""

from collections import Counter

import pytest

from repro.workloads.benchmark import Group, Language, Suite
from repro.workloads.catalog import (
    BENCHMARKS,
    benchmark,
    by_group,
    groups,
    multithreaded_java,
    names,
    single_threaded_java,
)


class TestCensus:
    def test_sixty_one_benchmarks(self):
        assert len(BENCHMARKS) == 61

    def test_group_sizes(self):
        assert len(by_group(Group.NATIVE_NONSCALABLE)) == 27
        assert len(by_group(Group.NATIVE_SCALABLE)) == 11
        assert len(by_group(Group.JAVA_NONSCALABLE)) == 18
        assert len(by_group(Group.JAVA_SCALABLE)) == 5

    def test_suite_sizes(self):
        sizes = Counter(b.suite for b in BENCHMARKS)
        assert sizes[Suite.SPEC_CINT2006] == 12
        assert sizes[Suite.SPEC_CFP2006] == 15
        assert sizes[Suite.PARSEC] == 11
        assert sizes[Suite.SPECJVM] == 7
        assert sizes[Suite.DACAPO_06] == 2
        assert sizes[Suite.DACAPO_9] == 13
        assert sizes[Suite.PJBB2005] == 1

    def test_names_unique(self):
        assert len({b.name for b in BENCHMARKS}) == 61

    def test_paper_exclusions_absent(self):
        """410.bwaves/481.wrf (icc failures), freqmine/dedup (PARSEC),
        tradesoap (socket timeouts) are excluded, as in the paper."""
        for excluded in ("bwaves", "wrf", "freqmine", "dedup", "tradesoap"):
            with pytest.raises(KeyError):
                benchmark(excluded)

    def test_known_members(self):
        assert benchmark("mcf").suite is Suite.SPEC_CINT2006
        assert benchmark("lbm").suite is Suite.SPEC_CFP2006
        assert benchmark("fluidanimate").suite is Suite.PARSEC
        assert benchmark("db").suite is Suite.SPECJVM
        assert benchmark("antlr").suite is Suite.DACAPO_06
        assert benchmark("sunflow").suite is Suite.DACAPO_9
        assert benchmark("pjbb2005").suite is Suite.PJBB2005


class TestGrouping:
    def test_canonical_group_order(self):
        assert groups() == (
            Group.NATIVE_NONSCALABLE,
            Group.NATIVE_SCALABLE,
            Group.JAVA_NONSCALABLE,
            Group.JAVA_SCALABLE,
        )

    def test_java_scalable_members(self):
        """The paper's five most scalable multithreaded Java codes."""
        assert set(names(by_group(Group.JAVA_SCALABLE))) == {
            "sunflow",
            "xalan",
            "tomcat",
            "lusearch",
            "eclipse",
        }

    def test_languages_match_groups(self):
        for b in BENCHMARKS:
            assert (b.language is Language.JAVA) == b.group.value.startswith("Java")

    def test_all_spec_cpu_single_threaded(self):
        for b in by_group(Group.NATIVE_NONSCALABLE):
            assert not b.multithreaded

    def test_all_parsec_scale_to_available_contexts(self):
        for b in by_group(Group.NATIVE_SCALABLE):
            assert b.character.software_threads is None
            assert b.character.parallel_fraction > 0.9

    def test_java_nonscalable_mixes_st_and_mt(self):
        jn = by_group(Group.JAVA_NONSCALABLE)
        assert any(b.multithreaded for b in jn)
        assert any(not b.multithreaded for b in jn)

    def test_mt_jn_members_match_paper(self):
        """§2.1: pjbb2005, avrora, batik, h2, jython, pmd, tradebeans
        (plus mtrt's two threads) are the multithreaded JN members."""
        mt_jn = {
            b.name for b in by_group(Group.JAVA_NONSCALABLE) if b.multithreaded
        }
        assert mt_jn == {
            "pjbb2005", "avrora", "batik", "h2", "jython", "pmd",
            "tradebeans", "mtrt",
        }


class TestSubsets:
    def test_single_threaded_java(self):
        subset = names(single_threaded_java())
        assert "db" in subset and "antlr" in subset
        assert "sunflow" not in subset and "mtrt" not in subset
        assert len(subset) == 10

    def test_multithreaded_java_covers_fig1(self):
        from repro.experiments import paper_data

        subset = set(names(multithreaded_java()))
        assert subset == set(paper_data.FIG1_JAVA_SCALABILITY)


class TestReferenceTimes:
    @pytest.mark.parametrize(
        "name,seconds",
        [
            ("perlbench", 1037), ("bzip2", 1563), ("gamess", 3505),
            ("lbm", 1298), ("blackscholes", 482), ("x264", 265),
            ("compress", 5.3), ("mtrt", 0.8), ("eclipse", 50.5),
            ("pjbb2005", 10.6), ("tradebeans", 18.4), ("sunflow", 19.4),
        ],
    )
    def test_table1_reference_seconds(self, name, seconds):
        assert benchmark(name).reference_seconds == seconds

    def test_native_reference_times_longer_than_java(self):
        """§2.6: native workloads run much longer (more repetition)."""
        native = [b.reference_seconds for b in BENCHMARKS if not b.managed]
        java = [b.reference_seconds for b in BENCHMARKS if b.managed]
        assert min(native) > max(java)
