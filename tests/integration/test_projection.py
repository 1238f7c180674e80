"""End-to-end tests for the forward-projection subsystem (ISSUE 10).

The contract under test is the subsystem's strongest promise: a frontier
search over synthesized post-2011 machines produces **byte-identical**
datasets (and figure text) at any worker count, with the vectorized
kernels on or off, and under an armed fail-stop fault plan — because
every layer underneath (candidate synthesis, the Study pipeline, the
Pareto scan, canonical JSON) is deterministic.

A golden digest pins the small-search dataset across sessions the same
way ``golden_stock`` pins the measured dataset; like every golden here,
it must keep passing with ``REPRO_FAULT_PLAN=ci`` armed, since retried
fail-stop faults reproduce the fault-free bytes.
"""

import asyncio
import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.cli import main
from repro.faults.retry import RetryPolicy
from repro.projection import evaluate_projection_finding, search
from repro.reporting.figures import projection_figure
from repro.service.server import CampaignServer, Request
from tests.equivalence import Capture, Mode, assert_campaign_equivalent, sweep

#: The small search every equivalence axis re-runs: two nodes bracket the
#: projected era, samples kept low so each fresh study stays quick.
_NODES = (22, 7)
_SAMPLES = 12
_SEED = 0

#: sha256 of the small search's canonical dataset bytes (quick protocol,
#: invocation_scale=0.2).  Refresh deliberately with:
#: ``PYTHONPATH=src python -c "import hashlib; from repro.core.study import
#: Study; from repro.projection import search; print(hashlib.sha256(
#: search(study=Study(invocation_scale=0.2), nodes=(22, 7), samples=12,
#: seed=0).to_json_bytes()).hexdigest())"``
_GOLDEN_SHA = "ee19c9d56877d023889cfc37557e0f2f66a0f09437ac045bf470ab6437541f58"


#: Retry headroom for a session-wide ``REPRO_FAULT_PLAN``.
_RETRY = RetryPolicy(max_retries=8) if os.environ.get("REPRO_FAULT_PLAN") else None

#: The in-process, vectorized search, under the ambient fault plan like
#: every golden here; every other run must match it.
_BASELINE = Mode(kernels=True, plan=None)


def _search(study):
    """The small search on ``study``: its dataset and figure bytes."""
    dataset = search(study=study, nodes=_NODES, samples=_SAMPLES, seed=_SEED)
    figure = projection_figure(dataset).encode()
    return Capture(
        artifacts={"frontier.json": dataset.to_json_bytes(), "figure.txt": figure}
    )


class TestByteIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_any_worker_count_matches_sequential(
        self, references, reference, tmp_path, jobs
    ):
        mode = replace(_BASELINE, dispatch=jobs)
        actual = sweep(references, mode, _search, workdir=tmp_path, retry=_RETRY)
        assert_campaign_equivalent(reference(_BASELINE, _search, _RETRY), actual)

    def test_scalar_kernels_match_vectorized(self, references, reference, tmp_path):
        mode = replace(_BASELINE, kernels=False)
        actual = sweep(references, mode, _search, workdir=tmp_path, retry=_RETRY)
        assert_campaign_equivalent(reference(_BASELINE, _search, _RETRY), actual)

    def test_golden_digest(self, reference):
        dataset = reference(_BASELINE, _search, _RETRY).artifacts["frontier.json"]
        assert hashlib.sha256(dataset).hexdigest() == _GOLDEN_SHA

    def test_repeat_on_a_warm_study_is_identical(self, study, reference):
        """The session study's warm cache must not perturb the bytes."""
        expected = reference(_BASELINE, _search, _RETRY)
        assert_campaign_equivalent(expected, _search(study))


class TestFourNodeSearch:
    @pytest.fixture(scope="class")
    def dataset(self, study):
        return search(study=study, nodes=(22, 14, 10, 7), samples=16, seed=0)

    def test_finding_p1_holds(self, dataset):
        report = evaluate_projection_finding(dataset)
        assert report.finding_id == "P1"
        assert report.holds, report.evidence

    def test_measured_overlay_covers_the_four_nodes(self, dataset):
        nodes = {point.node_nm for point in dataset.measured}
        assert nodes == {130, 65, 45, 32}
        assert len(dataset.measured) >= 8  # the stock catalog

    def test_every_node_has_a_frontier(self, dataset):
        frontiers = {f.node_nm: f for f in dataset.frontiers}
        for nm in (22, 14, 10, 7):
            frontier = frontiers[nm]
            assert frontier.outcomes
            assert frontier.efficient_keys
            efficient = set(frontier.efficient_keys)
            assert efficient <= {o.candidate.key for o in frontier.outcomes}

    def test_projected_frontiers_advance_the_measured_trend(self, dataset):
        best_measured = max(p.performance / p.energy for p in dataset.measured)
        frontiers = {f.node_nm: f for f in dataset.frontiers}
        for nm in (22, 14, 10, 7):
            assert frontiers[nm].best_efficiency() > best_measured


class TestCliProject:
    def test_out_files_identical_across_worker_counts(self, capsys, tmp_path):
        out = {}
        for jobs in ("1", "2"):
            target = tmp_path / f"jobs{jobs}"
            assert main([
                "--quick", "--jobs", jobs, "project",
                "--nodes", "22", "--samples", "6", "--seed", "3",
                "--out", str(target),
            ]) == 0
            text = capsys.readouterr().out
            assert "searched" in text
            assert "finding P1" in text
            out[jobs] = Capture(
                artifacts={
                    name: (target / name).read_bytes()
                    for name in ("frontier.json", "figure.txt")
                }
            )
        assert_campaign_equivalent(out["1"], out["2"])
        json.loads(out["1"].artifacts["frontier.json"])  # valid JSON

    def test_bad_nodes_exit_with_usage_error(self, capsys):
        assert main(["--quick", "project", "--nodes", "22,x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: nodes must be") and err.count("\n") == 1
        assert "'22,x'" in err

    def test_unknown_node_exit_with_usage_error(self, capsys):
        assert main(["--quick", "project", "--nodes", "45"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: nodes must be") and err.count("\n") == 1
        assert "'45'" in err

    def test_list_nodes_flags_synthetic(self, capsys):
        assert main(["list", "nodes"]) == 0
        out = capsys.readouterr().out
        assert out.count("projected/synthetic") == 4
        assert out.count("measured") == 4


def _get(server: CampaignServer, query: dict[str, str]):
    request = Request(
        method="GET",
        path="/project",
        query=query,
        headers={},
        body=b"",
        peer="test",
    )
    return asyncio.run(server.handle(request))


class TestServiceRoute:
    @pytest.fixture(scope="class")
    def server(self, study):
        return CampaignServer(study=study)

    def test_project_route_end_to_end(self, server):
        query = {"nodes": "22", "samples": "6", "seed": "3"}
        first = _get(server, query)
        assert first.status == 200
        payload = json.loads(first.body)
        assert payload["params"]["nodes"] == [22]
        assert payload["candidates"] > 0
        assert payload["finding"]["id"] == "P1"
        assert payload["dataset"]["nodes"][0]["nm"] == 22
        # The deterministic search makes the repeat cache-served and
        # byte-identical.
        second = _get(server, query)
        assert second.status == 200
        assert second.body == first.body

    @pytest.mark.parametrize("query", [
        {"nodes": "45"},              # measured node
        {"nodes": ""},                # empty list
        {"nodes": "22,x"},            # not an integer
        {"samples": "0"},             # below range
        {"samples": "10000"},         # above PROJECT_MAX_SAMPLES
        {"tdp": "-5"},                # invalid budget
    ])
    def test_bad_parameters_return_400(self, server, query):
        response = _get(server, query)
        assert response.status == 400
        assert "error" in json.loads(response.body)
