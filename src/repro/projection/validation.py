"""Validate the projected trajectory against the measured trend.

A finding-check in the :mod:`repro.experiments.findings` style (it reuses
:class:`FindingReport`) but deliberately *not* registered in
``ALL_FINDINGS`` — the paper's thirteen findings are measured claims, and
this one scores a synthesized extrapolation.

The check encodes what "16 Years of SPEC Power" and "Trends in Processor
Architecture" (PAPERS.md) say the post-2011 record looks like:

* energy efficiency (performance per unit energy) keeps improving every
  node, so the projected frontier's best perf/energy must continue the
  measured 130 -> 32 nm ascent monotonically through 22 -> 7 nm;
* but the *rate* slows after Dennard scaling ends — SPEC-Power efficiency
  doubling stretched from ~1.5 to ~2.4 years — so each projected step's
  gain must stay positive yet below the measured era's best step;
* and the dark-silicon share of a fixed budget grows every shrink, within
  tolerance of the node model's declared fractions.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.findings import FindingReport
from repro.hardware.technology import PROJECTED_NODES
from repro.projection.frontier import ProjectionDataset
from repro.projection.synthesize import Budget, node_capacity

PROJECTION_FINDING_ID = "P1"

#: |declared - achieved| tolerance on the per-node dark-silicon fraction.
DARK_TOLERANCE = 0.12

#: Allowed per-step efficiency gain for a projected shrink, as a multiple
#: of the previous node's best perf/energy: positive but sub-Dennard.
MIN_STEP_GAIN = 1.02
MAX_STEP_GAIN = 2.60


def _measured_best(dataset: ProjectionDataset) -> list[tuple[int, float]]:
    """Best measured perf/energy per node, largest feature size first."""
    best: dict[int, float] = {}
    for point in dataset.measured:
        ratio = point.performance / point.energy
        best[point.node_nm] = max(best.get(point.node_nm, 0.0), ratio)
    return sorted(best.items(), key=lambda item: -item[0])


def _projected_best(dataset: ProjectionDataset) -> list[tuple[int, float]]:
    return sorted(
        ((f.node_nm, f.best_efficiency()) for f in dataset.frontiers),
        key=lambda item: -item[0],
    )


def evaluate_projection_finding(
    dataset: ProjectionDataset, budget: Optional[Budget] = None
) -> FindingReport:
    """P1: the synthesized generations continue the measured perf/W trend."""
    budget = budget if budget is not None else dataset.budget
    measured = _measured_best(dataset)
    projected = _projected_best(dataset)
    trajectory = measured + projected

    monotone = all(
        earlier < later
        for (_, earlier), (_, later) in zip(trajectory, trajectory[1:])
    )

    # Step gains are compared within each era: the measured points are
    # four-core products of their time, the projected points are
    # budget-limited frontier bests, so the bridge step between eras mixes
    # a product constraint with a search result and is only required to be
    # an improvement (covered by the monotone check above).
    measured_steps = [
        later / earlier
        for (_, earlier), (_, later) in zip(measured, measured[1:])
    ]
    projected_steps = [
        later / earlier
        for (_, earlier), (_, later) in zip(projected, projected[1:])
    ]
    steps_bounded = all(
        MIN_STEP_GAIN <= step <= MAX_STEP_GAIN for step in projected_steps
    )
    slower_than_dennard = (
        not measured_steps
        or not projected_steps
        or max(projected_steps) <= max(measured_steps)
    )

    dark = {
        nm: node_capacity(nm, budget)["dark_fraction"]
        for nm in sorted(PROJECTED_NODES, reverse=True)
    }
    dark_values = [dark[nm] for nm in sorted(dark, reverse=True)]
    dark_monotone = all(a < b for a, b in zip(dark_values, dark_values[1:]))
    dark_in_tolerance = all(
        abs(dark[nm] - PROJECTED_NODES[nm].dark_silicon_fraction) <= DARK_TOLERANCE
        for nm in dark
    )

    evidence: dict[str, float | str | bool] = {
        "trajectory_monotone": monotone,
        "steps_bounded": steps_bounded,
        "slower_than_dennard": slower_than_dennard,
        "dark_monotone": dark_monotone,
        "dark_in_tolerance": dark_in_tolerance,
    }
    for nm, ratio in trajectory:
        evidence[f"best_perf_per_energy_{nm}nm"] = round(ratio, 3)
    for index, step in enumerate(projected_steps):
        evidence[f"projected_step_gain_{index}"] = round(step, 3)
    for nm, fraction in dark.items():
        evidence[f"dark_fraction_{nm}nm"] = round(fraction, 3)

    return FindingReport(
        finding_id=PROJECTION_FINDING_ID,
        statement=(
            "Synthesized 22-7 nm generations continue the measured "
            "perf/energy ascent at a post-Dennard (slower) rate, with a "
            "dark-silicon share that grows every shrink"
        ),
        holds=(
            monotone
            and steps_bounded
            and slower_than_dennard
            and dark_monotone
            and dark_in_tolerance
        ),
        evidence=evidence,
    )

