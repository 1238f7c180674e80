"""Forward projection past the measured era (ROADMAP item 2).

The paper's measurements stop at 32 nm / 2010.  This subsystem synthesizes
post-2011 processors at the projected 22/14/10/7 nm operating points
(:mod:`repro.hardware.technology`), generates candidate machines —
homogeneous and heterogeneous big/little mixes under a fixed area and TDP
budget — from a seeded generator (:mod:`repro.projection.synthesize`),
runs the candidate space through the unmodified engine/Study pipeline, and
computes per-node Pareto frontiers overlaid on the measured generations
(:mod:`repro.projection.frontier`).  :mod:`repro.projection.validation`
checks the synthesized trajectory against the measured perf/energy trend.

Everything here is deterministic: same seed, node list, budget, and sample
count produce byte-identical frontier datasets at any worker count, with
vectorized kernels on or off, and under retried fail-stop fault plans —
the guarantees the Study pipeline already provides, which the projection
layer is careful not to launder away (docs/projection.md).
"""

from repro.projection.synthesize import (
    Budget,
    Candidate,
    Cluster,
    ProjectedProcessor,
    ProjectionQuery,
    ProjectionQueryError,
    node_capacity,
    parse_query,
    synthesize_candidates,
    synthesize_spec,
)
from repro.projection.frontier import (
    PROJECTION_BENCHMARK_NAMES,
    CandidateOutcome,
    MeasuredPoint,
    NodeFrontier,
    ProjectionDataset,
    projection_benchmarks,
    search,
)
from repro.projection.validation import (
    PROJECTION_FINDING_ID,
    evaluate_projection_finding,
)

__all__ = [
    "Budget",
    "Candidate",
    "CandidateOutcome",
    "Cluster",
    "MeasuredPoint",
    "NodeFrontier",
    "PROJECTION_BENCHMARK_NAMES",
    "PROJECTION_FINDING_ID",
    "ProjectedProcessor",
    "ProjectionDataset",
    "ProjectionQuery",
    "ProjectionQueryError",
    "evaluate_projection_finding",
    "node_capacity",
    "parse_query",
    "projection_benchmarks",
    "search",
    "synthesize_candidates",
    "synthesize_spec",
]
