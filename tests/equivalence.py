"""The byte-identity contract as one oracle.

However a campaign runs (in-process or on the worker pool, kernels on or
off, under a retried fail-stop plan, killed and resumed from its
checkpoint) it must produce the same records in sweep order, the same
:class:`~repro.core.results.CampaignHealth` (failure-dict order too), the
same checkpoint bytes and the same store rows.  Suites capture runs with
:func:`sweep` or :func:`capture` and compare them with
:func:`assert_campaign_equivalent` only.
"""

from __future__ import annotations

import json
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional

from repro.core.results import CampaignHealth
from repro.core.study import Study
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.workloads.catalog import benchmark

CLEAN = FaultPlan()

#: The shared campaign, in ``Study.run``'s configuration-major order.
CONFIGS = (stock(CORE_I7_45), stock(ATOM_45))
BENCHES = tuple(benchmark(name) for name in ("mcf", "db", "eclipse", "lusearch"))
PAIRS = tuple((bench, config) for config in CONFIGS for bench in BENCHES)


@dataclass(frozen=True)
class Mode:
    """How a campaign runs; ``Mode()`` is the reference run."""

    dispatch: Optional[int] = None  # pool workers, passed explicitly; None: in-process
    kernels: bool = False  # Study(vectorize=...)
    plan: Optional[FaultPlan] = CLEAN  # armed around the run; None: the ambient plan
    restart: bool = False  # killed after half the pairs, resumed from the checkpoint


@dataclass(frozen=True)
class Capture:
    """What a run produced; a field left ``None`` is not compared."""

    records: Optional[tuple] = None
    health: Optional[CampaignHealth] = None
    checkpoint: Optional[bytes] = None
    rows: Optional[tuple] = None
    artifacts: Optional[Mapping[str, bytes]] = None  # named output bytes
    #: A kept-alive pool's snapshot after the run: evidence, not contract.
    fleet: Optional[dict] = field(default=None, compare=False)

    def only(self, *names: str) -> Capture:
        return Capture(**{name: getattr(self, name) for name in names})


def capture(results, checkpoint: Optional[Path] = None) -> Capture:
    """A result set's (or any result iterable's) records and health, and
    ``checkpoint``'s bytes."""
    return Capture(
        records=tuple(result.as_record() for result in results),
        health=getattr(results, "health", None),
        checkpoint=None if checkpoint is None else checkpoint.read_bytes(),
    )


def assert_campaign_equivalent(
    expected: Capture, actual: Capture, *, bag: bool = False
) -> None:
    """Every field ``expected`` captured, ``actual`` holds equally.
    Records and rows compare in order unless ``bag``."""
    names = ("records", "health", "checkpoint", "rows", "artifacts")
    compared = [name for name in names if getattr(expected, name) is not None]
    assert compared, "the expected capture holds nothing to compare"
    for name in compared:
        want, got = getattr(expected, name), getattr(actual, name)
        assert got is not None, f"the actual run did not capture {name}"
        if bag and name in ("records", "rows"):
            want, got = (sorted(json.dumps(i, sort_keys=True) for i in x)
                         for x in (want, got))
        assert got == want, f"{name} differ"
        if name == "health":  # mapping equality ignores the order
            assert list(got.failures) == list(want.failures), "failure order"


def sweep(references, mode: Mode, campaign=PAIRS, *, workdir: Path, retry=None,
          **study_kwargs) -> Capture:
    """Run ``campaign`` (a pair list, or a callable ``(study, jobs) ->
    Capture``) under ``mode`` on fresh quick-protocol studies that
    checkpoint under ``workdir``.  A restarted run's health is both
    attempts' together, restored pairs counted once, as measured: what
    one uninterrupted run reports."""
    checkpoint = Path(tempfile.mkdtemp(dir=workdir)) / "campaign.jsonl"

    def fresh() -> Study:
        return Study(references=references, invocation_scale=0.2, retry=retry,
                     checkpoint_path=checkpoint, vectorize=mode.kernels,
                     **study_kwargs)

    study = fresh()
    try:
        with injected(mode.plan) if mode.plan is not None else nullcontext():
            if callable(campaign):
                assert not mode.restart, "a callable campaign cannot restart"
                return campaign(study, mode.dispatch)
            if not mode.restart:
                results = study.run_pairs(campaign, jobs=mode.dispatch)
                captured = capture(results, checkpoint)
                return replace(captured, fleet=study.fleet_snapshot())
            half = len(campaign) // 2
            first = study.run_pairs(campaign[:half], jobs=mode.dispatch).health
            study.close_pool()
            study = fresh()
            assert study.ledger.restore_checkpoint(checkpoint) == half
            results = study.run_pairs(campaign, jobs=mode.dispatch)
        assert results.health.restored_pairs == half
        health = replace(first.merged(results.health), restored_pairs=0,
                         attempted_pairs=results.health.attempted_pairs)
        return replace(capture(results, checkpoint), health=health)
    finally:
        study.close_pool()
