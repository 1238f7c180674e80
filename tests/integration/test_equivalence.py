"""The mode matrix: each cell runs the shared campaign fresh under one
dispatch (in-process, or ``jobs=2`` passed explicitly, so any host runs
both paths), kernel mode, fault plan (none, or the canned ``ci``
fail-stop plan) and restart (none, or killed halfway and resumed from
its checkpoint), and must match the in-process, kernels-off, unrestarted
run under the same plan in records, health and checkpoint bytes.
"""

import itertools

import pytest

from repro.faults.plan import plan_from_arg
from repro.faults.retry import RetryPolicy
from tests.equivalence import CLEAN, Mode, assert_campaign_equivalent, sweep

DISPATCH = {"in-process": None, "jobs=2": 2}
KERNELS = {"kernels-off": False, "kernels-on": True}
PLANS = {"no-plan": CLEAN, "ci": plan_from_arg("ci")}
RESTART = {"unrestarted": False, "resumed": True}

#: Retry headroom, so the ci plan's faults are always absorbed.
RETRY = RetryPolicy(max_retries=8)


@pytest.mark.parametrize(
    "cell",
    list(itertools.product(DISPATCH, KERNELS, PLANS, RESTART)),
    ids="-".join,
)
def test_mode_matrix(references, reference, tmp_path, cell):
    dispatch, kernels, plan, restart = cell
    expected = reference(Mode(plan=PLANS[plan]), retry=RETRY)
    if plan == "ci":
        # The plan bit, or the cell would compare two clean campaigns.
        assert expected.health.total_failures > 0
    mode = Mode(DISPATCH[dispatch], KERNELS[kernels], PLANS[plan], RESTART[restart])
    actual = sweep(references, mode, workdir=tmp_path, retry=RETRY)
    assert_campaign_equivalent(expected, actual)
