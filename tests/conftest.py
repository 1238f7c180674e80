"""Shared fixtures for the test suite.

The expensive objects — the calibrated engine and a quick-protocol study
with its result cache — are session-scoped: the study caches every
(benchmark, configuration) measurement, so integration tests share one
dataset exactly as the paper's analyses share one physical dataset.

Two environment variables turn the suite into a fault-injection matrix
(see docs/robustness.md and the CI workflow):

* ``REPRO_FAULT_PLAN`` — ``demo``, ``ci``, or a JSON plan path; arms the
  fault injector for the whole session.  Because retried fail-stop
  faults reproduce the byte-identical fault-free measurement, the
  golden-value tests must still pass under a fail-stop plan.
* ``REPRO_TEST_TIMEOUT`` — per-test wall-clock budget in seconds,
  enforced with ``SIGALRM`` (a stand-in for pytest-timeout, which is not
  vendored).  Catches injected hangs that retry logic fails to bound.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.normalization import References
from repro.core.study import Study
from repro.execution.engine import ExecutionEngine, default_engine
from repro.faults.injector import install as install_faults
from repro.faults.injector import uninstall as uninstall_faults
from repro.faults.plan import plan_from_arg
from repro.faults.retry import RetryPolicy

pytest.register_assert_rewrite("tests.equivalence")
from tests.equivalence import PAIRS, Mode, sweep  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _env_fault_plan():
    """Arm the injector session-wide when REPRO_FAULT_PLAN is set."""
    plan_arg = os.environ.get("REPRO_FAULT_PLAN")
    if not plan_arg:
        yield
        return
    install_faults(plan_from_arg(plan_arg))
    try:
        yield
    finally:
        uninstall_faults()


def _fault_matrix_retry() -> RetryPolicy | None:
    """Under an env-armed fault plan, give the shared studies more retry
    headroom so low-probability pile-ups don't quarantine golden pairs."""
    if not os.environ.get("REPRO_FAULT_PLAN"):
        return None
    return RetryPolicy(max_retries=8)


@pytest.fixture(scope="session")
def engine() -> ExecutionEngine:
    return default_engine()


@pytest.fixture(scope="session")
def references(engine: ExecutionEngine) -> References:
    return References(engine)


@pytest.fixture(scope="session")
def study(references: References) -> Study:
    """Quick-protocol study (20% of the paper's repetition counts)."""
    return Study(
        references=references,
        invocation_scale=0.2,
        retry=_fault_matrix_retry(),
    )


@pytest.fixture(scope="session")
def full_study(references: References) -> Study:
    """Full paper-protocol study for tests that need real CIs."""
    return Study(
        references=references,
        invocation_scale=1.0,
        retry=_fault_matrix_retry(),
    )


@pytest.fixture(scope="session")
def reference(references: References, tmp_path_factory):
    """:func:`tests.equivalence.sweep`, memoised for the session: each run
    the equivalence suites compare against is measured once."""
    captured = {}

    def run(mode=Mode(), campaign=PAIRS, retry=None):
        key = (mode, campaign, retry)
        if key not in captured:
            workdir = tmp_path_factory.mktemp("reference")
            captured[key] = sweep(
                references, mode, campaign, workdir=workdir, retry=retry
            )
        return captured[key]

    return run


@pytest.fixture
def clean_singletons():
    """Reset the process-wide meter cache and shared study around a test
    that mutates them (e.g. by measuring under an ad-hoc fault plan)."""
    from repro.core.study import reset_shared_study
    from repro.measurement.meter import reset_meters

    reset_meters()
    reset_shared_study()
    try:
        yield
    finally:
        reset_meters()
        reset_shared_study()


# -- per-test wall-clock timeout (SIGALRM) ----------------------------------

_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if _TIMEOUT_S <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _timed_out(signum, frame):
        pytest.fail(
            f"test exceeded REPRO_TEST_TIMEOUT={_TIMEOUT_S}s "
            "(likely an unbounded hang under fault injection)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
