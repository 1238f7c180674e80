"""Retry policy for the campaign harness.

The paper's authors simply re-ran invocations that crashed or hung on the
physical rig; :class:`RetryPolicy` makes that recovery explicit and
bounded.  Retries happen at the *invocation* level (the unit that fails
physically), immediately (a simulated rig has nothing to wait out), within
a cumulative simulated-timeout budget per invocation; an optional
MAD-based outlier screen re-measures suspect invocations instead of
silently averaging a corrupted sample in.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How the study reacts when the rig misbehaves.

    ``max_retries`` bounds re-runs per invocation (0 = fail fast).
    ``timeout_budget_s`` caps the *cumulative* simulated seconds an
    invocation may spend hung across all its attempts before the pair is
    given up.  ``outlier_threshold`` (a modified z-score over the
    invocation samples; 3.5 is the classic Iglewicz-Hoaglin cut) enables
    re-measurement of suspect invocations, at most ``max_remeasures`` per
    (benchmark, configuration) pair; ``None`` disables the screen, which
    keeps fault-free campaigns byte-identical to the unscreened protocol.
    """

    max_retries: int = 3
    timeout_budget_s: float = 900.0
    outlier_threshold: float | None = None
    max_remeasures: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.timeout_budget_s <= 0:
            raise ValueError("timeout_budget_s must be positive")
        if self.outlier_threshold is not None and self.outlier_threshold <= 0:
            raise ValueError("outlier_threshold must be positive")
        if self.max_remeasures < 0:
            raise ValueError("max_remeasures cannot be negative")


#: The harness default: bounded retries, no outlier screen —
#: behaviourally identical to the pre-fault harness when nothing fails.
DEFAULT_RETRY_POLICY = RetryPolicy()
