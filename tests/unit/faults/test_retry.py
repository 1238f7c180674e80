"""Unit tests for the retry policy."""

import pytest

from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 3
        assert policy.outlier_threshold is None
        assert DEFAULT_RETRY_POLICY == policy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"timeout_budget_s": 0.0},
            {"outlier_threshold": 0.0},
            {"outlier_threshold": -3.5},
            {"max_remeasures": -1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

