"""Helpers shared by the test suites."""


def records(result_set):
    """A result set's records as plain dicts, in order — what the
    byte-identity tests compare."""
    return [result.as_record() for result in result_set]
