"""Assertions through the ``mpmd.verify`` checks, shared by the test modules."""

from mpmd.verify import Tally


def assert_all_ok(tally: Tally) -> None:
    """No check in the tally recorded a failure."""
    failed = {c.name: c.details for c in tally.results() if c.failed}
    assert not failed, failed


def assert_checks_pass(check, *args, **kwargs) -> None:
    """Run one ``mpmd.verify`` check in a fresh tally; it records cases, all passing."""
    tally = Tally()
    check(tally, *args, **kwargs)
    assert tally.results(), "the check recorded no case"
    assert_all_ok(tally)
