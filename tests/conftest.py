import pytest


@pytest.fixture
def check_calls(monkeypatch):
    """``check_calls(name)`` wraps ``checks.<name>`` for the rest of the test
    and returns the list that the argument tuple of each call is appended
    to.  The batteries fix their own sizes, so a test pins a battery's size
    by the number of calls it makes to the functions it checks."""
    from blochmle import checks

    def wrap(name):
        calls = []
        inner = getattr(checks, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
        return calls

    return wrap


@pytest.fixture
def gate_bound():
    """``gate_bound(battery)`` is the bound of the one ``checks.GATES`` row
    that runs ``battery``: a test of a battery compares against its gate's
    bound instead of writing it again."""
    from blochmle.checks import GATES

    def bound(battery):
        (value,) = [row_bound for _, _, row_battery, row_bound in GATES if row_battery is battery]
        return value

    return bound
