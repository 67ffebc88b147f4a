import itertools

import pytest

from baumslag import britton


@pytest.fixture
def few_pinches(monkeypatch):
    """Fail fast, instead of running 10^9 steps, when britton_reduce
    takes a long run that keeps |e| one t-letter at a time: every pinch
    checks its exponent once, so more than 10^5 checks means it did."""
    calls = itertools.count(1)
    checked = britton.checked_exponent

    def counted(exp):
        assert next(calls) <= 10**5, "britton_reduce pinched a long run letter by letter"
        return checked(exp)

    monkeypatch.setattr(britton, "checked_exponent", counted)
