"""The call-recording fixture that the cost tests count with."""

import inspect

import pytest


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)`` replaces the function or method ``owner.name``
    for the test with one that records each call and forwards it to the
    real one, and returns the record: a list, oldest call first, of each
    call's arguments by parameter name, defaults included, kept as passed.
    With ``edit``, ``edit(arguments)`` may change a call's arguments by
    name before they are recorded and forwarded."""

    def record(owner, name, edit=None):
        real = getattr(owner, name)
        signature = inspect.signature(real)
        made = []

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if edit is not None:
                edit(bound.arguments)
            made.append(bound.arguments)
            return real(*bound.args, **bound.kwargs)

        monkeypatch.setattr(owner, name, call)
        return made

    return record


def search_names(searches):
    """Each recorded ``policies._search`` call by what it searches for: the
    first deviation from the baseline, a target's first run, or the
    optimum (ge)."""
    return ["avoid" if call["avoid"] is not None else
            call["cut"].__name__ if call["target"] is None else "target"
            for call in searches]
