"""Shared helpers for drawing random instances in the test sweeps."""

# re-exported for the tests
from delayedhits.policies import draw_policy  # noqa: F401
from delayedhits.traces import draw_instance  # noqa: F401
