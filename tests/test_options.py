"""The settable values of the executors, the fleet and the campaign.

Each entry freezes one constructor's parameter names, the way
``tests/test_public_api.py`` freezes ``__all__``: a new knob shows up
as an edit here, next to the ones it would join.  Tuning constants
that no caller sets live at module level instead (``DISPATCH_TARGET_S``
in :mod:`repro.engine.executors`, ``SPAWN_TIMEOUT_S`` in
:mod:`repro.engine.fleet`).
"""

import inspect

import pytest

from repro.characterization.campaign import Campaign
from repro.engine.executors import ProcessPoolExecutor, make_executor
from repro.engine.fleet import LocalFleet

FROZEN_OPTIONS = {
    "make_executor": (make_executor, ["name", "jobs", "chaos", "cache"]),
    "ProcessPoolExecutor": (ProcessPoolExecutor, ["jobs", "chaos", "cache"]),
    "LocalFleet": (LocalFleet, ["workers"]),
    "Campaign": (
        Campaign,
        [
            "scope", "store", "retry", "time_budget_s", "chaos", "sleep",
            "clock", "executor", "health", "pipeline", "adaptive",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_OPTIONS))
def test_parameters_are_frozen(name):
    target, frozen = FROZEN_OPTIONS[name]
    assert list(inspect.signature(target).parameters) == frozen
