"""Shared isolation for the resilience tests.

Fault plans are process-wide singletons; every test here gets a clean
slate before and after, and the ``REPRO_FAULTS*`` variables never leak
between tests.
"""

from __future__ import annotations

import os

import pytest

from repro.resilience import faults as faults_mod

_FAULT_ENVS = (faults_mod.ENV_PLAN, faults_mod.ENV_STATE)


@pytest.fixture(autouse=True)
def clean_resilience_state():
    saved = {env: os.environ.get(env) for env in _FAULT_ENVS}
    for env in _FAULT_ENVS:
        os.environ.pop(env, None)
    faults_mod.reset()
    yield
    for env, value in saved.items():
        if value is None:
            os.environ.pop(env, None)
        else:
            os.environ[env] = value
    faults_mod.reset()
