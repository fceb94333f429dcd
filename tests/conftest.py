"""Fixtures every test module gets."""

import os

import pytest


@pytest.fixture(autouse=True)
def own_cpu_set():
    """Give this process its CPU set back after each test.  A multi-worker
    walk restores the set it read, and where a test fakes
    os.sched_getaffinity that is the fake's, which may name fewer CPUs."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    get, put = os.sched_getaffinity, os.sched_setaffinity  # not a test's fakes
    before = get(0)
    yield
    if get(0) != before:
        put(0, before)
