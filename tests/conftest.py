"""Fixtures shared by the test modules."""

import os

import pytest

from sandwalk import sim


@pytest.fixture(params=[1, 2], ids=["in-process-writer", "forked-writer"])
def writer_cpus(request, monkeypatch):
    """The usable CPUs a ``sim.TrajectoryWriter`` sees: with 1 it formats
    in-process at commit, with 2 a forked child formats during the run."""
    if request.param > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(sim, "usable_cpus", lambda: request.param)
    return request.param
