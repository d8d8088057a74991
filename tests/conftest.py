"""Fixtures shared by the test modules."""

import os

import pytest

from sandwalk import child


@pytest.fixture(autouse=True)
def _no_child_process_left():
    # every test reaps the processes it started, on success and on failure
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[1, 2], ids=["in-process-writer", "forked-writer"])
def writer_cpus(request, monkeypatch):
    """The usable CPUs that every ``child.Child`` sees, which selects its
    path: with 1 it runs in-process (a ``trajectory.TrajectoryWriter``'s
    child then formats at the commit), with 2 it forks."""
    if request.param > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(child, "usable_cpus", lambda: request.param)
    return request.param
