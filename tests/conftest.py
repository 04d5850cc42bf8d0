import os

import pytest

from permsig import permtest


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fails a test that leaves a child process running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no children
        return
    pytest.fail(f"a child process outlived the test (waitpid gave {left})")


@pytest.fixture
def forked_children(monkeypatch):
    """Fits null replicates in chunks of ``MIN_BATCH`` columns, so that a
    study with more than one worker forks real children; gives the list of
    the process ids of the children it forked."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(permtest, "BATCH_BYTES", 0)
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids
