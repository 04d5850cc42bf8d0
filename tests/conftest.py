import pytest

from permsig import permtest


@pytest.fixture
def forked_pools(monkeypatch):
    """Fits null replicates in chunks of ``MIN_BATCH`` columns, so that a
    study with more than one worker forks a real pool; gives the list of
    the sizes of the pools it made."""
    sizes = []

    class RecordingPool(permtest.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(permtest, "BATCH_BYTES", 0)
    monkeypatch.setattr(permtest, "ProcessPoolExecutor", RecordingPool)
    return sizes
