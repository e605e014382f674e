"""Shared fixtures for the test suite."""

import pytest

from repro.cluster.replica import Replica


@pytest.fixture
def peerless():
    """Factory for started single-process coordinators, closed after the test.

    ``peerless(**kwargs)`` is ``Replica(None, "local", **kwargs).start()``:
    an in-memory log, no peers, leader on return.  Closing stops each
    replica's ticker thread, so no test leaks threads into the next.
    """
    replicas = []

    def build(**kwargs):
        replica = Replica(None, "local", **kwargs).start()
        replicas.append(replica)
        return replica

    yield build
    for replica in replicas:
        replica.close()
