"""_map_blocks runs blocks of distinct texts at the same time.

tests/test_threads.py pins what the pool must not change (the bits, the
error, no thread left running); this pins that it runs in parallel at all.
"""

import threading
from unittest import mock

from holdscan import classifier

from test_threads import cpus


def test_two_blocks_are_in_flight_at_once():
    """Each block waits at a barrier for two parties, so one thread running
    the blocks in turn breaks it after the timeout."""
    barrier = threading.Barrier(2, timeout=10)

    def work(block):
        barrier.wait()
        return "".join(block)

    with cpus(2), mock.patch.object(classifier, "_BLOCK", 2):
        assert classifier._map_blocks(work, list("abcd")) == ["ab", "cd"]
