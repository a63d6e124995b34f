"""The checkpoint policy must be resume-invariant (cumulative counters)."""

import pytest

from repro.checkpoint import EveryEvents
from repro.errors import CheckpointError


class TestEveryEvents:
    def test_due_at_stride_multiples(self):
        policy = EveryEvents(100)
        assert policy.due(0, 100)
        assert policy.due(0, 200)
        assert not policy.due(0, 150)

    def test_resume_invariant(self):
        # a run restored at event 250 fires at the same instants (300,
        # 400, ...) the uninterrupted run would have
        fresh, resumed = EveryEvents(100), EveryEvents(100)
        fired_fresh = [n for n in range(251, 500) if fresh.due(0, n)]
        fired_resumed = [n for n in range(251, 500) if resumed.due(0, n)]
        assert fired_fresh == fired_resumed == [300, 400]

    def test_positive_stride_required(self):
        with pytest.raises(CheckpointError):
            EveryEvents(0)

