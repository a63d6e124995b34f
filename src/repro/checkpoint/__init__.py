"""Deterministic checkpoint/restore for the simulation stack.

The simulator's components each implement a ``state_dict()`` /
``load_state_dict()`` pair (kernel clock and counters, EFSM executor
state, PE ready queues and in-flight steps, bus arbiters and transfers,
log/trace/fault streams).  Pending kernel events are never pickled — they
hold bound methods and live arguments — but are re-materialized by their
owning component with their *original* sequence numbers, so a resumed run
dispatches the exact same event order and produces byte-identical
artefacts.

See ``docs/checkpoint.md`` for the protocol, the store layout and the
resume semantics; the CLI surface is ``repro checkpoint
inspect|diff|resume`` plus ``--checkpoint-dir`` on ``flow`` and
``explore``.
"""

from repro.checkpoint.policy import (
    CheckpointPolicy,
    EveryEvents,
    EveryInterval,
)
from repro.checkpoint.runner import Checkpointer, resume_simulation
from repro.checkpoint.state import canonical_json, diff_states, state_hash
from repro.checkpoint.store import SNAPSHOT_KIND, CheckpointStore, Snapshot

__all__ = [
    "CheckpointPolicy",
    "Checkpointer",
    "CheckpointStore",
    "EveryEvents",
    "EveryInterval",
    "SNAPSHOT_KIND",
    "Snapshot",
    "canonical_json",
    "diff_states",
    "resume_simulation",
    "state_hash",
]
