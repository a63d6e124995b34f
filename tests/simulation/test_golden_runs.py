"""Golden runs: the simulator's output, pinned byte for byte.

Every tutlog, Chrome trace, checkpoint snapshot and event count below
was recorded in ``golden_runs.json`` beside this file.  A change to the
simulator's internals (its queues, events, records or step bookkeeping)
must leave all of them identical; a change of behaviour on purpose
regenerates the file and says so in CHANGES.md:

    PYTHONPATH=src python -m tests.simulation.test_golden_runs

Snapshot series are one SHA-256 over ``state_hash(state_dict())`` taken
from the kernel's ``after_event`` hook every N dispatched events, so a
snapshot that drifts anywhere in a run shows, not only the final log.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint.state import state_hash
from repro.faults.campaign import build_campaign_plan
from repro.genmodel import config_for_seed, generate_model
from repro.genmodel.pipeline import DEFAULT_DURATION_US
from repro.observability.export import render_chrome_trace
from repro.observability.tracer import Tracer
from repro.simulation.system import SystemSimulation

from tests.simulation.test_rtos_scheduling import POLICIES, RUN_US, policy_simulation

GOLDEN = Path(__file__).with_name("golden_runs.json")

TUTMAC_DURATION_US = 100_000
TUTMAC_STRIDE = 97
CORPUS_SEEDS = range(120)
CORPUS_SNAPSHOT_SEEDS = range(30)
CORPUS_STRIDE = 31


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(simulation, duration_us, stride=None):
    """Run ``simulation``; with a stride, also digest its snapshot series."""
    digest = hashlib.sha256()
    if stride is not None:
        kernel = simulation.kernel

        def snapshot():
            if kernel.dispatched % stride == 0:
                digest.update(state_hash(simulation.state_dict()).encode("ascii"))

        kernel.after_event = snapshot
    result = simulation.run(duration_us)
    entry = {
        "tutlog": _sha(result.writer.render()),
        "events": result.dispatched_events,
    }
    if stride is not None:
        entry["snapshots"] = digest.hexdigest()
    if simulation.tracer is not None:
        entry["trace"] = _sha(render_chrome_trace(simulation.tracer))
    return entry


def tutmac_run(name):
    """TUTMAC plain, or ARQ under the seed-7 campaign fault plan."""
    variant, tracing = name.split("/")
    if variant == "plain":
        system, plan = build_tutwlan_system(), None
    else:
        system = build_tutwlan_system(params=TutmacParameters(arq_enabled=True))
        plan = build_campaign_plan(seed=7, fault_rate=0.05)
    tracer = Tracer() if tracing == "traced" else None
    simulation = SystemSimulation(*system, faults=plan, tracer=tracer)
    return _run(simulation, TUTMAC_DURATION_US, TUTMAC_STRIDE)


def corpus_run(seed):
    generated = generate_model(config_for_seed(seed))
    simulation = SystemSimulation(
        generated.application, generated.platform, generated.mapping
    )
    stride = CORPUS_STRIDE if seed in CORPUS_SNAPSHOT_SEEDS else None
    return _run(simulation, DEFAULT_DURATION_US, stride)


def rtos_run(policy):
    """The three-worker flood on one PE, snapshotted at every event."""
    return _run(policy_simulation(policy), RUN_US, stride=1)


TUTMAC_RUNS = ("plain/untraced", "plain/traced", "arq/untraced", "arq/traced")


def record():
    """Every golden entry, recomputed from the current source."""
    return {
        "tutmac": {name: tutmac_run(name) for name in TUTMAC_RUNS},
        "corpus": {str(seed): corpus_run(seed) for seed in CORPUS_SEEDS},
        "rtos": {policy: rtos_run(policy) for policy in POLICIES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TUTMAC_RUNS)
def test_tutmac_runs_are_byte_identical(golden, name):
    assert tutmac_run(name) == golden["tutmac"][name]


def test_the_corpus_runs_are_byte_identical(golden):
    for seed in CORPUS_SEEDS:
        assert corpus_run(seed) == golden["corpus"][str(seed)], f"seed {seed}"


@pytest.mark.parametrize("policy", POLICIES)
def test_rtos_policy_runs_are_byte_identical(golden, policy):
    assert rtos_run(policy) == golden["rtos"][policy]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
