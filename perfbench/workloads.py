"""The three closed-loop workloads: one caller, one process, serial.

Each workload is built from ``--seed`` at set-up (``__init__``), then runs
ops one after another.  ``op(index, workdir)`` does the timed work and
returns what ``check`` needs; ``check`` runs untimed and returns ``None``
or a failure message.  Ops call ``repro`` through module attributes
(``engine.run_candidates``, not a bound name), so that the span recorder
can time them; ``src/repro`` itself is imported unchanged.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from typing import Dict, Optional

#: The TUTMAC builder the ``repro explore`` mapping sweep uses.
TUTMAC_BUILDER = "repro.cases.tutwlan:exploration_factory"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SimCounter:
    """Counts every ``SystemSimulation.run``: design points and events.

    One wrapper call per simulation (tens of milliseconds each), so it
    stays installed in untimed and timed ops alike.
    """

    def __init__(self) -> None:
        self.simulations = 0
        self.events = 0
        self._owner = None
        self._original = None

    def install(self) -> None:
        from repro.simulation.system import SystemSimulation

        original = SystemSimulation.__dict__["run"]
        counter = self

        def run(simulation, duration_us):
            result = original(simulation, duration_us)
            counter.simulations += 1
            counter.events += result.dispatched_events
            return result

        self._owner, self._original = SystemSimulation, original
        SystemSimulation.run = run

    def uninstall(self) -> None:
        if self._owner is not None:
            self._owner.run = self._original
            self._owner = None


class TutwlanFlow:
    """``repro flow --lint``: the designer's Figure 2 loop on TUTMAC/TUTWLAN.

    Every op builds the system and runs the whole flow (validate, lint,
    XMI export, group-info parse, codegen, simulate, profile) into the
    run's work directory.  The input does not depend on the seed.
    """

    name = "tutwlan-flow"
    #: ``repro flow``'s default horizon (µs).
    DURATION_US = 100_000

    def __init__(self, seed: int) -> None:
        from repro.cases import tutwlan
        from repro.flow import design_flow

        self._tutwlan = tutwlan
        self._flow = design_flow
        tutwlan.build_tutwlan_system()
        self.digest: Optional[str] = None

    def op(self, index: int, workdir: str):
        application, platform, mapping = self._tutwlan.build_tutwlan_system()
        return self._flow.run_design_flow(
            application,
            platform,
            mapping,
            os.path.join(workdir, "flow"),
            duration_us=self.DURATION_US,
            lint=True,
        )

    def check(self, index: int, result) -> Optional[str]:
        if not result.succeeded:
            return f"flow failed: {[str(f) for f in result.failures]}"
        with open(result.log_path, "rb") as handle:
            digest = _sha256(handle.read())
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return f"tutlog digest {digest[:12]} != first op's {self.digest[:12]}"
        return None

    def digests(self) -> Dict[str, str]:
        """Digest of every op's tutlog (checked identical)."""
        return {"tutlog_sha256": self.digest or ""}


class TutmacSweep:
    """Serial exploration campaigns over the 108-candidate TUTMAC sweep.

    The seed shuffles the sweep into a rotation; op ``i`` takes the next
    :data:`K` candidates of it, so consecutive ops cycle evenly through
    the whole sweep.  Each op evaluates them on a fresh cache directory
    (the cold half: every candidate simulated, result written), then
    resubmits them (the warm half: every candidate read from the cache).
    """

    name = "tutmac-sweep"
    #: Candidates per campaign; divides the 108-candidate sweep evenly.
    K = 6
    #: ``repro explore``'s default horizon (µs).
    DURATION_US = 20_000

    def __init__(self, seed: int) -> None:
        from repro.exploration import engine, mapping_sweep_specs

        self._engine = engine
        specs = mapping_sweep_specs(TUTMAC_BUILDER, duration_us=self.DURATION_US)
        random.Random(seed).shuffle(specs)
        self.rotation = specs
        self.digest = ""

    def op(self, index: int, workdir: str):
        size = len(self.rotation)
        chunk = [self.rotation[(index * self.K + j) % size] for j in range(self.K)]
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        cold = self._engine.run_candidates(chunk, workers=0, cache_dir=cache_dir)
        warm = self._engine.run_candidates(chunk, workers=0, cache_dir=cache_dir)
        return cold, warm

    def check(self, index: int, result) -> Optional[str]:
        cold, warm = result
        if cold.evaluated != self.K:
            return f"cold half evaluated {cold.evaluated} of {self.K}"
        if warm.cache_hits != self.K:
            return f"warm half served {warm.cache_hits} of {self.K} from cache"
        cold_hashes = [o.result.stable_hash() for o in cold.outcomes]
        warm_hashes = [o.result.stable_hash() for o in warm.outcomes]
        if cold_hashes != warm_hashes:
            return "warm result hashes differ from cold"
        self.digest = _sha256("".join(cold_hashes).encode("ascii"))
        return None

    def digests(self) -> Dict[str, str]:
        """Digest of the last checked op's result hashes."""
        return {"result_hashes_sha256": self.digest}


class GenmodelCorpus:
    """The generated-model fuzz corpus, one model per op.

    The corpus is the contiguous ``config_for_seed`` range
    ``0 .. SIZE - 1``, which cycles every topology and knob: the knobs
    repeat with period 60.  The seed shuffles it into a rotation and op
    ``i`` takes the next model of it.  Each op generates the model,
    validates it, lints it, simulates it and summarises the run (log
    parse and profiling).
    """

    name = "genmodel-corpus"
    #: Models in the corpus: two knob periods.  Model cost varies 7x
    #: across seeds, so the corpus is the same in every run, and small
    #: enough that a 30 s run cycles it about four to eight times: a run's
    #: median op then hardly depends on where its last, partial cycle
    #: stops.
    SIZE = 120

    def __init__(self, seed: int) -> None:
        from repro import analysis, genmodel
        from repro.exploration.objectives import summarize
        from repro.genmodel.pipeline import DEFAULT_DURATION_US
        from repro.simulation import system
        from repro.tutprofile import rules
        from repro.uml import validation

        self._analysis = analysis
        self._genmodel = genmodel
        self._system = system
        self._rules = rules
        self._validation = validation
        # bound here, before any span recorder is installed: the corpus
        # calls the unwrapped function, so it records no exploration span
        # (its parse_log, analyze and summarize_result calls are timed)
        self._summarize = summarize
        self.duration_us = DEFAULT_DURATION_US
        self.configs = [genmodel.config_for_seed(s) for s in range(self.SIZE)]
        random.Random(seed).shuffle(self.configs)
        self._digests: Dict[int, str] = {}
        self.digest = ""

    def op(self, index: int, workdir: str):
        config = self.configs[index % self.SIZE]
        generated = self._genmodel.generate_model(config)
        model = generated.application.model
        self._validation.validate_model(model)
        self._rules.check_design_rules(model)
        self._analysis.run_lint(
            generated.application, generated.platform, generated.mapping
        )
        simulation = self._system.SystemSimulation(
            generated.application, generated.platform, generated.mapping
        )
        result = simulation.run(self.duration_us)
        self._summarize(result, generated.application)
        return config.seed, result

    def check(self, index: int, result) -> Optional[str]:
        seed, simulation = result
        digest = _sha256(simulation.writer.render().encode("utf-8"))
        first = self._digests.setdefault(seed, digest)
        if digest != first:
            return f"seed {seed}: log digest {digest[:12]} != {first[:12]}"
        self.digest = digest
        return None

    def digests(self) -> Dict[str, str]:
        """Digest of the last checked op's tutlog."""
        return {"tutlog_sha256": self.digest}


WORKLOADS = {
    workload.name: workload for workload in (TutwlanFlow, TutmacSweep, GenmodelCorpus)
}
