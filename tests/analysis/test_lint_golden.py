"""Lint golden pin: findings and interval fixpoints, pinned digest for digest.

Every lint finding and every leaf state's fixpoint environment from the
interval analysis (:func:`repro.analysis.values.analyze_machine`) was
recorded in ``lint_golden.json`` beside this file, over:

* the 120-model generated corpus (``config_for_seed(0..119)``);
* every defect injector on ``config_for_seed(0..9)`` (a seed whose
  topology cannot host the defect is recorded as unsupported);
* TUTWLAN (TUTMAC on the paper platform and mapping);
* the ARQ variant of TUTMAC, linted unmapped.

A change to the analysis internals (its worklist, transfer functions or
interval representation) must leave every entry identical; a change of
precision on purpose regenerates the file and says so in CHANGES.md:

    PYTHONPATH=src python -m tests.analysis.test_lint_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.efsm import machine_label
from repro.analysis.values import _spell, analyze_machine
from repro.application import ApplicationModel
from repro.cases.tutwlan import build_tutwlan_system, exploration_factory
from repro.errors import GeneratorError
from repro.genmodel import config_for_seed, generate_model, known_defects
from repro.uml.statemachine import Transition

GOLDEN = Path(__file__).with_name("lint_golden.json")

CORPUS_SEEDS = range(120)
INJECTOR_SEEDS = range(10)


def _sha(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _state_path(state) -> str:
    return "/".join(node.name for node in state.path_from_root())


def _bound(value) -> str:
    """A bound as ``repr()`` spells it, or as ``Interval.__str__``'s
    ``~2^n`` past the digits ``repr()`` can print."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return _spell(value)


def _fixpoints(application):
    """Each machine's leaf environments, in lint order and insertion order."""
    machines = []
    seen = set()
    for _, process in sorted(application.processes.items()):
        machine = process.component.classifier_behavior
        if machine is None or id(machine) in seen:
            continue
        seen.add(id(machine))
        values = analyze_machine(machine)
        leaves = []
        if values is not None:
            for key, leaf in values.leaves.items():
                env = sorted(values.state_envs[key].items())
                bounds = [[name, _bound(i.lo), _bound(i.hi)] for name, i in env]
                leaves.append([_state_path(leaf), bounds])
        machines.append([machine_label(machine), leaves])
    return machines


def pin(application, platform=None, mapping=None):
    """One entry: the finding count and the findings' and fixpoints' digests."""
    report = run_lint(application, platform, mapping)
    findings = [str(finding) for finding in report.findings]
    return {
        "findings": len(findings),
        "findings_sha256": _sha(findings),
        "fixpoint_sha256": _sha(_fixpoints(application)),
    }


def corpus_entries():
    entries = {}
    for seed in CORPUS_SEEDS:
        generated = generate_model(config_for_seed(seed))
        entries[str(seed)] = pin(
            generated.application, generated.platform, generated.mapping
        )
    return entries


def injector_entries():
    entries = {}
    for rule in known_defects():
        for seed in INJECTOR_SEEDS:
            config = config_for_seed(seed).replace(inject_defects=(rule,))
            try:
                generated = generate_model(config)
            except GeneratorError:
                entries[f"{rule}/{seed}"] = "unsupported"
                continue
            entries[f"{rule}/{seed}"] = pin(
                generated.application, generated.platform, generated.mapping
            )
    return entries


def tutwlan_entries():
    return {"tutwlan": pin(*build_tutwlan_system())}


def arq_entries():
    application, platform = exploration_factory(arq=True)
    return {"arq": pin(application, platform)}


GROUPS = {
    "corpus": corpus_entries,
    "injector": injector_entries,
    "tutwlan": tutwlan_entries,
    "arq": arq_entries,
}

#: Findings per group when the pin was recorded.
TOTALS = {"corpus": 192, "injector": 558, "tutwlan": 2, "arq": 0}


def record():
    """Every golden entry, recomputed from the current source."""
    return {group: entries() for group, entries in GROUPS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_lint_and_fixpoints_are_pinned(golden, group):
    current = GROUPS[group]()
    for key, entry in golden[group].items():
        assert current[key] == entry, f"{group} {key}"
    assert sorted(current) == sorted(golden[group])


def test_fixpoints_pin_a_bound_too_long_for_repr():
    application = ApplicationModel("App")
    component = application.component("Huge")
    machine = application.behavior(component)
    machine.variable("y", 0)
    factor = "(1 << 4000)"
    machine.state("s", initial=True, entry=f"y = {' * '.join([factor] * 4)};")
    application.process(application.top, "huge", component)
    assert _fixpoints(application) == [
        ["Huge.HugeBehavior", [["s", [["y", "~2^16000", "~2^16000"]]]]]
    ]


def test_locations_are_worded_only_for_findings(monkeypatch):
    """Lint describes a transition only to word a finding that quotes it
    (E003 quotes two), not for every block and guard it walks."""
    corpus = [generate_model(config_for_seed(seed)) for seed in CORPUS_SEEDS]
    calls = []
    describe = Transition.describe
    monkeypatch.setattr(
        Transition, "describe", lambda self: calls.append(self) or describe(self)
    )
    findings = sum(
        len(run_lint(g.application, g.platform, g.mapping).findings) for g in corpus
    )
    assert findings == TOTALS["corpus"]
    assert len(calls) <= 2 * findings


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_pinned_finding_totals(golden, group):
    entries = golden[group].values()
    total = sum(entry["findings"] for entry in entries if entry != "unsupported")
    assert total == TOTALS[group]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
