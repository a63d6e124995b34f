"""Exception hierarchy for the TUT-Profile reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by the library with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """A UML model is structurally malformed or used incorrectly."""


class ValidationError(ModelError):
    """Raised when model validation finds blocking (error-severity) issues.

    The ``issues`` attribute carries the full list of
    :class:`repro.uml.validation.Issue` objects that triggered the error.
    """

    def __init__(self, message: str, issues=None):
        super().__init__(message)
        self.issues = list(issues) if issues is not None else []


class ProfileError(ModelError):
    """A stereotype or tagged value is defined or applied incorrectly."""


class ActionSyntaxError(ReproError):
    """The textual action language could not be parsed.

    Carries the offending ``text``, plus ``line`` and ``column`` (1-based)
    when they are known.
    """

    def __init__(self, message: str, text: str = "", line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.text = text
        self.line = line
        self.column = column


class ActionRuntimeError(ReproError):
    """Evaluation of an action or expression failed at simulation time."""


class AnalysisError(ReproError):
    """Static analysis (tutlint) found blocking error-severity findings.

    The ``findings`` attribute carries the full list of
    :class:`repro.analysis.Finding` objects that triggered the error.
    """

    def __init__(self, message: str, findings=None):
        super().__init__(message)
        self.findings = list(findings) if findings is not None else []


class LintConfigError(ReproError):
    """A lint configuration names rule ids that are not in the catalogue.

    ``unknown`` lists the offending ids, ``valid`` the registered ones, so
    callers (and the CLI) can print an actionable message.
    """

    def __init__(self, message: str, unknown=None, valid=None):
        super().__init__(message)
        self.unknown = list(unknown) if unknown is not None else []
        self.valid = list(valid) if valid is not None else []


class MappingError(ModelError):
    """A platform mapping is inconsistent (unmapped group, bad target, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class InvalidScheduleError(SimulationError, ValueError):
    """An event was scheduled with an invalid delay (e.g. into the past).

    Subclasses :class:`ValueError` so callers validating plain numeric
    arguments can catch it without importing the simulation package.
    """


class CheckpointError(ReproError):
    """A simulation snapshot could not be written, read or restored.

    Raised for corrupted or future-schema snapshot files, for restore
    attempts against a mismatching system (different model, missing
    tracer, different fault seed), and for replay divergence — a resumed
    run reaching a checkpointed instant with a different state hash than
    the original run recorded there."""


class SimulationInterrupted(ReproError):
    """A checkpointing run hit its interrupt budget and stopped mid-flight.

    Carries the ``snapshot`` taken at the interruption point so callers
    (tests, the CI resume-smoke job) can resume without scanning the
    store."""

    def __init__(self, message: str, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot


class ExplorationError(ReproError):
    """The design-space exploration engine was misconfigured, or a
    candidate a search needs could not be evaluated.

    Raised e.g. when a candidate's builder is not importable by name but
    parallel evaluation (which must re-import it in worker processes) or
    result caching (which must hash it) was requested."""


class WorkerFaultError(ExplorationError):
    """An injected infrastructure fault fired inside a worker.

    Raised by the worker-fault harness
    (:mod:`repro.exploration.workerfaults`) for ``flaky``/``poison``
    injections — and for ``crash``/``hang`` injections in serial mode,
    where a real crash or hang would take the whole campaign down.  The
    supervisor treats it like any other worker failure: record, retry
    with backoff, quarantine after the failure budget."""


class CodegenError(ReproError):
    """Code generation could not translate a model construct."""


class GeneratorError(ReproError):
    """The synthetic-model generator was configured out of range.

    Raised by :class:`repro.genmodel.GeneratorConfig` validation, by
    defect injectors whose preconditions the configuration does not meet
    (e.g. ``S004`` needs at least two bridged segments), and by the
    factory module when a builder token does not decode to a
    configuration."""


class InvariantViolation(ReproError):
    """A cross-subsystem fuzz invariant failed on a generated model.

    Carries the pipeline ``stage`` that failed and the offending
    :class:`repro.genmodel.GeneratorConfig`, so harnesses can shrink the
    configuration and print a reproduction command."""

    def __init__(self, stage: str, message: str, config=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.config = config


class XmiError(ModelError):
    """An XMI document could not be written or parsed."""
