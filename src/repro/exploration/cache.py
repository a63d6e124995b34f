"""Content-addressed on-disk cache of candidate evaluation results.

Layout (under the cache directory)::

    <digest[:2]>/<digest>.json

where ``digest`` is the SHA-256 of the candidate spec's canonical JSON
(:meth:`CandidateSpec.digest`).  Each entry stores the spec echo, the
:class:`EvaluationResult` fields, the result's stable hash and the
original evaluation wall-time, so warm re-runs can report what they
skipped.  Entries are written atomically
(:func:`~repro.util.fsio.write_json_atomic`) so concurrent explorations
sharing a cache directory never read torn JSON; unreadable or
schema-mismatched entries are treated as misses and silently
re-evaluated.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

from repro.exploration.objectives import EvaluationResult, encoding_hash
from repro.exploration.spec import CandidateSpec
from repro.util.fsio import write_json_atomic

#: Bump when the entry format changes incompatibly.
CACHE_SCHEMA = 1


class ResultCache:
    """A directory of content-addressed evaluation results."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path_for(self, digest: str) -> str:
        return os.path.join(self.directory, digest[:2], digest + ".json")

    def load(self, spec: CandidateSpec) -> Optional[Tuple[EvaluationResult, float]]:
        """The cached ``(result, original elapsed seconds)``, or None."""
        digest = spec.digest()
        if digest is None:
            return None
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return None
        try:
            result = EvaluationResult.from_dict(entry["result"])
        except (KeyError, TypeError):
            return None
        return result, float(entry.get("elapsed_s", 0.0))

    def store(
        self, spec: CandidateSpec, result: EvaluationResult, elapsed_s: float
    ) -> Optional[str]:
        """Write one entry; returns its path (None for unhashable specs)."""
        digest = spec.digest()
        if digest is None:
            return None
        path = self.path_for(digest)
        encoding = result.to_dict()
        entry = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "spec": spec.to_json_dict(),
            "result": encoding,
            "result_hash": encoding_hash(encoding),
            "elapsed_s": elapsed_s,
        }
        write_json_atomic(path, entry)
        return path

    def __len__(self) -> int:
        count = 0
        for _, _, names in os.walk(self.directory):
            count += sum(1 for name in names if name.endswith(".json"))
        return count
