"""Correctness gate: every CLI call's output is checked after its pass.

A call fails on a wrong exit code or any failed check below; failed calls
over attempted calls is the run's ``fail_ratio``.

- solve: exit 0; the report validates against the report schema; the
  reported code has exactly ``hyperminrank`` vectors, matches the emitted
  code file, respects sender storage and lets every receiver decode (an
  elimination written here, independent of the program); the optimum
  equals the pinned value when one is known; the results repeat those of
  the first pass.
- verify: exit 0; schema; valid in both modes; code length equals the
  optimum of the solve before it.
- bounds: exit 0; schema; ``lower <= hyperminrank <= upper`` when the
  instance was solved; pinned bounds when known; the results repeat.
- solve-capped: exit 4 with an empty stdout and the cap message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import jsonschema

from workloads import Job


@dataclass
class Call:
    job: Job
    step: str
    argv: List[str]
    exit_code: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    code_path: Optional[Path] = None


def _mask(messages) -> int:
    out = 0
    for m in messages:
        out |= 1 << (m - 1)
    return out


def code_decodes(code, job: Job) -> bool:
    """True iff `code` (per-sender lists of 0/1 vectors) is supported by the
    sender stores and every receiver can solve for its demand."""
    if not isinstance(code, list) or len(code) != job.N:
        return False
    vectors = []
    for store, sender_vectors in zip(job.senders, code):
        for bits in sender_vectors:
            if len(bits) != job.K or any(b not in (0, 1) for b in bits):
                return False
            vec = sum(b << i for i, b in enumerate(bits))
            if vec & ~_mask(store):
                return False
            vectors.append(vec)
    for k in range(1, job.K + 1):
        pivots: Dict[int, int] = {}
        for row in vectors + [1 << (m - 1) for m in job.receivers[k - 1]]:
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
        target = 1 << (k - 1)
        while target:
            top = target.bit_length() - 1
            if top not in pivots:
                return False
            target ^= pivots[top]
    return True


class Checker:
    """Checks calls against the schema, pinned values and earlier passes."""

    def __init__(self, schema_path: Path):
        self.validator = jsonschema.Draft7Validator(json.loads(schema_path.read_text()))
        self.first_results: Dict[tuple, object] = {}

    def check_pass(self, calls: Sequence[Call]) -> List[str]:
        """Problems found, one line per failed call."""
        problems = []
        optimum: Dict[str, int] = {}
        for call in calls:
            try:
                problem = self._check(call, optimum)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
            if problem:
                problems.append(f"{call.step} {call.job.name}: {problem}")
        return problems

    def _report(self, call: Call, command: str):
        report = json.loads(call.stdout)
        errors = sorted(e.message for e in self.validator.iter_errors(report))
        if errors:
            raise ValueError(f"schema: {errors[0]}")
        if report["command"] != command:
            raise ValueError(f"report of {report['command']!r}, not {command!r}")
        return report["results"]

    def _repeats(self, call: Call, results) -> bool:
        key = (call.job.name, call.step)
        return self.first_results.setdefault(key, results) == results

    def _check(self, call: Call, optimum: Dict[str, int]) -> Optional[str]:
        job, expected = call.job, call.job.expected
        if call.step == "solve-capped":
            if call.exit_code != 4:
                return f"exit {call.exit_code}, expected 4"
            if call.stdout or "search exponent" not in call.stderr:
                return "no cap message"
            return None
        if call.exit_code != 0:
            return f"exit {call.exit_code}: {call.stderr.strip()[:200]}"
        if call.step == "solve":
            results = self._report(call, "solve")
            value, code = results["hyperminrank"], results["code"]
            optimum[job.name] = value
            if sum(len(vs) for vs in code) != value:
                return f"code length differs from hyperminrank {value}"
            if json.loads(call.code_path.read_text()) != {"code": code}:
                return "emitted code file differs from the report"
            if not code_decodes(code, job):
                return "code does not decode"
            if "hyperminrank" in expected and value != expected["hyperminrank"]:
                return f"hyperminrank {value}, pinned {expected['hyperminrank']}"
            if not self._repeats(call, results):
                return "results differ from the first pass"
            return None
        if call.step == "verify":
            results = self._report(call, "verify")
            if not (results["valid"] and results["algebraic"] and results["simulate"]):
                return "code reported invalid"
            if results["code_length"] != optimum.get(job.name):
                return "code length differs from the solve's hyperminrank"
            return None
        if call.step == "bounds":
            results = self._report(call, "bounds")
            lower, upper = results["lower"], results["upper"]
            if not lower <= upper:
                return f"lower {lower} > upper {upper}"
            value = optimum.get(job.name)
            if value is not None and not lower <= value <= upper:
                return f"hyperminrank {value} outside [{lower}, {upper}]"
            for key, got in (("lower", lower), ("upper", upper)):
                if key in expected and got != expected[key]:
                    return f"{key} {got}, pinned {expected[key]}"
            if not self._repeats(call, results):
                return "results differ from the first pass"
            return None
        raise ValueError(f"unknown step {call.step!r}")
