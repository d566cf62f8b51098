"""Compare one command's outputs with its reference.

An operation is one CSV grid row, one JSON report, or one verify
suite. It fails on an exception, an exit code other than the
reference's, a missing output, a changed layout, a non-finite number
where the reference is finite, or a number that differs from the
reference by more than ``TOL * max(1, |reference|)``.

Byte digests are compared as well and counted separately: ROADMAP item
3 allows last-digit changes that CHANGES.md records, so a digest
mismatch alone fails nothing.
"""

from __future__ import annotations

import hashlib
import json
import math

# Same value as bosonet.scenarios.ROUTE_AGREEMENT_TOL at the seed commit.
TOL = 1e-10


def _close(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    if math.isinf(ref):
        return got == ref
    if not math.isfinite(got):
        return False
    return abs(got - ref) <= TOL * max(1.0, abs(ref))


def same_value(got, ref) -> bool:
    """Structural equality of decoded JSON, numbers within tolerance."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if isinstance(ref, (int, float)):
        return isinstance(got, (int, float)) and _close(float(got), float(ref))
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(got) == len(ref)
            and all(same_value(g, r) for g, r in zip(got, ref))
        )
    if isinstance(ref, dict):
        return (
            isinstance(got, dict)
            and got.keys() == ref.keys()
            and all(same_value(got[k], ref[k]) for k in ref)
        )
    return got == ref


def _field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_ops(text: str) -> tuple[str, list[list]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0], [[_field(f) for f in line.split(",")] for line in lines[1:]]


def _artifact_ops(name: str, text: str | None, ref_text: str) -> tuple[int, int]:
    """(attempted, failed) for one output file or stdout stream."""
    if name.endswith(".csv"):
        ref_header, ref_rows = _csv_ops(ref_text)
        if text is None:
            return len(ref_rows), len(ref_rows)
        header, rows = _csv_ops(text)
        if header != ref_header or len(rows) != len(ref_rows):
            return len(ref_rows), len(ref_rows)
        failed = sum(1 for g, r in zip(rows, ref_rows) if not same_value(g, r))
        return len(ref_rows), failed
    ref_doc = json.loads(ref_text)
    if name == "stdout":
        # verify prints {"passed", "seed", "suites": [...], "tol"}: one op per suite
        suites = ref_doc["suites"]
        try:
            doc = json.loads(text) if text else None
        except json.JSONDecodeError:
            doc = None
        if not isinstance(doc, dict) or not isinstance(doc.get("suites"), list):
            return len(suites), len(suites)
        top_ok = same_value(
            {k: v for k, v in doc.items() if k != "suites"},
            {k: v for k, v in ref_doc.items() if k != "suites"},
        )
        if not top_ok or len(doc["suites"]) != len(suites):
            return len(suites), len(suites)
        return len(suites), sum(
            1 for g, r in zip(doc["suites"], suites) if not same_value(g, r)
        )
    if text is None:
        return 1, 1
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return 1, 1
    return 1, 0 if same_value(doc, ref_doc) else 1


def _artifacts(command: dict) -> dict:
    arts = dict(command["outputs"])
    if command["stdout"]:
        arts["stdout"] = command["stdout"]
    return arts


def check_command(got: dict, ref: dict) -> dict:
    """Score one run of a command against its reference record.

    ``got`` is what ``workloads.run_command`` returned; ``ref`` is the
    matching command record of a reference file.
    """
    ref_arts = _artifacts(ref)
    got_arts = {} if got["error"] is not None else _artifacts(got)
    attempted = failed = 0
    for name, ref_text in ref_arts.items():
        a, f = _artifact_ops(name, got_arts.get(name), ref_text)
        attempted += a
        failed += f
    if got["error"] is not None or got["exit"] != ref["exit"] or got_arts.keys() != ref_arts.keys():
        failed = attempted
    digest_mismatches = sum(
        1
        for name in ref_arts.keys() | got_arts.keys()
        if _digest(got_arts.get(name)) != _digest(ref_arts.get(name))
    )
    return {"attempted": attempted, "failed": failed, "digest_mismatches": digest_mismatches}


def _digest(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()
