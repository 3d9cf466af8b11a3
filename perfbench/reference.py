"""Seed-core reference outcomes, recorded once per (workload, seed).

A reference is what the seed reference core
(:func:`repro.perf.legacy.legacy_core`) produces for one pass of a
workload: a digest of every operation's protocol outcome (final views,
physical frames, busy bits, QoS JSON, check verdicts, query answers; never
trace bytes) plus the pass's simulated metrics. The references for the
default and the held-out seed are committed under ``references/``; any
other seed is computed under the seed core on first use and cached under
``.cache/`` in the checkout, so the slow core runs at most once per seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import Op, Workload, add_counters, network_log

FORMAT = "perfbench.reference/1"
HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "references"
CACHE = HERE / ".cache"


def digest(outcome: Any) -> str:
    """SHA-256 of the outcome's canonical JSON."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def op_digests(ops: List[Op]) -> Dict[str, Dict[str, Any]]:
    """Operation key -> {digest, failed}, in pass order."""
    return {
        op.key: {"digest": digest(op.outcome), "failed": op.failed}
        for op in ops
    }


def plain(value: Any) -> Any:
    """``value`` as it reads back from JSON (the form references keep)."""
    return json.loads(json.dumps(value))


def _path(directory: Path, workload: str, seed: int) -> Path:
    return directory / f"{workload}-seed{seed}.json"


def compute(workload: Workload, seed: int) -> Dict[str, Any]:
    """One pass of ``workload`` under the seed reference core."""
    from repro.perf.legacy import legacy_core

    inputs = workload.inputs(seed)
    with legacy_core(), network_log() as built:
        state = workload.setup(inputs)
        ops = workload.reference_run(state, inputs)
        counters: Dict[str, int] = {}
        add_counters(counters, built)
    return {
        "format": FORMAT,
        "workload": workload.name,
        "seed": seed,
        "inputs": plain(inputs),
        "ops": op_digests(ops),
        "sim": plain(workload.sim_metrics(ops, counters, inputs)),
    }


def load(workload: Workload, seed: int) -> Optional[Dict[str, Any]]:
    """The committed or cached reference, if one exists."""
    for directory in (COMMITTED, CACHE):
        path = _path(directory, workload.name, seed)
        if path.is_file():
            with open(path) as handle:
                return json.load(handle)
    return None


def save(reference: Dict[str, Any], committed: bool) -> Path:
    """Write ``reference`` to the committed set or the checkout cache."""
    directory = COMMITTED if committed else CACHE
    directory.mkdir(parents=True, exist_ok=True)
    path = _path(directory, reference["workload"], reference["seed"])
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def obtain(workload: Workload, seed: int) -> Dict[str, Any]:
    """The reference for (workload, seed), computing and caching it once."""
    reference = load(workload, seed)
    if reference is None:
        reference = compute(workload, seed)
        save(reference, committed=False)
    return reference


def mismatches(
    reference: Dict[str, Any],
    workload: Workload,
    seed: int,
    digests: Dict[str, Dict[str, Any]],
    sim: Dict[str, Any],
) -> List[str]:
    """Every way a pass differs from the reference (empty when it agrees)."""
    problems = []
    if reference.get("format") != FORMAT:
        problems.append(f"reference format {reference.get('format')!r}")
    if reference.get("inputs") != plain(workload.inputs(seed)):
        problems.append("reference was recorded for other inputs; "
                        "re-record it with --record-reference")
    expected = reference.get("ops", {})
    if set(expected) != set(digests):
        problems.append(
            f"operations differ: {len(digests)} run, {len(expected)} in "
            "the reference"
        )
    for key, entry in digests.items():
        if key in expected and expected[key] != entry:
            problems.append(f"operation {key} differs from the seed core")
    if reference.get("sim") != plain(sim):
        problems.append(
            f"simulated metrics {plain(sim)} differ from the seed core's "
            f"{reference.get('sim')}"
        )
    return problems
