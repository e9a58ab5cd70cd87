#!/usr/bin/env python3
"""Maintenance commands for the benchmark; run from the root of a checkout.

    python3 perfbench/tools.py goldens            # re-capture the CLI goldens
    python3 perfbench/tools.py selfcheck          # work counts repeat per seed
    python3 perfbench/tools.py compare A.json B.json
    python3 perfbench/tools.py reference          # ROADMAP item 1 reference numbers
    python3 perfbench/tools.py per-layer          # per_layer list for BENCHMARK.json

``compare`` takes two result files written by ``run.py --trace 1`` and
reports every work count that differs, per layer and per op, ignoring
timings; it exits 1 when any count differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"

#: counts that must repeat exactly for a seed, and the workloads that drive them
EXACT_COUNTS = {
    "strips": ("extend-build", "extend-query"),
    "breakpoints": ("extend-build", "extend-query"),
    "residual_points": ("spectral",),
    "power_sum_calls": ("spectral",),
    "newton_steps": ("spectral",),
    "winding_evals": ("spectral",),
    "ratio_terms": ("extend-query",),
}


def _traced_run(workload: str, seed: int) -> dict:
    """One traced round of ``workload``; returns its result record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    return json.loads((WORKDIR / f"result-{workload}-{seed}-trace1.json").read_text())


def _op_counts(record: dict) -> dict[str, int]:
    total: dict[str, int] = {}
    for op in record["per_op"]:
        for k, v in op["counts"].items():
            total[k] = total.get(k, 0) + v
    return total


def count_changes(a: dict, b: dict) -> list[str]:
    """Every count that differs between two traced result records."""
    lines = []
    for name in sorted(n for n, u in b["units"].items() if u in ("count", "bytes")):
        va, vb = a["metrics"].get(name), b["metrics"].get(name)
        if va != vb:
            lines.append(f"{name}: {va} -> {vb}")
    ops_a = {op["op"]: op for op in a["per_op"]}
    for op in b["per_op"]:
        old = ops_a.get(op["op"])
        if old is None or old["kind"] != op["kind"]:
            lines.append(f"op {op['op']}: {old and old['kind']} -> {op['kind']}")
            continue
        for k, v in op["counts"].items():
            if old["counts"].get(k) != v:
                lines.append(f"op {op['op']} ({op['kind']}) {k}: {old['counts'].get(k)} -> {v}")
    if len(a["per_op"]) != len(b["per_op"]):
        lines.append(f"ops: {len(a['per_op'])} -> {len(b['per_op'])}")
    return lines


def selfcheck() -> int:
    """Same seed: identical counts.  Other seed: the workload's own counts move."""
    bad = 0
    for workload in ("extend-build", "extend-query", "spectral"):
        first = _traced_run(workload, 11)
        again = _traced_run(workload, 11)
        other = _traced_run(workload, 12)
        diff = count_changes(first, again)
        ca, cb = _op_counts(first), _op_counts(other)
        same = [k for k, drivers in EXACT_COUNTS.items() if workload in drivers and ca[k] == cb[k]]
        status = "ok" if not diff and not same else "FAILED"
        bad += status != "ok"
        print(f"{workload:13s} {status}: same seed {len(diff)} count changes; "
              f"other seed left unchanged: {same or 'none'}")
        for line in diff[:20]:
            print(f"    {line}")
        print("    " + ", ".join(f"{k}={ca[k]}/{cb[k]}" for k in EXACT_COUNTS))
    return 1 if bad else 0


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    lines = count_changes(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} count changes")
    return 1 if lines else 0


def goldens() -> int:
    import cliwork

    data = cliwork.capture(WORKDIR / "goldens", ROOT)
    cliwork.GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} goldens to {cliwork.GOLDENS.relative_to(ROOT)}")
    return 0


def reference() -> int:
    """Traced reproduction of ROADMAP item 1's reference numbers (not a gate)."""
    sys.path.insert(0, str(ROOT / "src"))
    import platform

    import numpy as np
    import tracing
    from dilateq import expsums, extension

    out = {"python": platform.python_version(), "numpy": np.__version__, "cpus": len(os.sched_getaffinity(0))}
    shifts = (1.0, 2.0)
    for bp in (10_000, 20_000, 40_000):
        rec = tracing.Recorder()
        rec.install()
        try:
            t0 = time.perf_counter()
            sol = extension.extend(extension.tent_boundary(shifts), shifts, (-0.3 * bp, 0.7 * bp))
            wall = time.perf_counter() - t0
        finally:
            rec.restore()
        m = tracing.layer_metrics(tracing.Spans(rec), {}, 0)
        out[f"extend_1_2_{bp}"] = {
            "breakpoints": int(sol.pieces.breakpoints.size), "strips": m["extension.strips"],
            "seconds": wall, "us_per_strip": m["extension.us_per_strip"],
        }
    rec = tracing.Recorder()
    rec.install()
    try:
        t0 = time.perf_counter()
        zeros = expsums.find_zeros(30)
        wall = time.perf_counter() - t0
    finally:
        rec.restore()
    m = tracing.layer_metrics(tracing.Spans(rec), {}, 0)
    out["find_zeros_30"] = {
        "zeros": len(zeros), "seconds": wall, "scan_s": m["expsums.scan_busy_s"],
        "newton_s": m["expsums.newton_busy_s"], "winding_s": m["expsums.winding_busy_s"],
        "power_sum_calls": m["expsums.power_sum_calls"], "winding_evals": m["expsums.winding_evals"],
    }
    print(json.dumps(out, indent=1))
    return 0


def per_layer() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    print(json.dumps([{"name": k, "unit": u, "better": b} for k, (u, b) in tracing.PER_LAYER.items()], indent=1))
    return 0


def main(argv: list[str]) -> int:
    commands = {"goldens": goldens, "selfcheck": selfcheck, "reference": reference, "per-layer": per_layer}
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if len(argv) == 1 and argv[0] in commands:
        return commands[argv[0]]()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
