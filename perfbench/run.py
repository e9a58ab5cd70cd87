#!/usr/bin/env python3
"""dilateq benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads: extend-build, extend-query, spectral, cli (see PROVENANCE.md).
Timed figures are scaled to a reference machine speed by a calibration loop
run between ops (see ``loop.py``).

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Each workload runs in a child process of its own.  ``setup_s``
is the median over five fresh processes (four that stop after set-up, and
the measuring one) of the time from spawning the process to its first timed
op, scaled like the other timed figures.  Details (failures, percentiles, per-op work counts) go to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("extend-build", "extend-query", "spectral", "cli")

#: processes timed for setup_s, the measuring one included
SETUP_SAMPLES = 5

#: the whole invocation must end within this many seconds
EXIT_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_ratio": "1",
    "peak_rss_mb": "MiB",
}


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "probe", "main"), default="parent", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- child process ---------------------------------------------------------------


def _make_workload(name: str, seed: int):
    if name == "cli":
        import cliwork

        return cliwork.Cli(seed, WORKDIR / "cli", ROOT)
    import inproc

    return inproc.WORKLOADS[name](seed)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _traced(wl, args) -> dict:
    """Per-layer metrics: each round untraced, then again traced; then the census."""
    import cliwork
    import inproc
    import tracing
    from loop import run_op

    rec = tracing.Recorder()
    rounds = max(1, round(args.seconds / (2.0 * wl.round_s)))
    traced, untraced = [], []
    op_id = 0

    def traced_ops(ops):
        nonlocal op_id
        rec.install()
        try:
            for op in ops:
                traced.append((op_id, run_op(op, lambda i=op_id: rec.begin_op(i))))
                op_id += 1
        finally:
            rec.restore()

    for r in range(rounds):
        if wl.name != "cli":  # the CLI runs in subprocesses: nothing to wrap in here
            untraced.extend(run_op(op) for op in wl.round(r))
        traced_ops(wl.round(r))
    round_outcomes = [o for _, o in traced]
    traced_ops(inproc.census())
    cli = wl if wl.name == "cli" else cliwork.Cli(args.seed, WORKDIR / "cli", ROOT)
    for op in cli.census():
        traced.append((op_id, run_op(op)))
        op_id += 1

    spans = tracing.Spans(rec, skip_ops={i for i, o in traced if o.error.startswith("deadline")})
    outcomes = [o for _, o in traced]
    failed_by_layer: dict[str, int] = {}
    for o in outcomes:
        if not o.ok:
            failed_by_layer[o.layer] = failed_by_layer.get(o.layer, 0) + 1
    mismatches = sum(1 for o in outcomes if "winding count" in o.error)
    metrics = tracing.layer_metrics(spans, failed_by_layer, mismatches)

    startup = cliwork.startup_metrics(ROOT, WORKDIR / "cli")
    metrics["cli.interpreter_ms"] = startup["interpreter_ms"]
    metrics["cli.import_numpy_ms"] = startup["import_numpy_ms"]
    metrics["cli.import_dilateq_ms"] = startup["import_dilateq_ms"]
    walls = [w for ws in cli.walls.values() for w in ws]
    for sub in cliwork.SUBCOMMANDS:
        metrics[f"cli.{sub}_ms"] = 1e3 * statistics.median(cli.walls.get(sub, [0.0]))
    metrics["cli.compute_ms"] = 1e3 * statistics.median(walls) - startup["import_cli_ms"]
    metrics["cli.stdout_bytes"] = cli.stdout_bytes
    metrics["cli.exit_unexpected"] = cli.unexpected_exits

    def rate(outs) -> float:
        busy = sum(o.seconds for o in outs)
        return sum(1 for o in outs if o.ok and not o.probe) / busy if busy else 0.0

    traced_rate = rate(round_outcomes)
    untraced_rate = rate(untraced) if untraced else traced_rate
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate if traced_rate else 0.0

    counts = spans.op_counts()
    per_op = [
        {"op": i, "kind": o.kind, "ok": o.ok, "counts": counts.get(i, {})} for i, o in traced
    ]
    rec.save(WORKDIR / f"spans-{args.workload}-{args.seed}.npz")
    return {
        "metrics": metrics,
        "units": {k: tracing.PER_LAYER[k][0] for k in metrics},
        "outcomes": round_outcomes,
        "rounds": rounds,
        "per_op": per_op,
        "self_seconds": spans.self_seconds(),
        "spans": int(spans.dur.size),
    }


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # the library's own overflow warnings (det of huge Hankel matrices) are expected
    warnings.simplefilter("ignore", RuntimeWarning)
    from loop import run_op, run_rounds, summarize

    wl = _make_workload(args.workload, args.seed)
    for op in wl.warm_up():
        out = run_op(op)
        if not out.ok:
            print(f"warm-up op {out.kind} failed: {out.error}", file=sys.stderr)
            return 1
    ready = time.perf_counter()
    if args.role == "probe":
        print(json.dumps({"ready": ready}))
        return 0

    calibration: list[float] = []
    if args.trace:
        detail = _traced(wl, args)
        outcomes = detail.pop("outcomes")
    else:
        limit = max(args.seconds + 60.0, 3.0 * args.seconds)
        outcomes, calibration, rounds = run_rounds(wl.round, args.seconds, limit)
        detail = {"rounds": rounds}
    summary = summarize(outcomes, wl.tail_pct, calibration)
    summary["peak_rss_mb"] = _peak_rss_mb(children=args.workload == "cli")
    print(json.dumps({"ready": ready, "summary": summary, **detail}))
    return 0


# -- parent process ----------------------------------------------------------------


def _spawn(args, role: str, timeout: float) -> tuple[float, dict]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return data["ready"] - t0, data


def parent(args) -> int:
    if not (ROOT / "src" / "dilateq" / "__init__.py").is_file():
        print(f"error: no dilateq sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(_spawn(args, "probe", 60.0)[0])
    setup, data = _spawn(args, "main", EXIT_BUDGET_S - (time.perf_counter() - start))
    setups.append(setup)
    summary = data["summary"]

    if args.trace:
        metrics = data["metrics"]
    else:
        metrics = {k: summary[k] for k in END_TO_END if k in summary}
        # set-up is mostly import work, so the run's machine slowdown applies to it too
        metrics["setup_s"] = statistics.median(setups) / summary["slowdown"]
    unit_of = data.get("units", END_TO_END)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "setup_samples_s": setups, "summary": summary,
        **{k: v for k, v in data.items() if k not in ("ready", "summary", "metrics", "units")},
        "metrics": metrics,
        "units": unit_of,
    }
    out = WORKDIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}  seed {args.seed}  rounds {data.get('rounds')}  "
          f"ops {summary['attempted']} + {summary['probes']} probes  details: {out.relative_to(ROOT)}")
    if not args.trace:
        raw = summary["raw"]
        print(f"# latency_tail_ms is p{summary['tail_percentile']:g} of {summary['latency_samples']} samples")
        print(f"# timed figures at the reference speed; machine slowdown {summary['slowdown']:.4f}; raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for f in summary["failures"]:
        print(f"# failed: {f}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit_of.get(name, '')}")
    correct = summary["failed"] == 0
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": unit_of.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    return child(args) if args.role != "parent" else parent(args)


if __name__ == "__main__":
    sys.exit(main())
