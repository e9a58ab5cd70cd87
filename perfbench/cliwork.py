"""The cli workload: ``python -m dilateq <subcommand>`` spawned one at a time.

Every subcommand runs in every round with README-sized inputs, in a seeded
order; each round also makes the two expected-error calls and the NaN probe.
Outputs are checked byte for byte against ``goldens.json``, captured at the
commit that introduced the benchmark with ``python3 perfbench/tools.py
goldens``.  Only the standard library is imported here, so the workload
process itself stays as light as a shell.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from loop import Mismatch, Op

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

#: deadline of one CLI call; a call takes about 0.2 s at the baseline
CLI_DEADLINE = 30.0

FILES = {
    "tent.json": '{"breakpoints": [0, 1, 2], "values": [1, 1, -2]}',
    "tent_ln.json": json.dumps(
        {"breakpoints": [0.0, math.log(2.0), math.log(3.0)], "values": [1.0, 1.0, -2.0]}
    ),
    "bad.json": '{"breakpoints": [0, 1, 2], "values": [1, 1, 0]}',
}

ZERO_2_1 = repr(3.0 * math.pi / math.log(2.0))

#: subcommand -> argument lists of its variants (README examples first)
SUBCOMMANDS = {
    "regularity": [["[2,3]"], ["[1.5,2.5,4]"]],
    "normalize": [["[0.5,3]"], ["[3,2,7]"]],
    "extend": [
        ["tent.json", "--shifts", "[1,2]", "--range", "-3", "6", "--samples", "901"],
        ["tent_ln.json", "--shifts", "[0.69314718055994529,1.0986122886681098]",
         "--range", "-4", "8", "--samples", "2001"],
    ],
    "residual": [
        ["--boundary", "tent.json", "--shifts", "[1,2]", "--range", "-3", "3"],
        ["--boundary", "tent_ln.json", "--coeffs", "[2,3]", "--range", "0.1", "10"],
    ],
    "periodicity": [
        ["--shifts", "[1,2]", "--alpha-max", "10"],
        ["--shifts", "[0.5,1,1.5]", "--alpha-max", "20", "--grid-step", "0.01"],
    ],
    "equispaced": [["--n", "2", "--d", "1", "--m-max", "4"], ["--n", "5", "--d", "0.5", "--m-max", "12"]],
    "two-term": [["5", "4"], ["7", "11"]],
    "fourier-matrix": [
        ["--k", "1", "--theta", "2.0943951023931953", "--shifts", "[1,2]"],
        ["--k", "3", "--theta", "0.5", "--shifts", "[1,2,3]"],
    ],
    "zeros": [["--n", "2", "--scan-csv", "scan.csv"], ["--n", "10"]],
    "mora-solution": [
        ["--n", "2", "--re", "0", "--im", "4.532360141827194", "--range", "-5", "5"],
        ["--n", "2", "--re", "0", "--im", ZERO_2_1, "--range", "-3", "1", "--samples", "2001"],
    ],
    "popoviciu": [
        ["--boundary", "tent.json", "--shifts", "[1,2]", "--x", "0.5", "--h", "0.3", "--order", "3"],
        ["--boundary", "tent.json", "--shifts", "[1,2]", "--x", "1.5", "--h", "0.2", "--order", "4"],
    ],
}

#: calls that must fail with a contract exit code (goldens hold the codes)
EXPECTED_ERRORS = {
    "two-term/non-coprime": ["two-term", "3", "6"],
    "extend/incompatible": ["extend", "bad.json", "--shifts", "[1,2]", "--range", "-3", "6"],
}

#: known defect (ROADMAP item 2): NaN passes validation and exits 1 with a
#: traceback; the contract asks for exit 2 and no output
NAN_PROBE = ["regularity", "[NaN]"]


def cases() -> dict[str, list[str]]:
    """Every golden-checked call: ``<subcommand>/<variant>`` -> argv."""
    out = {
        f"{sub}/{i}": [sub, *args]
        for sub, variants in SUBCOMMANDS.items()
        for i, args in enumerate(variants)
    }
    out.update(EXPECTED_ERRORS)
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare_dir(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in FILES.items():
        (workdir / name).write_text(text)


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(argv: list[str], workdir: Path, env, timeout: float = CLI_DEADLINE):
    """Run ``python -m dilateq argv`` in ``workdir``: (exit code, stdout, files)."""
    scan = workdir / "scan.csv"
    scan.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "dilateq", *argv],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )
    files = {"scan.csv": _digest(scan.read_bytes())} if scan.exists() else {}
    return proc.returncode, proc.stdout, files


def capture(workdir: Path, root: Path) -> dict:
    """Goldens of every case at the current commit."""
    prepare_dir(workdir)
    env = cli_env(root)
    out = {}
    for case, argv in cases().items():
        code, stdout, files = invoke(argv, workdir, env)
        out[case] = {"exit": code, "stdout_sha256": _digest(stdout), "stdout_bytes": len(stdout), "files": files}
    return out


class Cli:
    """Subprocess per op; startup dominates, so lazy imports show here."""

    name = "cli"
    tail_pct = 85.0
    round_s = 3.0

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = cli_env(root)
        self.goldens = json.loads(GOLDENS.read_text())
        self.walls: dict[str, list[float]] = {}
        self.stdout_bytes = 0
        self.unexpected_exits = 0
        prepare_dir(workdir)

    def _op(self, case: str, argv: list[str], probe: bool = False) -> Op:
        sub = argv[0]

        def call():
            t0 = time.perf_counter()
            result = invoke(argv, self.workdir, self.env)
            return result, time.perf_counter() - t0

        def check(value):
            (code, stdout, files), wall = value
            if probe:
                want = {"exit": 2, "stdout_sha256": _digest(b""), "files": {}}
            else:
                want = self.goldens[case]
            if code != want["exit"]:
                self.unexpected_exits += 1
                raise Mismatch(f"exit {code}, expected {want['exit']}")
            if _digest(stdout) != want["stdout_sha256"] or files != want["files"]:
                raise Mismatch("output differs from the golden")
            self.stdout_bytes += len(stdout)
            if code == 0:
                self.walls.setdefault(sub, []).append(wall)

        kind = "probe-nan-regularity" if probe else case
        return Op(kind=kind, layer="cli", call=call, check=check, probe=probe, deadline=CLI_DEADLINE)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/cli/{r}")
        ops = [
            self._op(f"{sub}/{i}", [sub, *variants[i]])
            for sub, variants in SUBCOMMANDS.items()
            for i in [rng.randrange(len(variants))]
        ]
        ops += [self._op(case, argv) for case, argv in EXPECTED_ERRORS.items()]
        ops.append(self._op("nan", NAN_PROBE, probe=True))
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> list[Op]:
        return [self._op("two-term/0", ["two-term", *SUBCOMMANDS["two-term"][0]])]

    def census(self) -> list[Op]:
        return [self._op(f"{sub}/0", [sub, *variants[0]]) for sub, variants in SUBCOMMANDS.items()]


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def startup_metrics(root: Path, workdir: Path, repeats: int = 5) -> dict[str, float]:
    """Interpreter start, the numpy and dilateq imports, and ``import dilateq.cli``."""
    env = cli_env(root)

    def wall(args: list[str]) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=workdir, env=env, capture_output=True, text=True, timeout=60
        )
        return time.perf_counter() - t0, proc.stderr

    interp = statistics.median(wall(["-c", "pass"])[0] for _ in range(repeats))
    import_cli = statistics.median(wall(["-c", "import dilateq.cli"])[0] for _ in range(repeats))
    numpy_us, dilateq_us = [], []
    for _ in range(repeats):
        cumulative = {}
        for m in _IMPORTTIME.finditer(wall(["-X", "importtime", "-c", "import dilateq.cli"])[1]):
            cumulative.setdefault(m.group(4), int(m.group(2)))
        numpy_us.append(cumulative.get("numpy", 0))
        dilateq_us.append(cumulative.get("dilateq", 0))
    return {
        "interpreter_ms": 1e3 * interp,
        "import_numpy_ms": 1e-3 * statistics.median(numpy_us),
        "import_dilateq_ms": 1e-3 * statistics.median(dilateq_us),
        "import_cli_ms": 1e3 * import_cli,
    }
