"""The benchmark's CLI goldens, byte for byte: every case of ``perfbench/cliwork.py``.

Each case runs ``python -m dilateq`` in a fresh directory and must give the
exit code, the stdout SHA-256 and the ``scan.csv`` digest recorded in
``perfbench/goldens.json``.  Both files are only read here.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from tests.test_package import src_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# cliwork imports its sibling module ``loop`` by bare name; no bytecode is
# written into perfbench/
sys.path.insert(0, str(PERFBENCH))
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import cliwork
finally:
    sys.path.remove(str(PERFBENCH))
    sys.dont_write_bytecode = dont_write_bytecode

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())
CASES = cliwork.cases()


def test_every_golden_has_a_case():
    assert sorted(CASES) == sorted(GOLDENS)
    assert len(CASES) == 24


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_golden(case, tmp_path):
    cliwork.prepare_dir(tmp_path)
    code, stdout, files = cliwork.invoke(CASES[case], tmp_path, src_env())
    want = GOLDENS[case]
    assert code == want["exit"]
    assert hashlib.sha256(stdout).hexdigest() == want["stdout_sha256"]
    assert len(stdout) == want["stdout_bytes"]
    assert files == want["files"]


#: stderr of the cases that report diagnostics there, captured with the goldens'
#: stdout; goldens.json holds stdout only
STDERR = {
    "extend/0": '{"interpolation_residual": 0, "max_additive_residual": 0}\n',
    "extend/1": (
        '{"interpolation_residual": 0, "max_additive_residual": 9.3223206931725144e-12}\n'
    ),
    "mora-solution/0": (
        '{"continuous_at_zero": false, "equation_residual": 1.7208456881689926e-15}\n'
    ),
    "mora-solution/1": (
        '{"continuous_at_zero": false, "equation_residual": 1.0325074129013956e-14}\n'
    ),
}


@pytest.mark.parametrize("case", sorted(STDERR))
def test_case_stderr(case, tmp_path, monkeypatch, capsys):
    from dilateq.cli import main

    cliwork.prepare_dir(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(CASES[case]) == 0
    out = capsys.readouterr()
    assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDENS[case]["stdout_sha256"]
    assert out.err == STDERR[case]


def _in_process(argv, workdir, monkeypatch, capsys):
    """Exit code, stdout, stderr and written files of ``main(argv)`` run in ``workdir``."""
    from dilateq.cli import main

    cliwork.prepare_dir(workdir)
    monkeypatch.chdir(workdir)
    code = main(argv)
    out = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in workdir.iterdir() if p.name not in cliwork.FILES}
    return code, out.out, out.err, files


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_without_float_engine(case, tmp_path, monkeypatch, capsys):
    # every case again with extend and residual --shifts on the numpy engine
    from dilateq import _floats

    floats = _in_process(CASES[case], tmp_path / "floats", monkeypatch, capsys)
    monkeypatch.setattr(_floats, "_FLOAT_READS", 0)
    assert _in_process(CASES[case], tmp_path / "numpy", monkeypatch, capsys) == floats
    assert floats[0] == GOLDENS[case]["exit"]
    assert hashlib.sha256(floats[1].encode()).hexdigest() == GOLDENS[case]["stdout_sha256"]
