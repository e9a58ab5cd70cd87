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
