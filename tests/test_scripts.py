"""Smoke runs of the scripts: each exits 0 and reports no mismatch; the
mutation catalogue still applies to the tree."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the words each script prints when a cross-check disagrees
MISMATCH_WORDS = {
    "homology_census.py": ("MISMATCH",),
}


@pytest.mark.parametrize("script", sorted(MISMATCH_WORDS))
def test_script_runs_clean(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n-max", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert words
    for bad in MISMATCH_WORDS[script]:
        assert bad not in words, proc.stdout


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_mutants()


@pytest.mark.parametrize("name", sorted(MUTANTS.CATALOGUE))
def test_mutation_catalogue_entry_still_applies(name):
    # each old text occurs once and each node id names a test; starts no pytest
    file, old, _, ids = MUTANTS.CATALOGUE[name]
    assert MUTANTS.problems(file, old, ids) == []
