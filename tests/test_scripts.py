"""Smoke runs of the scripts: each exits 0 and reports no mismatch, and the
census exits 1 on one; the mutation catalogue still applies to the tree."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gammashell.series import MSeries

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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_exits_1_on_a_mismatch(monkeypatch, capsys):
    census = load_script("homology_census")
    series_XY = census.series_XY

    def skewed(T):
        # the diagonal coefficient of n = 2 off by one
        xy = series_XY(T)
        return MSeries(3, T, {**xy.coeffs, (3, 3, 3): xy.coefficient((3, 3, 3)) + 1})

    monkeypatch.setattr(census, "series_XY", skewed)
    assert census.main(["--n-max", "3"]) == 1
    assert "MISMATCH" in capsys.readouterr().out.split()


MUTANTS = load_script("mutants")


@pytest.mark.parametrize("name", sorted(MUTANTS.CATALOGUE))
def test_mutation_catalogue_entry_still_applies(name):
    # each old text occurs once and each node id names a test; starts no pytest
    file, old, _, ids = MUTANTS.CATALOGUE[name]
    assert MUTANTS.problems(file, old, ids) == []
