"""Each demo script runs to completion in a fresh interpreter and prints
the bytes pinned here; a change that moves them says why."""

import hashlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_lorentz_group": "794e1f3d846f344c0d7732e7a516b6b4d39355f8c72a437d2bf4d34e77e81413",
    "02_distances_and_factorizations":
        "50753e8baad49083bbfee60a7d176246d2b686303ded5fc20754f042bdeefbfb",
    "03_spherical_transform": "d7043681fc364f5f990826a0be3c523ed9955c76fa4727cfb3dceb314405415a",
    "04_cycle_distances": "44b3ad8c1c4f1b4ecba283c4e0726a4a724e43a0f0fd170fff54cc73cbdf415d",
    "05_orbit_counting": "078ff3b985727f79a8b974e14b1525e58b8da39ebe613fb73d5de442f4e14e2a",
    "06_large_mu_asymptotics": "368b4668e681fe553ab2079307489df35f6749c762cd4c9d810ee6f2191c726b",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, fresh_python):
    proc = fresh_python(str(script), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script.stem]
