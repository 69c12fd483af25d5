"""Import contract: scipy is loaded only where the oracles evaluate it.

``import cfdens`` and every estimation path run on numpy alone. scipy serves
the synthetic designs (truncated normals, logistic propensities) and the
Nelder-Mead projection oracle, each of which imports it when it runs. Every
case runs in a fresh interpreter, so modules that other tests loaded do not
count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import BASE, write_sample_csv

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(code):
    """The scipy modules loaded by a fresh interpreter that ran ``code``."""
    proc = subprocess.run([sys.executable, "-c", code + REPORT],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_scipy():
    assert scipy_modules_after("import cfdens, cfdens.cli") == set()


def test_density_effect_run_loads_no_scipy(tmp_path):
    data = write_sample_csv(tmp_path / "small.csv", 200, 3)
    argv = ["density-effect", "--data", str(data), *BASE, "--quick",
            "--out", str(tmp_path / "out.json")]
    loaded = scipy_modules_after(
        f"from cfdens import cli\nassert cli.main({argv!r}) == 0")
    assert loaded == set()
    assert json.loads((tmp_path / "out.json").read_text())["results"]


@pytest.mark.parametrize("name,special", [("cosine_bump", False),
                                          ("confounded_shift", True)])
def test_designs_load_special_only_to_sample(name, special):
    # building every design loads nothing; sampling a truncated normal loads
    # scipy.special, and the cosine design draws by numpy rejection alone
    loaded = scipy_modules_after(
        "import sys\nimport numpy as np\nfrom cfdens.oracle import dgp_library, get_dgp\n"
        f"dgp_library()\ndgp = get_dgp({name!r})\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "dgp.sample(50, np.random.default_rng(0))")
    assert ("scipy.special" in loaded) == special
    assert "scipy.optimize" not in loaded


@pytest.mark.parametrize("distance,method", [("l2", "closed_form"),
                                             ("hellinger", "nelder_mead+moment_root")])
def test_only_nelder_mead_projection_loads_optimize(distance, method):
    loaded = scipy_modules_after(
        "from cfdens import make_grid, parse_distance, parse_model\n"
        "from cfdens.oracle import get_dgp, oracle_projection\n"
        "res = oracle_projection(get_dgp('cosine_bump'), 1, parse_model('series:d=3'),\n"
        f"                        parse_distance({distance!r}), make_grid(64))\n"
        f"assert res.method == {method!r}, res.method")
    assert ("scipy.optimize" in loaded) == (method != "closed_form")
