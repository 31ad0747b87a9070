"""Start-up cost: importing weaksub, running any CLI command and using
gamma-ray subordinators load no scipy, and importing weaksub and its CLI
loads neither weaksub.prm nor what only a verify run or an internal error
uses; weaksub.prm's names are its own, not the package's. Each check runs
in a fresh interpreter, since this test process may already have imported
scipy, weaksub.prm and the rest for other tests."""
import json
import os
import subprocess
import sys
from pathlib import Path

import weaksub

SRC = str(Path(weaksub.__file__).resolve().parents[1])


def run_python(code: str, cwd: Path) -> str:
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy(tmp_path):
    out = run_python("import sys, weaksub, weaksub.cli\n"
                     "print(sorted(m for m in sys.modules\n"
                     "             if m.split('.')[0] == 'scipy'))", tmp_path)
    assert out.strip() == "[]"


LAZY_IMPORT = """
import json, sys, types
import weaksub, weaksub.cli
loaded = [m for m in ("weaksub.prm", "concurrent.futures", "traceback")
          if m in sys.modules]

def surface():
    return sorted(name for name, value in vars(weaksub).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))

before = surface()
import weaksub.prm
names = [getattr(weaksub.prm, name).__name__ for name in %r]
on_package = [name for name in names if hasattr(weaksub, name)]
try:
    weaksub.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "before": before, "after": surface(),
                  "names": names, "on_package": on_package,
                  "unknown": unknown}))
"""

# the package's public names, other than its submodules
SURFACE = [
    "AtomicJumps", "BrownianMotion", "CompoundPoisson", "ECFReport",
    "GammaRays", "IndependentStack", "JumpMeasure", "LevyLaw", "LevySpecError",
    "Lift", "SubordinatorSpec", "ThetaGridSpec", "cf_compare", "clt_bound",
    "ecf_grid", "equality_in_law_suite", "laplace_exponent",
    "sample_subordinate_at", "simulate_strong_at", "simulate_weak_at",
    "stacked_strong_exponent", "stacked_subordinator", "vector_time_exponent",
    "weak_exponent"]
# weaksub.prm's names are imported from it, not from weaksub
PRM_NAMES = ["ConstantFunctional", "PointMassMark", "laplace_functional_mc",
             "marked_laplace_check"]


def test_import_loads_prm_and_verify_only_parts_on_first_use(tmp_path):
    result = json.loads(run_python(LAZY_IMPORT % PRM_NAMES, tmp_path))
    assert result == {
        "loaded": [], "before": SURFACE, "after": SURFACE,
        "names": PRM_NAMES, "on_package": [],
        "unknown": "module 'weaksub' has no attribute 'no_such_name'"}


# one small config per command; none of them needs scipy
CONFIGS = {
    "exponent": {"seed": 1, "scenario": "stacked_C3", "theta_grid": {"size": 8}},
    "simulate_time1": {"seed": 2, "scenario": "finite_activity_C1", "replicates": 50},
    "simulate_times": {"seed": 3, "scenario": "finite_activity_C1", "replicates": 3,
                       "times": [1.0, 2.0]},
    "verify": {"seed": 4, "scenario": "stacked_C3", "replicates": 2000},
}

BLOCKED_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from weaksub.cli import main
try:
    import scipy
    blocked = False
except ImportError:
    blocked = True
codes = {name: main([name.split("_")[0], "--config", name + ".json",
                     "--out", name, "--quiet"])
         for name in %r}
print(json.dumps({"blocked": blocked, "codes": codes}))
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    for name, cfg in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    result = json.loads(run_python(BLOCKED_RUN % sorted(CONFIGS), tmp_path))
    assert result["blocked"]
    assert result["codes"] == {name: 0 for name in CONFIGS}
    assert (tmp_path / "exponent" / "exponent.csv").exists()
    assert (tmp_path / "simulate_time1" / "samples.csv").exists()
    times = (tmp_path / "simulate_times" / "samples.csv").read_text().splitlines()
    assert len(times) == 4 and times[0].endswith(",Z_2@2")
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    assert report["passed"] and report["exact_exponent"]["max_abs_diff"] <= 1e-10


GAMMA_RUN = """
import sys
sys.modules["scipy"] = None
import numpy as np
import weaksub as ws
T = ws.SubordinatorSpec(np.array([0.2, 0.1]),
                        ws.GammaRays([[1, 0], [0, 1], [1, 1]], [1.5, 1.5, 0.5],
                                     [1.0, 1.0, 1.0]))
X = ws.BrownianMotion([0.3, -0.2], [[1, 0.8], [0.8, 1]])
values = [ws.laplace_exponent(T, [0.5, 0.5]),
          ws.weak_exponent(T, X, [0.1, 0.2], [0.3, 0.4])]
rng = np.random.default_rng(0)
draws = [sample(T, X, [0.5, 1.0], 10, rng)
         for sample in (ws.simulate_strong_at, ws.simulate_weak_at)]
print(all(np.isfinite(values)), [d.shape for d in draws])
"""


def test_gamma_rays_run_with_scipy_blocked(tmp_path):
    out = run_python(GAMMA_RUN, tmp_path)
    assert out.strip() == "True [(10, 2, 4), (10, 2, 4)]"

