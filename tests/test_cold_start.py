"""Cold-start import hygiene: each command imports only what it runs.

The runtime needs numpy and orjson only; ``scipy`` is a test oracle.
These tests boot fresh interpreters — this one has long since imported
everything — and check that the CLI, the service and the stream twin
come up without ``scipy`` or any experiment runner module, and that a
booted service answers x/hecr/FIFO without the simulator.  Interpreters
in which ``import scipy`` fails answer a paper-regime LP (the certified
linear solve) and a heavy-traffic one (the simplex) exactly as the
library does, find a τ-crossover, and run ``protocol-optimality``.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.experiments
from repro.analysis.sensitivity import find_tau_crossover
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.experiments import base
from repro.io import allocation_to_dict
from repro.protocols import general
from repro.protocols.general import lp_allocation

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Prints the ``scipy`` modules and the experiment runner modules
#: loaded so far, as one JSON line.
_LOADED = (
    "import json, sys\n"
    "from repro.experiments import base\n"
    "runners = {entry.partition(':')[0] for entry in base._REGISTRY.values()\n"
    "           if isinstance(entry, str)}\n"
    "print(json.dumps({\n"
    "    'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
    "    'runners': sorted(runners & set(sys.modules))}))\n"
)


#: Makes every later ``import scipy`` (or any ``scipy.*``) fail.
_BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def _python(code: str, tmp_path) -> str:
    """Run ``code`` in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["repro.cli", "repro.service.app",
                                    "repro.stream"])
def test_import_loads_no_solver_and_no_runner(module, tmp_path):
    loaded = json.loads(_python(f"import {module}\n" + _LOADED, tmp_path))
    assert loaded == {"scipy": [], "runners": []}


#: Modules a serving process never runs: the experiment registry, the
#: predictors, exact and comparative evaluation, the exporters, the
#: blocking client (``http.client``, ``email``), the pre-fork supervisor
#: (``multiprocessing``) and protocol conformance, timelines,
#: feasibility and LIFO.  Each is imported by the route or method that
#: uses it.
_NOT_SERVING = (
    "repro.experiments", "repro.experiments.base", "repro.predictors",
    "repro.core.compare", "repro.core.exact", "repro.obs.export",
    "repro.service.client", "http.client", "email",
    "repro.service.supervisor", "multiprocessing",
    "repro.protocols.conformance", "repro.protocols.timeline",
    "repro.protocols.feasibility", "repro.protocols.lifo",
)


def test_serve_imports_load_only_what_serving_runs(tmp_path):
    code = ("import json, sys\n"
            "import repro.cli, repro.service.app, repro.service.runtime\n"
            f"print(json.dumps([m for m in {_NOT_SERVING!r} "
            "if m in sys.modules]))")
    assert json.loads(_python(code, tmp_path)) == []


#: The packages whose ``__init__`` re-exports names lazily.
_LAZY_PACKAGES = ("repro", "repro.core", "repro.protocols", "repro.obs",
                  "repro.service", "repro.util", "repro.experiments")

#: Reads every ``__all__`` name of the lazy packages, then imports every
#: module of ``repro`` and prints the names whose value is not what a
#: non-package module binds under that name (for a class or function:
#: the module its ``__module__`` names), or is no longer what the
#: package holds, and whether ``repro.core.hecr`` is the function.
_EXPORTS_ARE_DEFINITIONS = """
import importlib, json, pkgutil, sys, types
read = {(package, name): getattr(importlib.import_module(package), name)
        for package in PACKAGES
        for name in importlib.import_module(package).__all__
        if not name.startswith("__")}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
modules = [m for name, m in sorted(sys.modules.items())
           if name.startswith("repro.") and not hasattr(m, "__path__")]
bad = []
for (package, name), value in read.items():
    if isinstance(value, (type, types.FunctionType)):
        homes = [sys.modules[value.__module__]]
    else:
        homes = modules
    if (not any(vars(m).get(name) is value for m in homes)
            or getattr(sys.modules[package], name) is not value):
        bad.append(f"{package}.{name}")
print(json.dumps({"bad": bad, "hecr": isinstance(
    sys.modules["repro.core"].hecr, types.FunctionType)}))
"""


@pytest.mark.parametrize("first", [
    "",
    "import repro.cli, repro.service.app, repro.service.runtime",
    "import repro.core.hecr",
], ids=["nothing", "serve", "hecr-module"])
def test_package_exports_resolve_to_their_definitions(first, tmp_path):
    # ``first`` runs before any name is read: the serve path imports the
    # module repro.core.hecr, which must not shadow the function.
    code = f"PACKAGES = {_LAZY_PACKAGES!r}\n{first}\n" + _EXPORTS_ARE_DEFINITIONS
    assert json.loads(_python(code, tmp_path)) == {"bad": [], "hecr": True}


def test_cli_list_loads_no_solver_and_no_runner(tmp_path):
    code = ("from repro.cli import main\n"
            "assert main(['list']) == 0\n" + _LOADED)
    assert json.loads(_python(code, tmp_path)) == {"scipy": [], "runners": []}


def test_cli_list_does_not_load_the_service_codec(tmp_path):
    # orjson is the service's codec; the CLI keeps the stdlib json.
    code = ("import sys\nfrom repro.cli import main\n"
            "assert main(['list']) == 0\nprint('orjson' in sys.modules)")
    assert _python(code, tmp_path) == "False"


def test_service_answers_every_lp_without_scipy(tmp_path):
    heavy = {"tau": 0.5, "pi": 0.1, "delta": 1.0}
    code = _BLOCK_SCIPY + f"""
import json
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, ServiceThread

def simulator_modules():
    return sorted(m for m in sys.modules
                  if m == 'repro.simulation' or m.startswith('repro.simulation.'))

config = ServiceConfig(port=0, result_cache_dir={str(tmp_path / 'cache')!r})
profile = [1.0, 0.5, 0.25]
with ServiceThread(config, registry=MetricsRegistry()) as server:
    with server.client() as client:
        client.healthz()
        client.x(profile)
        client.hecr(profile)
        client.allocate(profile, lifespan=100.0, protocol='fifo')
        simulator = simulator_modules()
        lp = client.allocate(profile, lifespan=100.0, protocol='lp')
        heavy_lp = client.allocate(profile, lifespan=100.0, protocol='lp',
                                   params={heavy!r})
print(json.dumps({{'simulator': simulator, 'lp': lp, 'heavy_lp': heavy_lp}}))
"""
    out = json.loads(_python(code, tmp_path))
    # Boot and the x/hecr/FIFO answers load no simulator module.
    assert out["simulator"] == []
    # A Table-1 LP passes the certificate; the heavy one is rejected
    # and solved by the simplex.
    profile, natural = Profile([1.0, 0.5, 0.25]), np.arange(3)
    for key, params, certified in (("lp", PAPER_TABLE1, True),
                                   ("heavy_lp", ModelParams(**heavy), False)):
        A_ub = general._constraint_rows(profile.rho, params, natural,
                                        natural, True)
        assert (general._certified_w(A_ub, 100.0) is not None) is certified
        allocation = lp_allocation(profile, params, 100.0,
                                   (0, 1, 2), (0, 1, 2))
        assert out[key] == {"allocation": allocation_to_dict(allocation),
                            "total_work": float(allocation.w.sum())}


def test_crossover_and_protocol_optimality_run_without_scipy(tmp_path):
    code = _BLOCK_SCIPY + """
from repro.analysis.sensitivity import find_tau_crossover
from repro.cli import main
from repro.core.profile import Profile
assert main(['run', 'protocol-optimality', '--no-cache', '--no-store',
             '--output', 'optimality.txt']) == 0
print(repr(find_tau_crossover(Profile([1.0, 0.05]), Profile([0.45, 0.45]),
                              pi=1e-5, delta=1.0, tau_low=1e-6,
                              tau_high=5.0)))
"""
    crossover = find_tau_crossover(Profile([1.0, 0.05]), Profile([0.45, 0.45]),
                                   pi=1e-5, delta=1.0, tau_low=1e-6,
                                   tau_high=5.0)
    assert crossover is not None
    assert _python(code, tmp_path) == repr(crossover)
    assert (tmp_path / "optimality.txt").read_text().strip()


class TestLazyRegistry:
    """Every ``@register`` runner has exactly one lazy entry, and back."""

    @staticmethod
    def _registered_runners() -> dict[str, list[str]]:
        """Import every experiments module; id -> ``module:function``s."""
        package = repro.experiments
        found: dict[str, list[str]] = {}
        for info in pkgutil.iter_modules(package.__path__):
            name = f"{package.__name__}.{info.name}"
            module = importlib.import_module(name)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == name
                        and hasattr(obj, "experiment_id")):
                    found.setdefault(obj.experiment_id, []).append(
                        f"{name}:{attr}")
        return found

    def test_every_registration_has_exactly_its_lazy_entry(self):
        registered = self._registered_runners()
        assert all(len(runners) == 1 for runners in registered.values()), (
            registered)
        assert sorted(registered) == base.list_experiments()
        for experiment_id, (entry,) in registered.items():
            module_name, _, attr = entry.partition(":")
            runner = base.get_experiment(experiment_id)
            assert (runner.__module__, runner.__name__) == (module_name, attr)
            assert runner.experiment_id == experiment_id

    def test_cold_index_equals_index_after_importing_every_module(self, tmp_path):
        self._registered_runners()
        cold = _python("import json\n"
                       "from repro.experiments.base import experiment_index\n"
                       "print(json.dumps(experiment_index()))", tmp_path)
        assert json.loads(cold) == base.experiment_index()
