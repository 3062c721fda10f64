"""The package's lazy layers: `import povmcoh` registers each layer, errors through
fileio, in sys.modules without running it, and a layer runs on the first access to
one of its attributes.  Each test runs in a fresh interpreter, where no layer has run
yet; `type()` tells a layer that has not run from a plain module without running it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import povmcoh
from helpers import plus_density, trine_povm, z_basis_povm
from povmcoh import Ensemble, fileio

SRC = str(Path(povmcoh.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
LAYERS = ("errors", "linalg", "objects", "measures", "bounds", "lsm", "uncertainty", "haar", "fileio")
# which layers a script has run, by name, on stdout as JSON
RUN_LAYERS = ("import json, sys, types; print(json.dumps({name: type(sys.modules['povmcoh.' + name]) "
              f"is types.ModuleType for name in {LAYERS!r}}}))")
# povmcoh.__all__ before the layers became lazy
PUBLIC_NAMES = [
    "AlphaOutOfRangeError", "BetaNonPositiveError", "BoundReport", "CoherenceResult",
    "ConvergenceFailureError", "DegenerateEnsembleError", "DensityMatrix", "DimensionMismatchError",
    "EmptyEnsembleError", "Ensemble", "HaarAverageResult", "IdentityCheck", "IncoherenceReport",
    "InvalidExponentsError", "LsmInstance", "McEstimate", "NegativeEigenvalueError", "NotHermitianError",
    "NotSquareError", "NotUnitaryError", "NumericError", "Povm", "PovmcohError", "PureState",
    "SingularSumError", "StatePovmResult", "UncertaintyReport", "ValidationError", "Violation",
    "XOutOfRangeError", "ZOutOfRangeError", "bound_b1", "bound_b2", "bound_b3", "bounds", "build_lsm",
    "discrimination_identity_check", "ensemble_from_measurement", "errors", "figure1_reference_bounds",
    "figure1_state", "figure2_reference_bounds", "figure2_state", "haar", "haar_average",
    "haar_average_l1_bound", "haar_average_relative_entropy", "haar_average_tsallis", "haar_moment",
    "haar_random_pure", "holder_bound", "holder_bound_22", "is_povm_incoherent", "l1_coherence", "linalg",
    "lsm", "measurement_from_ensemble", "measures", "monte_carlo_average", "objects", "overlap_constant",
    "pair_bounds", "projective_povm", "pure_state_bound", "random_povm", "refined_overlap_constant",
    "relative_entropy_coherence", "tsallis_coherence", "tsallis_half_trace_formula", "uncertainty",
    "uncertainty_report", "validate",
]


def python(*args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def run_layers(script: str) -> dict:
    proc = python("-c", f"{script}\n{RUN_LAYERS}")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_runs_no_layer_and_keeps_the_public_names():
    proc = python("-c", "import json, sys, povmcoh; print(json.dumps(["
                  "povmcoh.__all__, [n for n in dir(povmcoh) if not n.startswith('_')], 'numpy' in sys.modules]))\n"
                  + RUN_LAYERS)
    assert proc.returncode == 0, proc.stderr
    names, listed, numpy_loaded = json.loads(proc.stdout.splitlines()[0])
    assert names == listed == PUBLIC_NAMES
    assert not numpy_loaded
    assert not any(json.loads(proc.stdout.splitlines()[1]).values())


def test_cli_import_runs_the_layers_it_needs_and_registers_the_rest():
    ran = run_layers("import povmcoh.cli")
    assert ran == {**dict.fromkeys(LAYERS, False), "errors": True, "linalg": True, "objects": True,
                   "measures": True}


def test_a_public_name_resolves_from_its_layer_once():
    ran = run_layers("import povmcoh\n"
                     "assert 'pair_bounds' not in vars(povmcoh)\n"
                     "assert povmcoh.pair_bounds is povmcoh.bounds.pair_bounds\n"
                     "assert vars(povmcoh)['pair_bounds'] is povmcoh.bounds.pair_bounds")
    assert ran["bounds"] and not ran["haar"]


def test_vars_runs_a_layer():
    # cohbench's tracer reads each layer with vars() before wrapping its functions
    ran = run_layers("import sys, povmcoh\n"
                     "assert 'pair_bounds' in vars(sys.modules['povmcoh.bounds'])")
    assert ran["bounds"] and not ran["lsm"]


def test_a_value_set_before_the_first_read_survives_the_run():
    # a write runs the layer first, so the layer's own code cannot overwrite it
    ran = run_layers("import sys, povmcoh\n"
                     "linalg = sys.modules['povmcoh.linalg']\n"
                     "linalg._cpus = lambda: 7\n"
                     "assert linalg._cpus() == 7\n"
                     "del sys.modules['povmcoh.lsm'].build_lsm\n"
                     "assert not hasattr(povmcoh.lsm, 'build_lsm')")
    assert ran["linalg"] and ran["lsm"]


def test_an_unknown_name_is_an_attribute_error():
    proc = python("-c", "import povmcoh; povmcoh.no_such_name")
    assert proc.returncode == 1 and "AttributeError: module 'povmcoh' has no attribute 'no_such_name'" in proc.stderr


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("lazy")
    objects = {"state.json": plus_density(), "z.json": z_basis_povm(), "trine.json": trine_povm(),
               "ensemble.json": Ensemble([plus_density().mat, z_basis_povm().elements[0]], [0.5, 0.5])}
    for name, obj in objects.items():
        fileio.dump(str(root / name), obj)
    return root


@pytest.mark.parametrize("argv, layers", [
    (["compute", "--state", "state.json", "--povm", "z.json", "--measure", "l1"], {"fileio"}),
    (["bounds", "--state", "state.json", "--povm", "z.json"], {"fileio", "bounds"}),
    (["bounds", "--figure", "1", "--pq", "3,1.5"], {"bounds"}),
    (["lsm", "--ensemble", "ensemble.json"], {"fileio", "lsm"}),
    (["uncertainty", "--state", "state.json", "--povm", "z.json", "--povm2", "trine.json"],
     {"fileio", "uncertainty"}),
    (["haar", "--povm", "trine.json", "--measure", "r"], {"fileio", "haar"}),
], ids=["compute", "bounds", "bounds-figure", "lsm", "uncertainty", "haar"])
def test_each_command_runs_only_the_layers_it_uses(files, argv, layers):
    # as `python -m povmcoh.cli` runs it: runpy.run_module with the module as __main__;
    # import povmcoh.cli has run errors, linalg, objects and measures already
    script = ("import runpy, sys\n"
              f"sys.argv = ['povmcoh.cli', *{argv!r}]\n"
              "try:\n"
              "    runpy.run_module('povmcoh.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n"
              "    assert exc.code == 0, exc.code\n")
    proc = python("-c", f"{script}\n{RUN_LAYERS}", cwd=files)
    assert proc.returncode == 0, proc.stderr
    ran = json.loads(proc.stdout.splitlines()[-1])
    assert {name for name, has_run in ran.items() if has_run} == {"errors", "linalg", "objects", "measures", *layers}


def test_module_entry_point_warns_nothing(files):
    # runpy warns when the module it runs as __main__ is already in sys.modules:
    # the package never registers cli
    proc = python("-W", "error::RuntimeWarning", "-m", "povmcoh.cli", "compute", "--state", "state.json",
                  "--povm", "z.json", "--measure", "l1", cwd=files)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["measure"] == "l1"


RACE = """
import sys, threading
import povmcoh

barrier, failures = threading.Barrier(8), []


def first_access():
    barrier.wait()
    try:
        povmcoh.bounds.pair_bounds
    except BaseException as exc:
        failures.append(repr(exc))


threads = [threading.Thread(target=first_access) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
sys.exit(repr(failures) if failures else 0)
"""


def test_threads_racing_on_a_first_access_all_see_the_whole_layer():
    # the first thread runs bounds (and the numpy import under it) while seven wait on
    # the lock; each interpreter is fresh, so each one races on a layer that has not
    # run.  Two interpreters run at a time.
    for _ in range(10):
        procs = [subprocess.Popen([sys.executable, "-c", RACE], env=ENV, stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
