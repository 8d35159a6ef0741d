"""The BLAS policy of a process, and results that do not depend on the pool.

Importing `memwave` before numpy loads defaults OPENBLAS_THREAD_TIMEOUT to 4,
and the first `parse_and_dispatch` pins the BLAS pool to one thread.  A
library caller keeps the pool it asked for: the trace energy's matrix
products are small enough to stay on one BLAS thread whatever the pool size,
but the sine coefficients' products of a large grid are split, and their
last bits may then depend on the pool.  Each run below is a fresh interpreter
with OPENBLAS_NUM_THREADS fixed before numpy loads: as a library caller,
under that pool, it computes the sine coefficients of a kmax 160 grid and the
trace energy of a kmax 160 expansion; it then writes every `observe` and
`modes` golden case through the CLI, and computes the sine coefficients again
under the pinned pool.  The CLI's bytes must not depend on the thread count,
and the coefficients under either pool must lie within
`sine_coefficient_bound` of the pinned ones.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memwave
from conftest import sine_coefficient_bound
from test_golden import CASES, GOLDEN

SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np
import memwave.cli
from memwave import InitialData, KernelParams, boundary_trace_energy, expand, sine_coefficients

cases, out = json.loads(sys.argv[1]), Path(sys.argv[2])
rng = np.random.default_rng(160)
np.save(out / "grid.npy", rng.normal(size=(321, 321)))
np.save(out / "pool.npy", sine_coefficients(np.load(out / "grid.npy"), 160))
data = InitialData(a=rng.normal(size=(160, 160)), b=rng.normal(size=(160, 160)), kmax=160)
energy = boundary_trace_energy(expand(KernelParams.limiting_regime(0.01), data), 50.0)
(out / "energy").write_text(energy.hex())
for name, argv in cases:  # the first pins the pool to one thread
    assert memwave.cli.parse_and_dispatch(argv + ["--output", str(out / name)]) == 0, name
np.save(out / "pinned.npy", sine_coefficients(np.load(out / "grid.npy"), 160))
"""

#: Prints the BLAS pool after `import memwave.cli` and after one
#: `parse_and_dispatch`, or "absent" for a BLAS that reports no pool.
POOL = """
import ctypes
import memwave.cli as cli

get = cli._blas_function(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"))
if get is None:
    print("absent")
else:
    get.argtypes, get.restype = [], ctypes.c_int
    pools = [get()]
    cli.parse_and_dispatch([])  # no subcommand: exit status 2, after the policy is set
    print(pools + [get()])
"""

#: Runs one `spectrum` op with numpy's core extension replaced by a module
#: whose file is no shared library, as where the extension cannot be loaded
#: by its path: prints the op's exit status and the BLAS pool before and after.
UNLOADABLE = """
import ctypes, types
import memwave.cli as cli

get = cli._blas_function(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"))
cli._multiarray_umath = types.SimpleNamespace(__file__=cli.__file__)
assert cli._blas_function(cli._BLAS_SET_THREADS) is None
status = cli.parse_and_dispatch(["spectrum", "--beta", "0.4", "--eta", "0.6", "--kmax", "3"])
if get is None:
    print([status])
else:
    get.argtypes, get.restype = [], ctypes.c_int
    print([status, get()])
"""

SRC = str(Path(memwave.__file__).resolve().parents[1])


def run_fresh(code: str, **env: str) -> str:
    """The stdout of `code` in a fresh interpreter, with no OPENBLAS_THREAD_TIMEOUT
    in its environment unless `env` gives one."""
    environ = {name: value for name, value in os.environ.items()
               if name != "OPENBLAS_THREAD_TIMEOUT"}
    result = subprocess.run([sys.executable, "-c", code],
                            env={**environ, "PYTHONPATH": SRC, **env},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("statement, env, timeout", [
    ("import memwave", {}, "4"),
    ("import memwave", {"OPENBLAS_THREAD_TIMEOUT": "10"}, "10"),  # the user's value wins
    ("import numpy, memwave", {}, None),  # too late for OpenBLAS to read it: left unset
])
def test_import_defaults_the_openblas_thread_timeout(statement, env, timeout):
    code = "\n".join([statement, "import json, os",
                      "print(json.dumps(os.environ.get('OPENBLAS_THREAD_TIMEOUT')))"])
    assert json.loads(run_fresh(code, **env)) == timeout


def test_cli_pins_the_blas_pool_to_one_thread():
    out = run_fresh(POOL, OPENBLAS_NUM_THREADS="2")
    if out == "absent\n":
        pytest.skip("numpy's BLAS exports no thread-count getter")
    assert json.loads(out) == [2, 1]


def test_observe_bytes_do_not_depend_on_blas_threads(tmp_path):
    cases = [[name, [arg.format(dir=GOLDEN) for arg in argv]]
             for name, argv in sorted(CASES.items()) if argv[0] in ("observe", "modes")]
    assert len(cases) >= 4 and "modes" in dict(cases)
    written, coefficients = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(cases), str(out)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        coefficients[threads] = {name: np.load(out / f"{name}.npy")
                                 for name in ("grid", "pool", "pinned")}
        written[threads] = {path.name: path.read_bytes() for path in out.iterdir()
                            if path.suffix != ".npy"}
    assert written["1"] == written["2"]
    for name, _ in cases:
        assert written["1"][name] == (GOLDEN / f"{name}.out").read_bytes(), name
    bound = sine_coefficient_bound(coefficients["1"]["grid"], 160)
    for threads, arrays in coefficients.items():
        assert np.array_equal(arrays["pinned"], coefficients["1"]["pinned"]), threads
        assert np.all(np.abs(arrays["pool"] - arrays["pinned"]) <= bound), threads


def test_cli_runs_where_the_blas_setter_cannot_be_looked_up():
    # the op exits 0 and, where a getter is found, the pool is left as it was
    status = json.loads(run_fresh(UNLOADABLE, OPENBLAS_NUM_THREADS="2").splitlines()[-1])
    assert status in ([0], [0, 2])
