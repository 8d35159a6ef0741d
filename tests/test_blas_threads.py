"""The trace energy does not depend on the BLAS thread count.

Its matrix products are small enough to stay on one BLAS thread, whatever
the pool size.  Each run below is a fresh interpreter with
OPENBLAS_NUM_THREADS fixed before numpy loads: it writes every `observe`
golden case and the trace energy of a kmax 160 expansion, and the bytes must
not depend on the thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import memwave
from test_golden import CASES, GOLDEN

SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np
import memwave.cli
from memwave import InitialData, KernelParams, boundary_trace_energy, expand

cases, out = json.loads(sys.argv[1]), Path(sys.argv[2])
for name, argv in cases:
    assert memwave.cli.parse_and_dispatch(argv + ["--output", str(out / name)]) == 0, name
rng = np.random.default_rng(160)
data = InitialData(a=rng.normal(size=(160, 160)), b=rng.normal(size=(160, 160)), kmax=160)
energy = boundary_trace_energy(expand(KernelParams.limiting_regime(0.01), data), 50.0)
(out / "energy").write_text(energy.hex())
"""


def test_observe_bytes_do_not_depend_on_blas_threads(tmp_path):
    cases = [[name, [arg.format(dir=GOLDEN) for arg in argv]]
             for name, argv in sorted(CASES.items()) if argv[0] == "observe"]
    assert len(cases) >= 3
    src = str(Path(memwave.__file__).resolve().parents[1])
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(cases), str(out)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        written[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert written["1"] == written["2"]
    for name, _ in cases:
        assert written["1"][name] == (GOLDEN / f"{name}.out").read_bytes(), name
