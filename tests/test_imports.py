"""scipy stays off the import path of memwave and of every theta = 1 run.

Each golden CLI case runs in one fresh interpreter through
`parse_and_dispatch`.  Until the first case with --theta, no `scipy` module
may be loaded, not even by `import memwave, memwave.cli`; the theta != 1
cases must then load `scipy.special` (for zeta) and still write their golden
bytes.
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

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import memwave, memwave.cli
assert not scipy_modules(), ("import", scipy_modules())
cases, golden, out = json.loads(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
for name, argv in cases:
    theta = "--theta" in argv
    status = memwave.cli.parse_and_dispatch(argv + ["--output", str(out / name)])
    assert status == 0, (name, status)
    assert (out / name).read_bytes() == (golden / f"{name}.out").read_bytes(), name
    if theta:
        assert "scipy.special" in sys.modules, name
    else:
        assert not scipy_modules(), (name, scipy_modules())
print("ok")
"""


def test_scipy_is_imported_only_for_theta_other_than_one(tmp_path):
    # theta = 1 cases first, so each one is checked with scipy still unloaded.
    cases = sorted(([name, [arg.format(dir=GOLDEN) for arg in argv]]
                    for name, argv in CASES.items()),
                   key=lambda case: ("--theta" in case[1], case[0]))
    assert {argv[0] for name, argv in cases if "--theta" not in argv} >= {
        "observe", "modes", "spectrum", "gaps", "thresholds"}
    assert any(argv[0] == "thresholds" and "--theta" in argv for name, argv in cases)
    src = str(Path(memwave.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(cases), str(GOLDEN), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
