"""The measurement scripts under `scripts/`, their timing harness and their
BENCH files.  Nothing here runs a measurement or starts a process: the scripts
are only imported, which must run nothing."""

import importlib
import json
import operator
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
BENCHES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def modules():
    """The harness and every script, by module name.  Importing the harness
    sets the BLAS pool and the path; this process gets its own back."""
    environ, path = dict(os.environ), list(sys.path)
    written = {bench: bench.stat().st_mtime_ns for bench in BENCHES}
    sys.path.insert(0, str(SCRIPTS))
    try:
        loaded = {script.stem: importlib.import_module(script.stem)
                  for script in sorted(SCRIPTS.glob("*.py"))}
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    assert written == {bench: bench.stat().st_mtime_ns for bench in BENCHES}
    return loaded


@pytest.fixture(scope="module")
def harness(modules):
    return modules["harness"]


def test_each_script_has_its_bench_file_and_each_bench_file_its_script():
    scripts = {script.stem.removeprefix("time_") for script in SCRIPTS.glob("time_*.py")}
    assert scripts
    assert scripts == {bench.stem.removeprefix("BENCH_") for bench in BENCHES}


def test_scripts_import_without_running(modules):
    # the fixture checked that importing wrote no BENCH file; the work is in main
    scripts = [name for name in modules if name.startswith("time_")]
    assert len(scripts) == len(BENCHES)
    assert all(callable(modules[name].main) for name in scripts)


@pytest.mark.parametrize("bench", BENCHES, ids=lambda bench: bench.name)
def test_bench_host_record_carries_the_harness_keys(bench, harness):
    assert set(json.loads(bench.read_text())["host"]) == set(harness.host())


def logging_side(order, name, seconds):
    def run():
        order.append(name)
        return seconds, 0.5
    return run


def test_paired_alternates_which_side_runs_first(harness):
    order = []
    record, values = harness.paired(
        {"fast": logging_side(order, "fast", 1.0), "oracle": logging_side(order, "oracle", 3.0)},
        4, operator.eq, "constant")
    assert order == ["fast", "oracle", "oracle", "fast"] * 2
    assert values == {"fast": 0.5, "oracle": 0.5}
    assert record == {"fast_cpu_s": 1.0, "oracle_cpu_s": 3.0, "speedup": 3.0,
                      "fast_faster_in": 4, "rounds": 4,
                      "fast_samples_s": [1.0] * 4, "oracle_samples_s": [3.0] * 4}


def test_paired_rotates_three_sides(harness):
    order = []
    harness.paired({name: logging_side(order, name, 1.0) for name in "abc"}, 4, operator.eq,
                   "constant")
    assert order[::3] == ["a", "b", "c", "a"]
    assert sorted(order) == sorted("abc" * 4)


def test_paired_raises_on_a_planted_disagreement(harness):
    sides = {"fast": lambda: (1.0, 0.1 + 0.2), "oracle": lambda: (1.0, 0.3)}
    with pytest.raises(harness.Disagreement, match="sum: fast and oracle disagree in round 0"
                       ) as failure:
        harness.paired(sides, 3, operator.eq, "sum")
    assert isinstance(failure.value.code, str)  # the exit status is 1


def test_bits_equal_tells_signed_zeros_and_fallbacks_apart(harness):
    grid = np.array([[0.0, 1.5]])
    assert harness.bits_equal(grid.copy(), grid)
    assert not harness.bits_equal(np.array([[-0.0, 1.5]]), grid)  # equal, but not bit for bit
    assert not harness.bits_equal(None, grid)


def test_page_fault_summary_splits_first_and_steady_ops(modules):
    # two runs of two inputs: (cpu, sys, faults, digest) per op, one round after the first
    runs = [[(0.5, 0.25, 900, "a"), (2.0, 1.0, 5, "b"), (0.25, 0.0, 1, "a"), (0.75, 0.0, 3, "b")],
            [(1.0, 0.75, 700, "a"), (2.0, 1.0, 7, "b"), (0.25, 0.0, 0, "a"), (0.25, 0.0, 2, "b")]]
    assert modules["time_page_faults"].summary(runs, 2) == {
        "first_op_faults": 800, "first_op_cpu_s": 0.75, "first_op_sys_s": 0.5,
        "steady_op_faults": 1.5, "steady_op_cpu_s": 0.25, "steady_op_sys_s": 0.0}


def test_page_fault_bench_shows_the_allocator_policy():
    # steady-state ops fault in next to no fresh pages under the CLI's policy
    rows = {(row["op"], row["setting"]): row
            for row in json.loads((ROOT / "BENCH_page_faults.json").read_text())["rows"]}
    for op, most in (("observe", 50), ("modes", 100)):
        policy, default = rows[op, "policy"], rows[op, "no_policy"]
        assert policy["steady_op_faults"] <= min(most, default["steady_op_faults"])
        assert policy["first_op_faults"] < default["first_op_faults"]
    # with glibc's defaults every observe op faults its large temporaries in afresh
    assert rows["observe", "no_policy"]["steady_op_faults"] > 1000


def test_import_bench_shows_the_blas_policy():
    # on a pool of more than one thread, OpenBLAS's default busy-wait costs CPU at import
    bench = json.loads((ROOT / "BENCH_import.json").read_text())
    assert bench["host"]["blas_threads"] > 1
    assert bench["host"]["blas_thread_timeout"] == "4"
    cli = {json.dumps(row["env"]): row["cpu_s"]["median"]
           for row in bench["rows"] if row["statement"] == "import memwave.cli"}
    assert set(cli) == {"{}", '{"OPENBLAS_THREAD_TIMEOUT": "28"}'}
    assert cli["{}"] < cli['{"OPENBLAS_THREAD_TIMEOUT": "28"}']


def test_sine_coefficient_bench_shows_products_beat_the_fft():
    # at the modes workload's kmax the FFT's length 4 * 193 has a prime factor
    # of 193, and the two products beat it with the table made or cached
    rows = {row["kmax"]: row
            for row in json.loads((ROOT / "BENCH_sine_coefficients.json").read_text())["rows"]}
    row = rows[192]
    assert row["products_cpu_s"] < row["products_new_table_cpu_s"] < row["fft_cpu_s"]
    assert all(each["max_difference_over_bound"] <= 1.0 for each in rows.values())
