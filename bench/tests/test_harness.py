"""Tests of the benchmark itself: span arithmetic, the tail rule, the checks.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402

FAKE_SOURCE = '''
def outer():
    advance(10)
    inner()
    advance(5)
    fact(3)

def inner():
    advance(7)

def fact(n):
    advance(1)
    return 1 if n <= 1 else n * fact(n - 1)

def noisy():
    advance(2)

def _private():
    advance(100)
'''


@pytest.fixture
def fake_package(monkeypatch):
    """A package `fakepkg` whose module `fakepkg.mod` runs on a fake clock."""
    now = [0]

    def advance(ticks):
        now[0] += ticks

    module = types.ModuleType("fakepkg.mod")
    module.advance = advance
    exec(FAKE_SOURCE, module.__dict__)
    package = types.ModuleType("fakepkg")
    package.outer = module.outer  # a re-export, as memwave/__init__.py does
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", module)
    return package, module, (lambda: now[0])


def test_self_time_of_nested_and_recursive_spans(fake_package):
    package, module, clock = fake_package
    tracer = Tracer(clock=clock)
    installed = tracer.install("fakepkg", counters={}, skip={"mod.noisy"})
    assert installed == ["mod.fact", "mod.inner", "mod.outer"]
    assert package.outer is module.outer  # one wrapper in every namespace

    package.outer()
    spans = tracer.take()
    assert [(s[0], s[1], s[2]) for s in spans] == [
        ("mod.outer", 0, 25), ("mod.inner", 10, 17), ("mod.fact", 22, 25)]
    assert self_times(spans) == [15, 7, 3]
    table = aggregate(spans, seconds_per_tick=1.0)
    assert table["mod.fact"]["calls"] == 1  # only the outermost recursive call
    assert table["mod.outer"]["self_s"] == 15.0
    assert module.fact(2) == 2 and module.fact.__wrapped__  # wrapper restored after recursion
    assert tracer.take()[0][0] == "mod.fact"
    assert not hasattr(module.noisy, "__wrapped__")

    tracer.attach(False)
    package.outer()
    assert not hasattr(package.outer, "__wrapped__") and tracer.take() == []
    tracer.attach(True)
    assert package.outer is module.outer and package.outer.__wrapped__


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0, 100, -1, 0], ["a", 10, 50, 0, 0], ["b", 30, 70, 0, 0],
             ["c", 90, 120, 0, 0]]
    assert self_times(spans)[0] == 100 - 60 - 10


@pytest.mark.parametrize("n, value, percentile", [(30, 20, 200 / 3), (1000, 990, 99.0),
                                                  (11, 1, 100 / 11), (5, 1, 20.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    samples = list(range(n, 0, -1))
    got, pct, beyond = run.tail_latency(samples)
    assert got == value and pct == pytest.approx(percentile)
    assert beyond == sum(s > got for s in samples)


def test_every_per_layer_metric_resolves_or_is_absent():
    names = [m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    spans = {"ingham.exp_integral": {"calls": 2, "s": 0.5, "self_s": 0.5, "count": 1000},
             "cli.parse_and_dispatch": {"calls": 1, "s": 1.0, "self_s": 0.5, "count": 0}}
    traced = [{"wall": 1.0, "spans": spans}]
    installed = set(spans) | {f"{m}.f" for m in run.MODULES}
    extra = {name: 1.0 for name in names if name.endswith(".import_s") or name.startswith("trace.")
             or name in ("cli.in_bytes", "cli.out_bytes", "cli.serialize_mb_per_s")}
    values = {name: run.layer_value(name, traced, installed, extra) for name in names}
    assert values["ingham.exp_integral.ns_per_element"] == pytest.approx(5e5)
    assert values["cli.share"] == 0.5
    assert values["observability.boundary_trace_energy.s"] is None  # not installed: absent
    assert all(v is None or type(v) in (int, float) for v in values.values())


def _run_op(slot, tmp_path):
    from memwave.cli import parse_and_dispatch

    out = tmp_path / "out.json"
    assert parse_and_dispatch(slot.argv(out)) == 0
    return out.read_text()


def _bump_digit(text: str, key: str, skip: int = 2) -> str:
    """Change the digit `skip` digits into the number that follows `key`."""
    pos = text.index(f'"{key}": ') + len(key) + 4
    while skip or not text[pos].isdigit():
        skip -= text[pos].isdigit()
        pos += 1
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]


def _fails(slot, text: str, ledger=None) -> float:
    ledger = ledger or run.Ledger()
    ledger.record(0, 0, text.encode(), slot.check)
    return ledger.fail_ratio


def test_corrupted_observe_lhs_is_caught(tmp_path):
    (slot,) = workloads.observe_slots(np.random.default_rng(5), tmp_path, kmax=8, pool=1)
    text = _run_op(slot, tmp_path)
    ledger = run.Ledger()
    assert _fails(slot, text, ledger) == 0.0
    corrupted = _bump_digit(text, "lhs")
    assert corrupted != text
    assert _fails(slot, corrupted) == 1.0
    assert "lhs" in slot.check(corrupted.encode())
    assert _fails(slot, corrupted, ledger) == 0.5  # also differs from the first output


def test_dropped_or_altered_modes_record_is_caught(tmp_path):
    (slot,) = workloads.modes_slots(np.random.default_rng(6), tmp_path, kmax=8, pool=1)
    text = _run_op(slot, tmp_path)
    assert _fails(slot, text) == 0.0
    records = json.loads(text)
    assert _fails(slot, json.dumps(records[:17] + records[18:])) == 1.0
    assert _fails(slot, _bump_digit(text, "C_re")) == 1.0


def test_corrupted_gap_extremum_is_caught(tmp_path):
    (slot,) = workloads.gaps_slots(np.random.default_rng(7), tmp_path, kmax=16, pool=1)
    text = _run_op(slot, tmp_path)
    assert _fails(slot, text) == 0.0
    assert _fails(slot, _bump_digit(text, "min_ratio_k1", skip=5)) == 1.0


def test_failed_exit_counts_without_reading_output():
    ledger = run.Ledger()
    assert not ledger.record(0, 2, None, lambda output: pytest.fail("checked"))
    assert ledger.fail_ratio == 1.0


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "gaps", "--seed", "3", "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["gap_analysis.share"]["value"] > 0.5
    assert not any(m.get("absent") for m in result["metrics"].values())


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "modes", "--seed", "3", "--seconds", "0.01", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0  # warm-up + 1
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for name in run.UNBOUNDED:
        assert any(line.startswith(f"{name} = ") for line in lines[:-1])
