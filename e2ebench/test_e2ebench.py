"""The benchmark's own checks.

Run from the repository root with::

    PYTHONPATH=src python -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from repro import DistributedArray  # noqa: E402
from repro.pcn import composition  # noqa: E402
from repro.spmd import collectives  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, NullProbe, Tally  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GATED = {w["name"] for w in BENCHMARK["workloads"]}
# Not one of the seeds the run length and sizes were tuned on.
UNTUNED_SEED = 9173


def _result(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_leaves_the_machine_bare(name):
    wl = WORKLOADS[name](UNTUNED_SEED)
    assert wl.setup()
    originals = (
        DistributedArray.__getitem__, collectives.allreduce, composition.par,
    )
    machine = wl.rt.machine
    with Tracer(wl) as tracer:
        assert len(machine.transport_stack) == 1
        assert machine.observer is not None
        wl.run(0.0, Tally())  # past deadline: no units, shims still installed
    assert len(machine.transport_stack) == 0
    assert machine.observer is None
    assert "call" not in vars(wl.rt)
    assert isinstance(wl.probe, NullProbe)
    assert originals == (
        DistributedArray.__getitem__, collectives.allreduce, composition.par,
    )
    assert tracer.spans.dropped == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untuned_seed_is_correct_and_reports_every_metric(name, capsys):
    plain = _result(
        capsys, "--workload", name, "--seed", str(UNTUNED_SEED),
        "--seconds", "1", "--trace", "0",
    )
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = _result(
        capsys, "--workload", name, "--seed", str(UNTUNED_SEED),
        "--seconds", "1", "--trace", "1",
    )
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    if name in GATED:
        # A time that reads 0 on every run would look like a constant.
        times = {n for n, u in LAYER_UNITS.items() if u in ("ms", "us", "s")}
        assert all(traced["metrics"][n]["value"] > 0 for n in times)


def test_benchmark_json_units_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS
    assert GATED <= set(WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    a, b = WORKLOADS["element_mix"](7), WORKLOADS["element_mix"](7)
    assert (a.initial == b.initial).all()
    assert list(a._chunk()) == list(b._chunk())
    assert not (a.initial == WORKLOADS["element_mix"](8).initial).all()


def test_missing_program_source_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "stencil", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
