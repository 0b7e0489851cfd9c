"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from stats import MIN_TAIL, percentile  # noqa: E402
from tracer import LayerTracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _emitted_names():
    outcome = workloads.Outcome()
    outcome.record(True, "probe")
    e2e = workloads.end_to_end(1.0, 1.0, [0.1] * 200, 1.0, outcome)
    layer = workloads.per_layer(LayerTracer(), {}, 1.0, 1.0)
    return set(e2e), set(layer)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    e2e, layer = _emitted_names()
    spec = _benchmark_json()
    for name in e2e | layer | {w["name"] for w in spec["workloads"]}:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64, name
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    assert layer == {m["name"] for m in spec["per_layer"]}


def _attribute(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)


def _tiny_sim():
    from repro.sim.config import ScaleProfile, SystemConfig
    from repro.sim.runner import run_mix
    from repro.traces.mixes import homogeneous_mix, make_mix
    cfg = SystemConfig.from_profile(2, ScaleProfile.smoke(),
                                    llc_policy="hawkeye", seed=3)
    traces = make_mix(homogeneous_mix("mcf", 2), cfg, 300, seed=3)
    result = run_mix(cfg, traces, alone_ipc_cache={t.name: 1.0
                                                   for t in traces})
    from repro.sim.report import mix_to_dict
    return mix_to_dict(result)


def test_tracer_restores_every_wrapped_function():
    tracer = LayerTracer()
    with tracer:
        patched = tracer.patched
        originals = [(owner, name, original)
                     for owner, name, original in patched]
        assert len(patched) > 20
        for owner, name, original in originals:
            assert _attribute(owner, name) is not original
        _tiny_sim()
    assert tracer.patched == []
    for owner, name, original in originals:
        assert _attribute(owner, name) is original, (owner, name)
    assert tracer.calls["sim.run"] > 0
    assert tracer.calls["hierarchy.demand"] > 0
    assert tracer.self_s["llc"] > 0


def test_tracer_restores_after_an_exception():
    from repro.sim.simulator import Simulator
    original = Simulator.__dict__["run"]
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert Simulator.__dict__["run"] is not original
            raise RuntimeError("boom")
    assert Simulator.__dict__["run"] is original


def test_traced_simulation_matches_untraced():
    plain = _tiny_sim()
    with LayerTracer():
        traced = _tiny_sim()
    assert traced == plain


def test_percentile_needs_ten_samples_beyond_it():
    assert MIN_TAIL == 10
    assert percentile(list(range(200)), 95) == 189
    assert percentile(list(range(199)), 95) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None


def test_inputs_follow_the_seed():
    assert workloads.paper_spec(5) == workloads.paper_spec(5)
    assert workloads.filtered_spec(5) == workloads.filtered_spec(5)
    assert workloads.paper_spec(5) != workloads.paper_spec(6)
    for spec in (workloads.paper_spec(9), workloads.filtered_spec(9)):
        assert spec["seed"] == 9
        workloads.Sweep.build(spec, prefetch=True)  # validates
