"""One unit executor: a serial sweep and a degraded pool both finish
their units on the scheduler's in-process tail.

That tail generates each distinct ``(cores, trace name)`` once per run
and shares it across units; these tests count the builds in the parent
process, check that results equal a fault-free serial sweep, and pin a
digest of the sweep's unit keys so an engine refactor cannot silently
change every result-cache key.
"""

import hashlib
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.experiments.common import ExperimentProfile
from repro.experiments.engine import SweepEngine
from repro.experiments.faults import FaultPlan
from repro.experiments.retry import RetryPolicy
from repro.obs import RunManifest
from repro.obs import events as obs_events
from repro.obs.manifest import read_manifest
from repro.sim.config import ScaleProfile
from repro.traces import mixes
from repro.traces.mixes import mix_trace_name

TINY_SCALE = ScaleProfile("tiny", llc_sets_per_slice=32, l2_sets=16,
                          l1_sets=8, accesses_per_core=1500)

#: sha256 over the newline-joined, sorted ``key`` fields of the tiny
#: serial sweep's ``unit`` events (4 alone + 10 cell units).  A change
#: here invalidates every user's result cache.
UNIT_KEY_DIGEST = \
    "c1816aebdcc7ff9f057a69074eb246dc591cadd31b868fa12daba6dea15bac99"


@pytest.fixture(autouse=True)
def _clean_listeners():
    obs_events.clear()
    yield
    obs_events.clear()


@pytest.fixture(scope="module")
def tiny():
    return ExperimentProfile(scale=TINY_SCALE, core_counts=(2,),
                             num_homogeneous=1, num_heterogeneous=1,
                             seed=3)


@contextmanager
def counting_builds():
    """Yields a callable counting every ``(cores, trace name)`` built
    in this process so far."""
    pairs = []
    real = mixes.build_trace

    def counting(*args, **kwargs):
        trace = real(*args, **kwargs)
        pairs.append((kwargs["num_slices"], trace))
        return trace

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixes, "build_trace", counting)
        # make_mix_trace names the trace after build_trace returns, so
        # the names are read once the sweep is over.
        yield lambda: Counter((cores, trace.name)
                              for cores, trace in pairs)


def distinct_traces(profile):
    return {(cores, mix_trace_name(w, profile.seed, i,
                                   spec=mix.resolve(w)))
            for cores in profile.core_counts
            for mix in profile.mixes(cores)
            for i, w in enumerate(mix.workloads)}


def run(profile, path, **engine_args):
    engine = SweepEngine(manifest=RunManifest(path), **engine_args)
    matrix = engine.run(profile)
    return matrix, engine.last_stats, read_manifest(path)


def assert_matrices_equal(a, b):
    assert set(a.results) == set(b.results)
    for key, res_a in a.results.items():
        res_b = b.results[key]
        assert res_a.ws == res_b.ws, key
        assert res_a.mpki == res_b.mpki, key
        assert res_a.wpki == res_b.wpki, key
        assert res_a.ipc_together == res_b.ipc_together, key
        assert res_a.ipc_alone == res_b.ipc_alone, key


@pytest.fixture(scope="module")
def serial(tiny, tmp_path_factory):
    """(matrix, stats, events, build counts) of a fault-free serial
    sweep."""
    with counting_builds() as built:
        return (*run(tiny, tmp_path_factory.mktemp("serial") / "m.jsonl"),
                built())


class TestSerialRun:
    def test_each_trace_built_once(self, tiny, serial):
        counts = serial[3]
        assert set(counts) == distinct_traces(tiny)
        assert max(counts.values()) == 1

    def test_no_pool_events_and_one_worker(self, serial):
        _matrix, stats, events, _counts = serial
        assert not [e for e in events if e["event"].startswith("pool_")]
        assert stats.workers == 1
        assert stats.pool_respawns == 0
        start = next(e for e in events if e["event"] == "sweep_start")
        assert start["workers"] == 1
        assert events[-1]["event"] == "sweep_end"
        assert events[-1]["workers"] == 1
        assert events[-1]["status"] == "ok"

    def test_unit_keys_pinned(self, serial):
        _matrix, stats, events, _counts = serial
        keys = sorted(e["key"] for e in events if e["event"] == "unit")
        assert len(keys) == stats.total_units == 14
        digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert digest == UNIT_KEY_DIGEST


class TestDegradedPool:
    def test_each_trace_built_once_and_results_match(self, tiny, serial,
                                                     tmp_path):
        # Every alone unit kills its worker on the first try and no
        # respawn is allowed, so the pool degrades before any unit
        # completes and the whole sweep finishes in this process.
        with counting_builds() as built:
            matrix, stats, events = run(
                tiny, tmp_path / "m.jsonl", parallel=True, max_workers=2,
                retry=RetryPolicy(base_delay=0.0, jitter=0.0,
                                  max_pool_respawns=0),
                faults=FaultPlan.parse("alone:*|kill|1"))
            counts = built()
        assert set(counts) == distinct_traces(tiny)
        assert max(counts.values()) == 1
        assert_matrices_equal(matrix, serial[0])
        assert stats.pool_respawns == 0
        assert [e["event"] for e in events
                if e["event"].startswith("pool_")] == ["pool_degraded"]
        assert events[-1]["status"] == "ok"
