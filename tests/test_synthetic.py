"""Tests for the synthetic workload engine."""

import copy
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.cache.slice_hash import SliceHash
from repro.traces.mixes import resolve_workload
from repro.traces.synthetic import (
    PCClassSpec,
    SyntheticWorkload,
    WorkloadSpec,
    build_trace,
)


def spec_of(classes, apki=30.0, affinity=0.5, skew=0.5, name="w"):
    return WorkloadSpec(name=name, apki=apki, slice_affinity=affinity,
                        set_skew_band=skew, classes=tuple(classes))


def single_class_spec(pattern, affinity=0.0, skew=1.0, in_band=False,
                      pool_frac=0.5, phase_len=0, count=2):
    cls = PCClassSpec(pattern, count=count, pool_frac=pool_frac,
                      weight=1.0, in_skew_band=in_band,
                      phase_len=phase_len)
    return spec_of([cls], affinity=affinity, skew=skew)


class TestSpecValidation:
    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            PCClassSpec("bogus", count=1, pool_frac=1.0, weight=1.0)

    def test_phased_needs_phase_len(self):
        with pytest.raises(ValueError):
            PCClassSpec("phased", count=1, pool_frac=1.0, weight=1.0)

    def test_bad_apki(self):
        with pytest.raises(ValueError):
            spec_of([PCClassSpec("cyclic", 1, 1.0, 1.0)], apki=0)

    def test_bad_affinity(self):
        with pytest.raises(ValueError):
            spec_of([PCClassSpec("cyclic", 1, 1.0, 1.0)], affinity=1.5)

    def test_empty_classes(self):
        with pytest.raises(ValueError):
            WorkloadSpec("w", 30.0, 0.5, 0.5, ())


class TestGeneration:
    def test_trace_length(self):
        spec = single_class_spec("cyclic")
        tr = build_trace(spec, 1024, 4, 64, 500, seed=0)
        assert len(tr) == 500

    def test_deterministic(self):
        spec = single_class_spec("cyclic")
        a = build_trace(spec, 1024, 4, 64, 300, seed=5)
        b = build_trace(spec, 1024, 4, 64, 300, seed=5)
        assert [x.address for x in a] == [x.address for x in b]

    def test_seed_changes_trace(self):
        spec = single_class_spec("cyclic")
        a = build_trace(spec, 1024, 4, 64, 300, seed=1)
        b = build_trace(spec, 1024, 4, 64, 300, seed=2)
        assert [x.address for x in a] != [x.address for x in b]

    def test_apki_roughly_honoured(self):
        spec = single_class_spec("cyclic")
        spec = WorkloadSpec(spec.name, 20.0, spec.slice_affinity,
                            spec.set_skew_band, spec.classes)
        tr = build_trace(spec, 1024, 4, 64, 5000, seed=0)
        assert tr.stats.accesses_per_kilo_instr == pytest.approx(20.0,
                                                                 rel=0.2)

    def test_chase_accesses_dependent(self):
        spec = single_class_spec("chase")
        tr = build_trace(spec, 1024, 4, 64, 100, seed=0)
        assert all(acc.dependent for acc in tr)

    def test_stream_is_sequential(self):
        cls = PCClassSpec("stream", count=1, pool_frac=8.0, weight=1.0)
        spec = spec_of([cls], affinity=0.0, skew=1.0)
        tr = build_trace(spec, 1024, 4, 64, 100, seed=0)
        blocks = [acc.block for acc in tr]
        assert all(b2 == b1 + 1 for b1, b2 in zip(blocks, blocks[1:]))

    def test_cyclic_repeats_working_set(self):
        cls = PCClassSpec("cyclic", count=1, pool_frac=0.05, weight=1.0)
        spec = spec_of([cls])
        tr = build_trace(spec, 1024, 4, 64, 500, seed=0)
        unique = {acc.block for acc in tr}
        assert len(unique) <= 52  # 0.05 * 1024 + rounding

    def test_write_fraction(self):
        cls = PCClassSpec("cyclic", count=1, pool_frac=0.1, weight=1.0,
                          write_frac=0.5)
        spec = spec_of([cls])
        tr = build_trace(spec, 1024, 4, 64, 2000, seed=0)
        assert tr.stats.write_fraction == pytest.approx(0.5, abs=0.08)


class TestSliceAffinity:
    def test_affine_pcs_stay_on_one_slice(self):
        spec = single_class_spec("cyclic", affinity=1.0)
        workload = SyntheticWorkload(spec, 1024, num_slices=8,
                                     num_sets=64, seed=0)
        sh = SliceHash(8)
        for beh in workload.behaviors:
            slices = {sh.slice_of(int(b)) for b in beh.pool}
            assert len(slices) == 1

    def test_zero_affinity_scatters(self):
        spec = single_class_spec("cyclic", affinity=0.0, pool_frac=1.0)
        workload = SyntheticWorkload(spec, 1024, num_slices=8,
                                     num_sets=64, seed=0)
        sh = SliceHash(8)
        for beh in workload.behaviors:
            slices = {sh.slice_of(int(b)) for b in beh.pool}
            assert len(slices) > 1


class TestSkewBand:
    def test_band_pools_confined_to_band(self):
        spec = single_class_spec("scan", skew=0.25, in_band=True)
        workload = SyntheticWorkload(spec, 1024, num_slices=4,
                                     num_sets=64, seed=0)
        for beh in workload.behaviors:
            sets = {int(b) & 63 for b in beh.pool}
            assert len(sets) <= 16  # 25% of 64


class TestPhased:
    def test_phases_alternate_pools(self):
        cls = PCClassSpec("phased", count=1, pool_frac=0.05, weight=1.0,
                          phase_len=10, averse_mult=4.0)
        spec = spec_of([cls])
        workload = SyntheticWorkload(spec, 1024, num_slices=2,
                                     num_sets=64, seed=0)
        beh = workload.behaviors[0]
        friendly = {int(b) for b in beh.pool}
        first_phase = {beh.next_block() for _ in range(10)}
        second_phase = {beh.next_block() for _ in range(10)}
        assert first_phase <= friendly
        assert not (second_phase & friendly)

    def test_averse_pool_larger(self):
        cls = PCClassSpec("phased", count=1, pool_frac=0.05, weight=1.0,
                          phase_len=10, averse_mult=6.0)
        spec = spec_of([cls])
        workload = SyntheticWorkload(spec, 1024, num_slices=2,
                                     num_sets=64, seed=0)
        beh = workload.behaviors[0]
        assert len(beh.averse_pool) >= 4 * len(beh.pool)


def reference_draw_count(self, size, home_slice, skew_band):
    """Candidates the rejection sampler draws for one pool."""
    accept_rate = 1.0
    if home_slice is not None:
        accept_rate /= self.num_slices
    if skew_band is not None:
        lo, hi = skew_band
        accept_rate *= (hi - lo) / self.num_sets
    needed = int(size / max(accept_rate, 1e-6) * 2) + 64
    return min(needed, 4_000_000)


def reference_sample_pool(self, size, home_slice, skew_band, contiguous):
    """``SyntheticWorkload._sample_pool`` as it was before band-first
    filtering: hash every candidate, then mask by set band."""
    base = self._alloc_region()
    if contiguous and home_slice is None and skew_band is None:
        return np.arange(base, base + size, dtype=np.uint64)
    needed = reference_draw_count(self, size, home_slice, skew_band)
    candidates = base + self._rng.integers(
        0, self.REGION_ALIGN_BLOCKS // 2, size=needed, dtype=np.uint64)
    mask = np.ones(len(candidates), dtype=bool)
    if home_slice is not None:
        mask &= self.hash.slices_of(candidates) == home_slice
    if skew_band is not None:
        lo, hi = skew_band
        set_idx = candidates.astype(np.int64) & (self.num_sets - 1)
        mask &= (set_idx >= lo) & (set_idx < hi)
    pool = np.unique(candidates[mask])
    if len(pool) < size:
        if len(pool) == 0:
            raise RuntimeError("constraints too tight")
        reps = size // len(pool) + 1
        pool = np.tile(pool, reps)
    pool = pool[:size]
    self._rng.shuffle(pool)
    return pool


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as exc:
        return exc


CHUNK = SyntheticWorkload.DRAW_CHUNK


def pool_args_for_draw_count(workload, target, home):
    """A ``(size, band)`` whose pool draws exactly *target* candidates.

    The draw count is ``int(size / accept_rate * 2) + 64``; with
    power-of-two geometries only some band widths reach a given count
    exactly, hence the search over widths."""
    for width in range(1, workload.num_sets + 1):
        band = (workload.num_sets - width, workload.num_sets)
        rate = width / workload.num_sets
        if home is not None:
            rate /= workload.num_slices
        guess = int((target - 64) * rate / 2)
        for size in range(max(1, guess - 2), guess + 3):
            if reference_draw_count(workload, size, home, band) == target:
                return size, band
    raise AssertionError(f"no pool draws exactly {target} candidates")


class TestPoolSamplingIdentity:
    """Band-first filtering returns the pre-change pool and leaves the
    generator exactly where the pre-change code left it."""

    @pytest.mark.parametrize("num_slices", [1, 4, 16])
    @pytest.mark.parametrize("hash_scheme", ["fold_xor", "modulo"])
    def test_matches_reference(self, num_slices, hash_scheme):
        spec = single_class_spec("cyclic", affinity=0.5, skew=0.25)
        workload = SyntheticWorkload(spec, 1024, num_slices=num_slices,
                                     num_sets=64, seed=3,
                                     hash_scheme=hash_scheme)
        homes = [None] + sorted({0, num_slices - 1})
        bands = [None, (0, 1), (5, 21), (48, 64)]
        for size, home, band, contiguous in itertools.product(
                [4, 96, 700], homes, bands, [False, True]):
            twin = copy.deepcopy(workload)
            got = _outcome(workload._sample_pool, size, home, band,
                           contiguous)
            want = _outcome(reference_sample_pool, twin, size, home, band,
                            contiguous)
            if isinstance(want, RuntimeError):
                # Unsatisfiable (modulo hash: slice and set share bits).
                assert isinstance(got, RuntimeError)
            else:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert (workload._rng.bit_generator.state ==
                    twin._rng.bit_generator.state)
            assert workload._next_region == twin._next_region

    @pytest.mark.parametrize("home", [None, 15])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2 * CHUNK + 5])
    def test_matches_reference_across_draw_chunks(self, offset, home):
        """Draw counts just below, at, one past and several chunks past
        ``DRAW_CHUNK``: the chunked draw equals one full-length draw."""
        workload = SyntheticWorkload(
            single_class_spec("cyclic", affinity=0.5, skew=0.25), 1024,
            num_slices=16, num_sets=128, seed=3)
        size, band = pool_args_for_draw_count(workload, CHUNK + offset, home)
        twin = copy.deepcopy(workload)
        got = workload._sample_pool(size, home, band, False)
        want = reference_sample_pool(twin, size, home, band, False)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert (workload._rng.bit_generator.state ==
                twin._rng.bit_generator.state)


class TestPoolSamplingMemory:
    def test_home_band_pool_allocates_chunk_sized_temporaries(self):
        """A 16-slice home+band ``mcf`` pool draws ~2.6M candidates; the
        sampler's allocations must stay a few chunks in size."""
        workload = SyntheticWorkload(resolve_workload("mcf"), 128 * 16,
                                     num_slices=16, num_sets=128, seed=7)
        tracemalloc.start()
        try:
            workload._sample_pool(8192, 3, (72, 85), contiguous=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestTiledPoolWarning:
    """A pool with fewer distinct candidates than requested is tiled
    with repeats; that must not pass silently."""

    def test_32_slice_mcf_warns(self):
        with pytest.warns(RuntimeWarning, match=r"'mcf': pool of 8192 "
                          r"blocks tiled from only 5[0-9]{3} distinct"):
            SyntheticWorkload(resolve_workload("mcf"), 128 * 16,
                              num_slices=32, num_sets=128, seed=7)

    def test_16_slice_mcf_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            SyntheticWorkload(resolve_workload("mcf"), 128 * 16,
                              num_slices=16, num_sets=128, seed=7)
