"""Parametric workload models.

Each workload is a population of PCs, each with an access *pattern* and a
candidate-block *pool*.  The properties the paper's mechanisms key on are
explicit knobs:

* ``slice_affinity`` — fraction of PCs whose pool is rejection-sampled to
  a single LLC slice (Figure 2's per-workload scatter fraction);
* ``set_skew`` — fraction of the miss-heavy pools confined to a narrow
  band of set indices (Figure 5's non-uniform per-set MPKA);
* pattern kinds drawn from the open registry in
  :mod:`repro.traces.patterns` — the legacy deterministic walks
  (``cyclic`` / ``scan`` / ``stream`` / ``chase`` / ``phased``) plus the
  parametric stochastic generators (``uniform``, ``zipfian``,
  ``hotspot``, ``bursty``, ``sequential``, ``phase_change``).  New kinds
  register themselves; this module never enumerates them.

Pool sizes are specified relative to the per-core LLC capacity so the
same spec exerts the same pressure at any :class:`ScaleProfile`.

Specs are declarative: :meth:`WorkloadSpec.from_dict` builds a validated
spec from JSON-shaped data (see ``docs/workloads.md`` for the schema),
and :meth:`WorkloadSpec.digest` is the ``stable_hash`` of the canonical
dict — the value mixed into trace names and sweep cache keys so two
same-named specs with different parameters can never share results.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.cache.slice_hash import SliceHash
from repro.core.signature import stable_hash
from repro.traces.patterns import (AccessPattern, create_pattern,
                                   pattern_class)
from repro.traces.trace import BLOCK_SHIFT, MemoryAccess, Trace

#: The original closed pattern enum, kept as a back-compat alias; the
#: authoritative set is ``repro.traces.patterns.pattern_names()``.
PATTERNS = ("cyclic", "scan", "stream", "chase", "phased")

#: ``Mapping`` or tuple-of-pairs accepted for pattern params.
ParamsLike = Union[Mapping[str, float], Tuple[Tuple[str, float], ...]]


@dataclass(frozen=True)
class PCClassSpec:
    """A class of PCs sharing a pattern and sizing.

    Attributes:
        pattern: a registered pattern kind
            (:func:`repro.traces.patterns.pattern_names`).
        count: PCs in this class.
        pool_frac: per-PC pool size as a fraction of the per-core LLC
            capacity in blocks (e.g. 0.05 = comfortably cache-resident,
            4.0 = heavy thrashing).
        weight: this class's share of the workload's accesses (>= 0;
            the workload normalises, but at least one class must be
            positive).
        write_frac: fraction of this class's accesses that are stores.
        in_skew_band: confine this class's pools to the skew band of set
            indices (drives per-set MPKA non-uniformity).
        phase_len: for phase-flipping patterns: accesses per phase
            before the PC flips between its friendly and averse working
            sets.  Phased PCs are what make the *myopic* predictor
            problem bite: each slice's predictor sees so few sampled
            observations per phase that it is always a phase behind,
            while a global predictor pooling all slices' observations
            tracks the flips.
        averse_mult: for phase-flipping patterns: the averse-phase pool
            is ``averse_mult`` times the friendly pool.
        band_frac: override the width of this class's skew band as a
            fraction of the set space (defaults to the workload's
            ``set_skew_band``).  Bands are nested at a common origin, so
            a class with a narrow band concentrates on the hottest sets
            — this is what produces Figure 5a's extreme per-set MPKA
            spikes without forcing the protectable working sets into
            over-committed sets.
        params: extra pattern tunables (e.g. ``{"alpha": 1.2}`` for
            ``zipfian``), validated against the pattern class's
            ``PARAM_DEFAULTS``.  Stored as a sorted tuple of pairs so
            the spec stays hashable; pass a mapping and it is
            normalised.
    """

    pattern: str
    count: int
    pool_frac: float
    weight: float
    write_frac: float = 0.0
    in_skew_band: bool = False
    phase_len: int = 0
    averse_mult: float = 6.0
    band_frac: Optional[float] = None
    params: ParamsLike = ()

    def __post_init__(self):
        pcls = pattern_class(self.pattern)
        raw = self.params
        items = raw.items() if isinstance(raw, Mapping) else tuple(raw)
        as_dict = {str(k): v for k, v in items}
        pcls.check_params(as_dict)
        object.__setattr__(
            self, "params",
            tuple(sorted((k, float(v)) for k, v in as_dict.items())))
        if pcls.needs_averse_pool and self.phase_len < 1:
            raise ValueError(
                f"pattern {self.pattern!r} needs phase_len >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.pool_frac <= 0:
            raise ValueError("pool_frac must be positive")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if not 0 <= self.write_frac <= 1:
            raise ValueError("write_frac must be in [0, 1]")
        if self.averse_mult <= 0:
            raise ValueError("averse_mult must be positive")
        if self.band_frac is not None and not 0 < self.band_frac <= 1:
            raise ValueError("band_frac must be in (0, 1]")

    # -- declarative surface --------------------------------------------
    _FIELD_NAMES = ("pattern", "count", "pool_frac", "weight",
                    "write_frac", "in_skew_band", "phase_len",
                    "averse_mult", "band_frac", "params")

    def params_dict(self) -> Dict[str, float]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped canonical form, round-trippable through
        :meth:`from_dict` and stable under hashing (params sorted by
        name)."""
        return {
            "pattern": self.pattern,
            "count": self.count,
            "pool_frac": self.pool_frac,
            "weight": self.weight,
            "write_frac": self.write_frac,
            "in_skew_band": self.in_skew_band,
            "phase_len": self.phase_len,
            "averse_mult": self.averse_mult,
            "band_frac": self.band_frac,
            "params": self.params_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PCClassSpec":
        """Build a validated class spec from JSON-shaped *data*.

        Rejects unknown keys and missing required fields with messages
        safe to relay to API clients; value validation is shared with
        direct construction (``__post_init__``).
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"PC class spec must be a mapping, "
                             f"got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls._FIELD_NAMES))
        if unknown:
            raise ValueError(f"PC class spec: unknown keys {unknown}; "
                             f"allowed: {sorted(cls._FIELD_NAMES)}")
        required = ("pattern", "count", "pool_frac", "weight")
        missing = sorted(k for k in required if k not in data)
        if missing:
            raise ValueError(f"PC class spec: missing required keys "
                             f"{missing}")
        kwargs = {key: data[key] for key in cls._FIELD_NAMES
                  if key in data}
        return cls(**kwargs)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload model.

    Attributes:
        name: workload label ("mcf", "xalancbmk", ...).
        apki: accesses per kilo-instruction (sets ``instr_gap``).
        slice_affinity: fraction of non-stream PCs pinned to one slice.
        set_skew_band: fraction of set-index space that skew-band pools
            occupy (smaller = sharper Figure 5 spikes); 1.0 disables
            skew.
        classes: the PC population.
        suite: "spec" / "gap" / "datacenter" / "custom" (reporting
            only).
    """

    name: str
    apki: float
    slice_affinity: float
    set_skew_band: float
    classes: Tuple[PCClassSpec, ...]
    suite: str = "spec"

    def __post_init__(self):
        if not self.name:
            raise ValueError("workload needs a non-empty name")
        if self.apki <= 0:
            raise ValueError("apki must be positive")
        if not 0 <= self.slice_affinity <= 1:
            raise ValueError("slice_affinity must be in [0, 1]")
        if not 0 < self.set_skew_band <= 1:
            raise ValueError("set_skew_band must be in (0, 1]")
        if not self.classes:
            raise ValueError("need at least one PC class")
        if sum(c.weight for c in self.classes) <= 0:
            raise ValueError(
                f"workload {self.name!r}: class weights sum to 0 — "
                f"at least one class needs weight > 0")

    # -- declarative surface --------------------------------------------
    _FIELD_NAMES = ("name", "apki", "slice_affinity", "set_skew_band",
                    "classes", "suite")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped canonical form, round-trippable through
        :meth:`from_dict` and the input to :meth:`digest`."""
        return {
            "name": self.name,
            "apki": self.apki,
            "slice_affinity": self.slice_affinity,
            "set_skew_band": self.set_skew_band,
            "suite": self.suite,
            "classes": [c.to_dict() for c in self.classes],
        }

    def digest(self) -> str:
        """16-hex-char ``stable_hash`` of the canonical dict.

        This is the workload's *parameter identity*: mixed into trace
        names (:func:`repro.traces.mixes.mix_trace_name`) and sweep
        cache keys so two specs sharing a name but differing in any
        parameter can never collide in the result cache.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return f"{stable_hash(payload):016x}"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Build a validated workload spec from JSON-shaped *data*.

        Schema (see ``docs/workloads.md``): required ``name``,
        ``apki``, ``slice_affinity``, ``set_skew_band`` and a non-empty
        ``classes`` list of PC-class dicts; optional ``suite``
        (defaults to ``"custom"``).  Unknown keys are rejected so a
        typo'd knob fails loudly instead of silently using a default.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"workload spec must be a mapping, "
                             f"got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls._FIELD_NAMES))
        if unknown:
            raise ValueError(f"workload spec: unknown keys {unknown}; "
                             f"allowed: {sorted(cls._FIELD_NAMES)}")
        required = ("name", "apki", "slice_affinity", "set_skew_band",
                    "classes")
        missing = sorted(k for k in required if k not in data)
        if missing:
            raise ValueError(f"workload spec: missing required keys "
                             f"{missing}")
        raw_classes = data["classes"]
        if (not isinstance(raw_classes, Sequence)
                or isinstance(raw_classes, (str, bytes))
                or not raw_classes):
            raise ValueError("workload spec: 'classes' must be a "
                             "non-empty list of PC class dicts")
        classes = tuple(PCClassSpec.from_dict(c) for c in raw_classes)
        return cls(name=str(data["name"]), apki=float(data["apki"]),
                   slice_affinity=float(data["slice_affinity"]),
                   set_skew_band=float(data["set_skew_band"]),
                   classes=classes,
                   suite=str(data.get("suite", "custom")))


class PCBehavior:
    """One PC's materialised pattern state.

    A thin binding of a PC address and store ratio to its
    :class:`~repro.traces.patterns.AccessPattern` generator; the pool
    views (``pool`` / ``averse_pool``) delegate to the generator.
    """

    __slots__ = ("pc", "pattern", "write_frac", "dependent", "generator")

    def __init__(self, pc: int, write_frac: float,
                 generator: AccessPattern):
        self.pc = pc
        self.pattern = generator.kind
        self.write_frac = write_frac
        self.dependent = generator.dependent
        self.generator = generator

    @property
    def pool(self) -> np.ndarray:
        return self.generator.pool

    @property
    def averse_pool(self) -> Optional[np.ndarray]:
        return self.generator.averse_pool

    @property
    def phase_len(self) -> int:
        return self.generator.phase_len

    def next_block(self) -> int:
        return self.generator.next_block()


class SyntheticWorkload:
    """Materialises a :class:`WorkloadSpec` against a system geometry.

    Args:
        spec: the workload model.
        capacity_blocks: per-core LLC capacity in blocks (pool sizing).
        num_slices: LLC slices (slice-affinity sampling).
        num_sets: sets per slice (skew-band sampling).
        seed: generation seed; same seed → identical trace.
        hash_scheme: must match the simulated LLC's hash.
    """

    # Region allocator stride: keep PC regions far apart.
    REGION_ALIGN_BLOCKS = 1 << 22
    # Candidates drawn per step of the pool sampler's rejection loop.
    DRAW_CHUNK = 1 << 16

    def __init__(self, spec: WorkloadSpec, capacity_blocks: int,
                 num_slices: int, num_sets: int, seed: int = 0,
                 hash_scheme: str = "fold_xor"):
        if capacity_blocks < 16:
            raise ValueError("capacity_blocks too small")
        self.spec = spec
        self.capacity_blocks = capacity_blocks
        self.num_slices = num_slices
        self.num_sets = num_sets
        self.seed = seed
        self.hash = SliceHash(num_slices, scheme=hash_scheme)
        self._rng = np.random.default_rng(seed)
        self._next_region = 1 + (seed % 97)
        self.behaviors: List[PCBehavior] = []
        self.weights: np.ndarray = np.empty(0)
        self._materialise()

    # ------------------------------------------------------------------
    def _alloc_region(self) -> int:
        base = self._next_region * self.REGION_ALIGN_BLOCKS
        self._next_region += 1
        return base

    def _sample_pool(self, size: int, home_slice: Optional[int],
                     skew_band: Optional[Tuple[int, int]],
                     contiguous: bool) -> np.ndarray:
        """Draw *size* candidate blocks honouring slice/set constraints."""
        base = self._alloc_region()
        if contiguous and home_slice is None and skew_band is None:
            return np.arange(base, base + size, dtype=np.uint64)

        # Rejection-sample within the region.
        accept_rate = 1.0
        if home_slice is not None:
            accept_rate /= self.num_slices
        if skew_band is not None:
            lo, hi = skew_band
            accept_rate *= (hi - lo) / self.num_sets
        needed = int(size / max(accept_rate, 1e-6) * 2) + 64
        needed = min(needed, 4_000_000)
        # The draw count fixes the generator state after this call, so it
        # must not depend on how the candidates are filtered below.
        # Drawing it in chunks keeps every temporary chunk-sized; a chunked
        # ``integers`` draw yields the same values and leaves the generator
        # in the same state as one draw of the full count.
        # Each chunk is drawn as uint32 (the same values and generator
        # state as a uint64 draw below 2**32) and widened to uint64 only
        # after the band test.  The band test is one unsigned compare,
        # ``(set - lo) mod 2**32 < hi - lo``, into buffers reused across
        # chunks.
        survivors: List[np.ndarray] = []
        if skew_band is not None:
            width = hi - lo
            set_buf = np.empty(min(self.DRAW_CHUNK, needed), dtype=np.uint32)
            mask_buf = np.empty(len(set_buf), dtype=np.bool_)
        for start in range(0, needed, self.DRAW_CHUNK):
            count = min(self.DRAW_CHUNK, needed - start)
            chunk = self._rng.integers(
                0, self.REGION_ALIGN_BLOCKS // 2, size=count,
                dtype=np.uint32)
            # Band test, then ``base``, then the slice hash, each on the
            # survivors of the step before.  ``base`` is a multiple of
            # REGION_ALIGN_BLOCKS, which the (power-of-two) set count
            # divides, so adding it does not change a set index.
            if skew_band is not None:
                sets = set_buf[:count]
                in_band = mask_buf[:count]
                np.bitwise_and(chunk, self.num_sets - 1, out=sets)
                np.subtract(sets, lo, out=sets)
                np.less(sets, width, out=in_band)
                chunk = chunk[np.flatnonzero(in_band)]
            wide = chunk.astype(np.uint64)
            wide += base
            if home_slice is not None:
                wide = wide[self.hash.slices_of(wide) == home_slice]
            survivors.append(wide)
        pool = np.unique(np.concatenate(survivors))
        if len(pool) < size:
            # Extremely constrained pool: tile what we have.
            if len(pool) == 0:
                raise RuntimeError(
                    f"could not sample pool for {self.spec.name}: "
                    f"constraints too tight")
            warnings.warn(
                f"workload {self.spec.name!r}: pool of {size} blocks "
                f"tiled from only {len(pool)} distinct candidates "
                f"({self.num_slices} slices, {self.num_sets} sets)",
                RuntimeWarning, stacklevel=2)
            reps = size // len(pool) + 1
            pool = np.tile(pool, reps)
        pool = pool[:size]
        self._rng.shuffle(pool)
        return pool

    def _materialise(self) -> None:
        spec = self.spec
        rng = self._rng
        default_width = max(1, int(round(spec.set_skew_band *
                                         self.num_sets)))
        skew_lo = int(rng.integers(0, max(1, self.num_sets -
                                          default_width)))
        pc_base = 0x400000 + (stable_hash(spec.name) & 0xFFFF) * 0x1000

        weights: List[float] = []
        pc_index = 0
        for cls in spec.classes:
            pcls = pattern_class(cls.pattern)
            per_pc_weight = cls.weight / cls.count
            for _ in range(cls.count):
                pc = pc_base + pc_index * 0x14
                pc_index += 1
                pool_size = max(4, int(cls.pool_frac * self.capacity_blocks))
                contiguous = pcls.contiguous_pool
                affine = (not contiguous and
                          rng.random() < spec.slice_affinity)
                home = int(rng.integers(0, self.num_slices)) if affine \
                    else None
                band = None
                if cls.in_skew_band and spec.set_skew_band < 1.0:
                    frac = cls.band_frac if cls.band_frac is not None \
                        else spec.set_skew_band
                    width = max(1, int(round(frac * self.num_sets)))
                    band = (skew_lo, min(self.num_sets,
                                         skew_lo + width))
                pool = self._sample_pool(pool_size, home, band,
                                         contiguous=contiguous)
                if pcls.sort_pool:
                    pool = np.sort(pool)
                averse_pool = None
                if pcls.needs_averse_pool:
                    averse_size = max(8, int(pool_size * cls.averse_mult))
                    averse_pool = self._sample_pool(
                        averse_size, home, band, contiguous=False)
                # Stochastic generators consume one extra draw for their
                # per-instance seed; deterministic walks must not, so the
                # legacy kinds stay bit-identical (golden-pinned).
                pattern_seed = 0
                if pcls.stochastic:
                    pattern_seed = int(rng.integers(
                        0, np.iinfo(np.int64).max))
                generator = create_pattern(
                    cls.pattern, pool, averse_pool=averse_pool,
                    phase_len=cls.phase_len, seed=pattern_seed,
                    **cls.params_dict())
                self.behaviors.append(
                    PCBehavior(pc, cls.write_frac, generator))
                weights.append(per_pc_weight)
        total = sum(weights)
        self.weights = np.array([w / total for w in weights])

    # ------------------------------------------------------------------
    def generate(self, num_accesses: int) -> Trace:
        """Emit a trace of *num_accesses* records."""
        if num_accesses < 1:
            raise ValueError("num_accesses must be >= 1")
        rng = self._rng
        mean_gap = max(0.0, 1000.0 / self.spec.apki - 1.0)
        p = 1.0 / (mean_gap + 1.0)
        pc_choices = rng.choice(len(self.behaviors), size=num_accesses,
                                p=self.weights)
        gaps = rng.geometric(p, size=num_accesses) - 1
        write_draws = rng.random(num_accesses)

        records: List[MemoryAccess] = []
        append = records.append
        behaviors = self.behaviors
        for i in range(num_accesses):
            beh = behaviors[pc_choices[i]]
            block = beh.next_block()
            append(MemoryAccess(
                pc=beh.pc,
                address=block << BLOCK_SHIFT,
                is_write=bool(write_draws[i] < beh.write_frac),
                instr_gap=int(gaps[i]),
                dependent=beh.dependent))
        return Trace(self.spec.name, records)


def build_trace(spec: WorkloadSpec, capacity_blocks: int, num_slices: int,
                num_sets: int, num_accesses: int, seed: int = 0,
                hash_scheme: str = "fold_xor") -> Trace:
    """One-call helper: materialise a spec and emit a trace."""
    workload = SyntheticWorkload(spec, capacity_blocks, num_slices,
                                 num_sets, seed=seed,
                                 hash_scheme=hash_scheme)
    return workload.generate(num_accesses)
