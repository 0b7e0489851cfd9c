"""System configuration.

Defaults follow the paper's Table 4 (Sunny-Cove-like cores, 48 KB L1D,
512 KB L2, one 2 MB 16-way LLC slice per core, mesh NoC, one DRAM channel
per four cores).  :class:`ScaleProfile` provides proportionally shrunken
geometries so experiments finish at Python speed while preserving the
capacity *ratios* (L1 : L2 : LLC-slice) and therefore the miss-stream
structure the replacement policies see.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional

from repro.core.drishti import DrishtiConfig

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "NOCConfig",
    "DRAMConfig",
    "ScaleProfile",
    "SystemConfig",
    "DrishtiConfig",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one private cache level."""

    sets: int
    ways: int
    latency: int
    mshrs: int = 16

    @property
    def capacity_blocks(self) -> int:
        return self.sets * self.ways


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table 4)."""

    issue_width: int = 6
    rob_size: int = 352
    max_outstanding: int = 8
    frequency_ghz: float = 4.0


@dataclass(frozen=True)
class NOCConfig:
    """Mesh parameters (2-stage wormhole routers)."""

    router_cycles: int = 2
    link_cycles: int = 1
    injection_cycles: int = 2
    congestion_per_node: float = 0.06


@dataclass(frozen=True)
class DRAMConfig:
    """Memory-controller parameters.

    ``channels`` of 0 means "derive from cores" (one per four cores,
    minimum one — the paper's baseline).
    """

    channels: int = 0
    banks_per_channel: int = 8
    t_ns: float = 12.5

    def channels_for(self, num_cores: int) -> int:
        if self.channels > 0:
            return self.channels
        return max(1, num_cores // 4)


@dataclass(frozen=True)
class ScaleProfile:
    """Simulation scale: geometry shrink + trace length.

    The paper's geometry (PAPER) is 2048-set LLC slices and 200M-instr
    traces; the shrunken profiles keep L1:L2:LLC ratios so the same
    workload models produce the same qualitative miss structure.

    Attributes:
        name: profile label.
        llc_sets_per_slice: sets per LLC slice (ways stay 16).
        l2_sets: L2 sets (8-way).
        l1_sets: L1D sets (12-way).
        accesses_per_core: demand accesses generated per core.
        warmup_fraction: leading fraction of accesses excluded from stats.
    """

    name: str
    llc_sets_per_slice: int
    l2_sets: int
    l1_sets: int
    accesses_per_core: int
    warmup_fraction: float = 0.2

    @classmethod
    def smoke(cls) -> "ScaleProfile":
        """Tiny: CI-speed sanity runs."""
        return cls("smoke", llc_sets_per_slice=64, l2_sets=32, l1_sets=8,
                   accesses_per_core=4000)

    @classmethod
    def small(cls) -> "ScaleProfile":
        """Default for the benchmark harness."""
        return cls("small", llc_sets_per_slice=128, l2_sets=64, l1_sets=16,
                   accesses_per_core=12000)

    @classmethod
    def medium(cls) -> "ScaleProfile":
        """Higher fidelity, minutes per mix at 16 cores."""
        return cls("medium", llc_sets_per_slice=256, l2_sets=128, l1_sets=16,
                   accesses_per_core=40000)

    @classmethod
    def paper(cls) -> "ScaleProfile":
        """Full Table 4 geometry (slow in pure Python; provided for
        completeness)."""
        return cls("paper", llc_sets_per_slice=2048, l2_sets=1024,
                   l1_sets=64, accesses_per_core=2_000_000)

    @property
    def warmup_accesses(self) -> int:
        return int(self.accesses_per_core * self.warmup_fraction)


@dataclass
class SystemConfig:
    """Everything needed to build a :class:`repro.sim.simulator.Simulator`.

    Attributes:
        num_cores: cores == LLC slices.
        llc_policy: replacement policy name (see ``policy_names()``).
        llc_policy_params: extra policy constructor kwargs.
        drishti: enhancement configuration.
        llc_sets_per_slice / llc_ways / llc_latency: slice geometry.
        l1 / l2: private cache configs.
        core: core timing parameters.
        noc / dram: interconnect and memory configs.
        prefetcher: prefetcher-pair name (see ``PREFETCHER_REGISTRY``).
        hash_scheme: address-to-slice hash family.
        track_set_stats: keep per-set LLC counters.
        model_tlb: charge address-translation latency per access
            (Table 4's dTLB/STLB/page-walk path).
        llc_inclusive: enforce inclusion — an LLC eviction
            back-invalidates the private copies (the paper's baseline is
            non-inclusive, as is Sunny Cove's L3; this knob exists for
            sensitivity studies).
        seed: seed for all stochastic components.
        sim_kernel: access-processing backend — ``"auto"`` (vectorized
            kernel when the config is eligible, reference otherwise),
            ``"vector"``, or ``"reference"``.  Results are bit-identical
            across backends, so this field is excluded from
            :meth:`canonical_dict` / :meth:`fingerprint`.  Overridable at
            run time via the ``REPRO_SIM_KERNEL`` environment variable
            (see :mod:`repro.sim.kernel`).
    """

    num_cores: int = 4
    llc_policy: str = "lru"
    llc_policy_params: Dict = field(default_factory=dict)
    drishti: DrishtiConfig = field(default_factory=DrishtiConfig.baseline)
    llc_sets_per_slice: int = 2048
    llc_ways: int = 16
    llc_latency: int = 20
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        sets=64, ways=12, latency=5, mshrs=16))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        sets=1024, ways=8, latency=15, mshrs=32))
    core: CoreConfig = field(default_factory=CoreConfig)
    noc: NOCConfig = field(default_factory=NOCConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    prefetcher: str = "baseline"
    hash_scheme: str = "fold_xor"
    track_set_stats: bool = False
    model_tlb: bool = False
    llc_inclusive: bool = False
    seed: int = 0
    sim_kernel: str = "auto"

    def __post_init__(self):
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.sim_kernel not in ("auto", "vector", "reference"):
            raise ValueError(
                f"sim_kernel must be 'auto', 'vector' or 'reference', "
                f"got {self.sim_kernel!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_profile(cls, num_cores: int, profile: ScaleProfile,
                     llc_policy: str = "lru",
                     drishti: Optional[DrishtiConfig] = None,
                     **overrides) -> "SystemConfig":
        """Build a config with *profile*'s geometry."""
        cfg = cls(
            num_cores=num_cores,
            llc_policy=llc_policy,
            drishti=drishti if drishti is not None
            else DrishtiConfig.baseline(),
            llc_sets_per_slice=profile.llc_sets_per_slice,
            l1=CacheConfig(sets=profile.l1_sets, ways=12, latency=5,
                           mshrs=16),
            l2=CacheConfig(sets=profile.l2_sets, ways=8, latency=15,
                           mshrs=32),
        )
        for key, value in overrides.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown SystemConfig field {key!r}")
            setattr(cfg, key, value)
        cfg.__post_init__()  # overrides bypass field validation
        return cfg

    def with_policy(self, llc_policy: str,
                    drishti: Optional[DrishtiConfig] = None) -> "SystemConfig":
        """Copy with a different policy/Drishti pairing (same system)."""
        cfg = replace(self)
        cfg.llc_policy = llc_policy
        cfg.llc_policy_params = dict(self.llc_policy_params)
        if drishti is not None:
            cfg.drishti = drishti
        return cfg

    @property
    def llc_lines_per_core(self) -> int:
        return self.llc_sets_per_slice * self.llc_ways

    @property
    def llc_capacity_bytes(self) -> int:
        return self.num_cores * self.llc_lines_per_core * 64

    # -- stable serialisation (sweep result cache) ----------------------
    def canonical_dict(self) -> Dict:
        """Fully-nested plain-dict form with deterministic ordering.

        Every field that can influence a simulation *result* is included,
        so two configs with equal canonical dicts produce identical runs.
        ``sim_kernel`` is excluded: the vectorized backend is pinned
        bit-identical to the reference path, so cached sweep results are
        shared across backends.  ``l1.mshrs``/``l2.mshrs`` are excluded
        because the timing model does not consume MSHR counts — keeping
        them would split the cache key over a knob that cannot change
        any result (the CKEY002 lint proves the field is unread).
        Values that are not JSON-native (e.g. policy-param objects) are
        rendered via ``repr`` at serialisation time.

        The exact key recipe (this dict, the fingerprint hash, and the
        ``CACHE_SCHEMA_VERSION`` salt) is documented in one place:
        ``docs/performance.md``.
        """
        data = asdict(self)
        data.pop("sim_kernel", None)
        data["l1"].pop("mshrs", None)
        data["l2"].pop("mshrs", None)
        return data

    def fingerprint(self) -> str:
        """Content hash of this configuration (hex SHA-256).

        Used as the config component of on-disk sweep cache keys; see
        :mod:`repro.experiments.resultcache` for the full key scheme.
        """
        text = json.dumps(self.canonical_dict(), sort_keys=True,
                          default=repr)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
