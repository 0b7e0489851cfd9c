"""Policy registry and the slice-array builder.

``build_llc_policies`` is the one place where a policy name plus a
:class:`DrishtiConfig` turn into concrete per-slice machinery:

* one policy instance per LLC slice,
* a shared :class:`PredictorFabric` whose scope/side-band reflect the
  Drishti configuration (Enhancement I),
* a per-slice sampled-set selector — static random in the baseline,
  :class:`DynamicSampledSets` under Enhancement II, with the reduced
  sampled-set counts of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.drishti import DrishtiConfig
from repro.core.dynamic_sampler import DynamicSampledSets
from repro.core.nocstar import NOCSTAR
from repro.core.predictor_fabric import PredictorFabric
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.interconnect.mesh import MeshNoC
from repro.replacement.base import ReplacementPolicy
from repro.replacement.chrome import ChromePolicy, QTable
from repro.replacement.dip import DIPPolicy
from repro.replacement.eva import EVAPolicy
from repro.replacement.glider import GliderPolicy, ISVMPredictor
from repro.replacement.hawkeye import HawkeyePolicy, HawkeyePredictor
from repro.replacement.leeway import LeewayPolicy, LiveDistanceTable
from repro.replacement.lru import LRUPolicy
from repro.replacement.mockingjay import ETRPredictor, MockingjayPolicy
from repro.replacement.perceptron import (
    PerceptronPolicy,
    PerceptronReusePredictor,
)
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.replacement.sdbp import SDBPPolicy, SkewedDeadPredictor
from repro.replacement.ship import SHCT, SHiPPolicy


@dataclass(frozen=True)
class PolicyEntry:
    """Registry record for one policy family."""

    name: str
    policy_class: type
    uses_predictor: bool
    uses_sampled_sets: bool
    predictor_factory: Optional[Callable[[], object]] = None


POLICY_REGISTRY: Dict[str, PolicyEntry] = {
    "lru": PolicyEntry("lru", LRUPolicy, False, False),
    "random": PolicyEntry("random", RandomPolicy, False, False),
    "srrip": PolicyEntry("srrip", SRRIPPolicy, False, False),
    "brrip": PolicyEntry("brrip", BRRIPPolicy, False, False),
    "drrip": PolicyEntry("drrip", DRRIPPolicy, False, True),
    "dip": PolicyEntry("dip", DIPPolicy, False, True),
    "ship": PolicyEntry("ship", SHiPPolicy, True, True,
                        lambda: SHCT()),
    "hawkeye": PolicyEntry("hawkeye", HawkeyePolicy, True, True,
                           lambda: HawkeyePredictor()),
    "mockingjay": PolicyEntry("mockingjay", MockingjayPolicy, True, True,
                              lambda: ETRPredictor()),
    "glider": PolicyEntry("glider", GliderPolicy, True, True,
                          lambda: ISVMPredictor()),
    "chrome": PolicyEntry("chrome", ChromePolicy, True, True,
                          lambda: QTable()),
    "eva": PolicyEntry("eva", EVAPolicy, False, False),
    "sdbp": PolicyEntry("sdbp", SDBPPolicy, True, True,
                        lambda: SkewedDeadPredictor()),
    "leeway": PolicyEntry("leeway", LeewayPolicy, True, True,
                          lambda: LiveDistanceTable()),
    "perceptron": PolicyEntry("perceptron", PerceptronPolicy, True, True,
                              lambda: PerceptronReusePredictor()),
}


def policy_names() -> List[str]:
    """All registered policy names."""
    return sorted(POLICY_REGISTRY)


def policy_uses_predictor(name: str) -> bool:
    return POLICY_REGISTRY[name].uses_predictor


def policy_uses_sampled_sets(name: str) -> bool:
    return POLICY_REGISTRY[name].uses_sampled_sets


@dataclass(frozen=True)
class PolicySpec:
    """A policy name plus construction parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in POLICY_REGISTRY:
            raise ValueError(
                f"unknown policy {self.name!r}; known: {policy_names()}")


def make_policy(name: str, num_sets: int, num_ways: int,
                **params) -> ReplacementPolicy:
    """Build a standalone policy instance (single cache, local predictor)."""
    entry = POLICY_REGISTRY[name]
    return entry.policy_class(num_sets, num_ways, **params)


@dataclass
class LLCPolicyBundle:
    """Everything ``build_llc_policies`` wires together."""

    policies: List[ReplacementPolicy]
    fabric: Optional[PredictorFabric]
    selectors: List[Optional[SampledSetSelector]]
    nocstar: Optional[NOCSTAR]


def _make_selector(entry: PolicyEntry, drishti: DrishtiConfig,
                   num_sets: int, num_ways: int, slice_id: int,
                   seed: int) -> Optional[SampledSetSelector]:
    if not entry.uses_sampled_sets:
        return None
    if drishti.explicit_sets_per_slice is not None:
        from repro.core.sampled_sets import ExplicitSampledSets
        sets = drishti.explicit_sets_per_slice[
            slice_id % len(drishti.explicit_sets_per_slice)]
        return ExplicitSampledSets(num_sets, list(sets))
    num_sampled = drishti.sampled_sets_for(entry.name, num_sets)
    slice_seed = seed * 1009 + slice_id
    if drishti.dynamic_sampled_cache:
        return DynamicSampledSets(
            num_sets=num_sets, num_sampled=num_sampled,
            lines_per_slice=num_sets * num_ways,
            counter_bits=drishti.counter_bits,
            uniform_threshold=drishti.uniform_threshold,
            seed=slice_seed)
    return StaticSampledSets(num_sets, num_sampled, seed=slice_seed)


def build_llc_policies(spec: PolicySpec, num_slices: int, num_cores: int,
                       num_sets: int, num_ways: int,
                       drishti: DrishtiConfig,
                       mesh: Optional[MeshNoC] = None,
                       seed: int = 0) -> LLCPolicyBundle:
    """Create per-slice policies wired to a shared Drishti-aware fabric.

    Args:
        spec: policy family and extra constructor params.
        num_slices: LLC slices (== cores in the baseline system).
        num_cores: cores, for per-core predictor instancing.
        num_sets, num_ways: per-slice geometry.
        drishti: enhancement configuration.
        mesh: the system NoC, used when predictor messages do not ride
            NOCSTAR (Figure 11a) and by the centralized design.
        seed: base seed for selector randomness.
    """
    entry = POLICY_REGISTRY[spec.name]

    # Mockingjay's clock granularity assumes paper-scale slices; scale
    # it with the slice geometry so scaled profiles keep ETR resolution.
    extra_params = {}
    if spec.name == "mockingjay":
        from repro.replacement.mockingjay import scaled_granularity
        granularity = spec.params.get(
            "granularity", scaled_granularity(num_sets))
        extra_params["granularity"] = granularity

    fabric: Optional[PredictorFabric] = None
    nocstar: Optional[NOCSTAR] = None
    if entry.uses_predictor:
        if drishti.use_nocstar:
            base_latency = (drishti.fixed_sideband_latency
                            if drishti.fixed_sideband_latency is not None
                            else 3)
            nocstar = NOCSTAR(max(num_slices, num_cores),
                              base_latency=base_latency)
        factory = entry.predictor_factory
        if spec.name == "mockingjay":
            factory = (lambda g=extra_params["granularity"]:
                       ETRPredictor(granularity=g))
        fabric = PredictorFabric(
            scope=drishti.predictor_scope,
            num_slices=num_slices,
            num_cores=num_cores,
            predictor_factory=lambda _i: factory(),
            mesh=mesh,
            use_nocstar=drishti.use_nocstar,
            nocstar=nocstar)

    policies: List[ReplacementPolicy] = []
    selectors: List[Optional[SampledSetSelector]] = []
    for slice_id in range(num_slices):
        selector = _make_selector(entry, drishti, num_sets, num_ways,
                                  slice_id, seed)
        selectors.append(selector)
        params = dict(spec.params)
        params.update(extra_params)
        if entry.uses_predictor:
            params.setdefault("fabric", fabric)
            params.setdefault("slice_id", slice_id)
        if entry.uses_sampled_sets and entry.uses_predictor:
            params.setdefault("selector", selector)
        if entry.name in ("drrip", "dip") and selector is not None:
            # Memoryless set-duelers: their leader sets come from the
            # selector (Drishti's DSC improves them too, Table 7).
            params.setdefault("leader_sets", sorted(selector.sampled_sets))
            params.setdefault("seed", seed * 1009 + slice_id)
        if entry.name in ("random", "brrip"):
            params.setdefault("seed", seed * 1009 + slice_id)
        if entry.name == "chrome":
            params.setdefault("seed", seed * 1009 + slice_id)
        policies.append(entry.policy_class(num_sets, num_ways, **params))
    return LLCPolicyBundle(policies=policies, fabric=fabric,
                           selectors=selectors, nocstar=nocstar)
