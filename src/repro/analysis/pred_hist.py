"""Predictor-value frequency distributions (paper Figure 4).

Figure 4 contrasts the frequency of predicted values under myopic
(per-slice) and global training: for Mockingjay a histogram of ETR
values, for Hawkeye the counts of friendly (RRIP 0) vs averse (RRIP 7)
classifications.  Myopic training shifts these distributions — scattered
PCs stay cold or mistrained in most slices.

The helpers read predictor tables out of a finished simulation's fabric.
"""

from __future__ import annotations

from typing import Dict

from repro.core.predictor_fabric import PredictorFabric
from repro.replacement.hawkeye.predictor import HawkeyePredictor
from repro.replacement.mockingjay.predictor import ETRPredictor


def etr_histogram(fabric: PredictorFabric) -> Dict[int, int]:
    """Histogram of valid ETR table values across all fabric instances."""
    counts: Dict[int, int] = {}
    for predictor in fabric.instances:
        if not isinstance(predictor, ETRPredictor):
            raise TypeError("fabric does not hold ETRPredictor instances")
        for sig in range(len(predictor)):
            value = predictor.predict(sig)
            if value is not None:
                counts[value] = counts.get(value, 0) + 1
    return counts


def rrip_histogram(fabric: PredictorFabric) -> Dict[str, int]:
    """Counts of trained-friendly vs trained-averse Hawkeye entries.

    Only entries that moved off their initialisation value are counted —
    untouched entries carry no information about the training view.
    """
    friendly = 0
    averse = 0
    for predictor in fabric.instances:
        if not isinstance(predictor, HawkeyePredictor):
            raise TypeError("fabric does not hold HawkeyePredictor "
                            "instances")
        init = predictor.threshold
        for sig in range(len(predictor)):
            value = predictor.confidence(sig)
            if value == init:
                continue
            if value >= init:
                friendly += 1
            else:
                averse += 1
    return {"rrip0_friendly": friendly, "rrip7_averse": averse}


def histogram_spread(counts: Dict[int, int]) -> float:
    """Population-weighted standard deviation of a value histogram."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    mean = sum(v * c for v, c in counts.items()) / total
    var = sum(c * (v - mean) ** 2 for v, c in counts.items()) / total
    return var ** 0.5
