"""Known-bad PAR002 corpus, module-level reach: pool-submitted work
units whose own bodies touch module-level state (lost in workers, so
pooled and serial diverge).  ``bad_par002.py`` hides the effect in a
method instead."""

from concurrent.futures import ProcessPoolExecutor

RESULTS = {}
TOTALS = []


def work(x):
    RESULTS[x] = x * x     # PAR002: module-global subscript write
    TOTALS.append(x)       # PAR002: mutating call on a module global
    return x * x


def helper(x):
    global TALLY           # PAR002: global declaration (second root)
    TALLY = x
    return x


def run(xs):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(work, x) for x in xs]
        pool.submit(helper, 0)
        return [f.result() for f in futures]
