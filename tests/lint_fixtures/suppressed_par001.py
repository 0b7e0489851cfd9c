"""Suppression corpus: a module-level cache write inside a work unit's
own body, silenced inline for PAR002 (single-process fallback path,
documented)."""

from concurrent.futures import ProcessPoolExecutor

CACHE = {}


def work(x):
    CACHE[x] = x * x  # repro-lint: disable=PAR002
    return x * x


def run(xs):
    with ProcessPoolExecutor() as pool:
        return [pool.submit(work, x).result() for x in xs]
