"""Known-bad PAR002 corpus, method reach: the impure effect hides
inside a method, which only a call-graph walk (not a walk over
module-level calls) reaches."""

from concurrent.futures import ProcessPoolExecutor

SHARED = {}


class Recorder:
    def note(self, key, value):
        SHARED[key] = value  # PAR002: module-global write in a method


def work(x):
    rec = Recorder()
    rec.note(x, x * x)
    return x * x


def run(xs):
    with ProcessPoolExecutor() as pool:
        return [pool.submit(work, x).result() for x in xs]
