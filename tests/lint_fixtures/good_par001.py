"""Known-good PAR002 corpus, module-level reach: pure work units — all
state is local or flows through arguments and return values."""

from concurrent.futures import ProcessPoolExecutor


def square_sum(x):
    acc = []
    for i in range(x):
        acc.append(i * i)
    return sum(acc)


def work(x):
    return square_sum(x) + x


def run(xs):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(work, x) for x in xs]
        return [f.result() for f in futures]
