"""Fixed reference computation that the benchmark times next to each CLI child.

Usage::

    python bench/reference_kernel.py

It does the same kinds of work as an ``ocobench`` CLI child, on a fixed
input: it starts an interpreter, imports numpy, and runs a projected-gradient
loop on a 40-wide box-constrained quadratic, with small numpy calls and
Python bookkeeping in every iteration.  It does not
use ``ocobench``, so a change to the package leaves its time alone; its time
moves only with the machine's speed.  ``run.py`` reports CLI wall time in
multiples of this kernel's wall time, which cancels the slow drift in speed
that other tenants of a shared host cause.
"""

import numpy as np

ITERATIONS = 20000
WIDTH = 40


def main() -> float:
    rng = np.random.default_rng(0)
    m = rng.standard_normal((WIDTH, WIDTH))
    q = m.T @ m / WIDTH + np.eye(WIDTH)
    c = rng.standard_normal(WIDTH)
    step = 1.0 / np.linalg.norm(q, 2)
    x = np.zeros(WIDTH)
    history = {"objective": [], "active": []}
    for _ in range(ITERATIONS):
        grad = q @ x + c
        x = np.clip(x - step * grad, -1.0, 1.0)
        history["objective"].append(float(0.5 * x @ q @ x + c @ x))
        history["active"].append(int(np.count_nonzero(np.abs(x) == 1.0)))
    return history["objective"][-1]


if __name__ == "__main__":
    print(f"{main():.17g}")
