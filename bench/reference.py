"""Fixed reference work that samples how fast the machine runs right now.

    python3 bench/reference.py

It does not use dedonder_hj and must never change: a Python loop over
small numpy operations, the kind of work that dominates the CLI. The
benchmark runs it in a fresh process after every timed process and
expresses times at the reference speed, so that drift in the speed of a
shared machine cancels out.
"""

import numpy as np

ITERATIONS = 8000


def main():
    x = np.linspace(0.0, 1.0, 128)
    total = 0.0
    for _ in range(ITERATIONS):
        d = np.roll(x, -1) - np.roll(x, 1)
        total += float(np.sum(d * d))
        x = x + 1e-12 * d
    return total


if __name__ == "__main__":
    print(main())
