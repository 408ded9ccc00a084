"""A fixed piece of interpreter work that follows the machine's speed.

The shared host the benchmark was defined on changes speed in spells of a
few seconds: Python code runs up to 1.7 times slower in a slow spell than in
a fast one.  The benchmark times this loop between calls, so that each call
can be set against the machine's speed while it ran.  The loop is the
benchmark's own code; a change to the program cannot move it.
"""

from fractions import Fraction
from time import perf_counter

# The loop's time on that host in its usual, slow spell (2-vCPU x86-64,
# Python 3.11.7); times are reported as if the loop took this long.
REFERENCE_S = 0.0032


def reference() -> float:
    """Seconds this Fraction, float and dict work takes now."""
    t0 = perf_counter()
    q, x, d = Fraction(0), 0.0, {}
    for i in range(1, 300):
        q += Fraction(1, i) * Fraction(i, i + 1)
        x += (i * 0.5) ** 2 / (i + 1.0)
        d[(i, i % 7)] = (q.numerator.bit_length(), x)
    return perf_counter() - t0
