"""Numeric backends: exact rationals and IEEE doubles.

Values flow through the library as plain Python numbers (``Fraction`` on the
exact backend, ``float`` on the float backend; ``int`` counts as exact).  A
``Backend`` only decides three things: how textual values are parsed, how
inequalities are judged (exact comparison vs. a relative slack), and how
values are printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NonFiniteError

Number = Union[int, float, Fraction]

#: Relative slack for inequality verdicts on the float backend.  A sampled
#: inequality is reported violated only when it fails by more than this,
#: relative to max(1, |lhs|, |rhs|).
FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class Backend:
    name: str
    rel_slack: float  # 0 disables slack (exact comparison)

    def number(self, value) -> Number:
        """Parse a config value ('64/81', '1e-9', 3, 0.25) into this backend's type."""
        if isinstance(value, str):
            q = Fraction(value)
        elif isinstance(value, bool):
            raise TypeError("booleans are not numbers")
        elif isinstance(value, (int, Fraction)):
            q = Fraction(value)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise NonFiniteError(f"non-finite value {value!r}")
            q = Fraction(value)
        else:
            raise TypeError(f"cannot interpret {value!r} as a number")
        if self.name == "exact":
            return q
        try:
            return float(q)
        except OverflowError:
            raise NonFiniteError(f"{value} overflows a double") from None

    def violates(self, lhs: Number, rhs: Number) -> bool:
        """True when ``lhs <= rhs`` fails beyond this backend's slack.  Two
        floats with lhs <= rhs > -inf hold without forming it: it is >= 0, and
        only at rhs = -inf would rhs + slack be NaN."""
        # a NaN on either side violates
        if self.rel_slack == 0.0:
            return not lhs <= rhs
        if lhs.__class__ is float is rhs.__class__ and lhs <= rhs != -math.inf:
            return False
        slack = self.rel_slack * max(1.0, abs(lhs), abs(rhs))
        # an infinite lhs makes the slack infinite, so it is tested on its
        # own against a finite rhs
        return not lhs <= rhs + slack or lhs == math.inf != rhs

    def close(self, u: Number, v: Number) -> bool:
        """Equality up to slack (exact equality on the exact backend)."""
        return not self.violates(u, v) and not self.violates(v, u)

    def format(self, value) -> str:
        """``str(value)`` for a float (its ``repr``), an int or a Fraction
        ('p/q'), as ``cli._write_csv``'s ``%s`` prints it; past 4300 digits
        the interpreter's int-to-str limit raises ``ValueError``."""
        if value.__class__ is float:  # the common case, before the ABC test
            return repr(value)
        if isinstance(value, (Fraction, int)):
            return str(value)  # 'p/q' or plain integer
        return repr(value)


EXACT = Backend("exact", 0.0)
FLOAT = Backend("float", FLOAT_SLACK)

_BY_NAME = {"exact": EXACT, "float": FLOAT}


def get_backend(name: str) -> Backend:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r} (expected 'exact' or 'float')") from None


def infer_backend(values) -> Backend:
    """Exact when every number in the (possibly nested) input is int/Fraction."""
    stack = [values]
    while stack:
        v = stack.pop()
        if isinstance(v, float):
            return FLOAT
        if isinstance(v, (tuple, list)):
            stack.extend(v)
    return EXACT
