"""Exact rational scalars.

Exact rationals are the only scalars, and the stdlib ``fractions.Fraction``
(bound to ``RAT``) is the one rational type.  ``to_rat`` is the one gate
for outside input: it keeps a ``Fraction`` as given, turns an ``int`` into
one, and rejects floats, bools and anything else that is not exact.
"""

import math
from fractions import Fraction

from ascolim.errors import InputError

RAT = Fraction


def to_rat(value):
    """An exact scalar as a ``Fraction``; ``InputError`` otherwise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InputError(f"not an exact rational: {value!r}; give an int or "
                     f'a "p/q" string')


def scale_common(values):
    """Exact rationals -> (integer numerators, common denominator)."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den
