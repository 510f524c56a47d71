"""Exact rational scalar selection.

``gmpy2``'s C-implemented rationals are used when available (an order of
magnitude faster on hashing and arithmetic); stdlib ``fractions.Fraction``
otherwise.  The two types hash and compare identically and mix freely in
arithmetic, so callers never need to care which one they hold.  Exact
rationals are the only scalars: ``to_rat`` is the one gate for outside
input and rejects floats, bools and anything else that is not exact.
"""

import math
from fractions import Fraction

from ascolim.errors import InputError

try:
    from gmpy2 import mpq as RAT

    RAT_TYPES = (int, Fraction, type(RAT(0)))
except ImportError:
    RAT = Fraction
    RAT_TYPES = (int, Fraction)


def to_rat(value):
    """Coerce an exact scalar to the RAT backend; ``InputError`` otherwise.

    Fractions built from gmpy2 numbers carry mpz internals, which breaks
    gmpy2's Fraction fast path; rebuilding from plain ints avoids that.
    """
    if isinstance(value, Fraction):
        return RAT(int(value.numerator), int(value.denominator))
    if isinstance(value, RAT_TYPES) and not isinstance(value, bool):
        return RAT(value)
    raise InputError(f"not an exact rational: {value!r}; give an int or "
                     f'a "p/q" string')


def scale_common(values):
    """Exact rationals -> (integer numerators, common denominator)."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den
