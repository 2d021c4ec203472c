"""Exact rational arithmetic and deterministic decimal rendering.

Every quantity that gates a check in this package is a Rational, which is
the standard library's fractions.Fraction: lowest terms, positive
denominator, exact ops. Floats never enter any comparison; decimals are
rendered to SIG significant digits for display only, by the standard
library's decimal module in a context of that precision rounding half-even.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction as Rational

SIG = 12  # significant digits of every rendered decimal
_DECIMALS = Context(prec=SIG, rounding=ROUND_HALF_EVEN)
ZERO = Rational(0)
ONE = Rational(1)


class RationalParseError(ValueError):
    pass


def is_int_text(s: str) -> bool:
    """Whether s is an `<int>`: ASCII digits after an optional '-'. int()
    alone would also take "1_0", "+3", surrounding spaces and non-ASCII
    digits."""
    return s.isascii() and (s.isdigit() or s[:1] == "-" and s[1:].isdigit())


def rat(text) -> Rational:
    """Parse '<int>' or '<int>/<posint>' into a Rational: ASCII digits, an
    optional leading '-', nothing else after surrounding whitespace is
    stripped.

    Also accepts ints and Rationals unchanged, so callers can be sloppy about
    whether a value came from a file or was built in code; a bool is not a
    number here (JSON's true must not read as 1).
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Rational(text)
    if isinstance(text, Rational):
        return text
    if not isinstance(text, str):
        raise RationalParseError("expected rational string, got %r" % (text,))
    s = text.strip()
    left, slash, right = s.partition("/")
    # is_int_text(left), written out: trace_from_json parses every distinct
    # value of a trace here
    if not (s.isascii() and (left.isdigit() or left[:1] == "-" and left[1:].isdigit())
            and (right.isdigit() or not slash)):
        raise RationalParseError("bad rational %r" % text)
    if not slash:
        return Rational(int(left))
    den = int(right)
    if den == 0:
        raise RationalParseError("denominator must be positive in %r" % text)
    return Rational(int(left), den)


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by Newton iteration."""
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0, k >= 1")
    if x == 0:
        return 0
    if k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def decimal_str(q) -> str:
    """Render a Rational as a decimal with SIG significant digits.

    One division in the decimal context _DECIMALS, rounded half-even;
    trailing zeros trimmed, plain notation for the magnitudes this package
    produces (scientific only beyond 10^±21).
    """
    q = rat(q)
    d = _DECIMALS.divide(Decimal(q.numerator), Decimal(q.denominator)).normalize(_DECIMALS)
    return format(d, "e" if abs(d.adjusted()) > 21 else "f")


def kth_root_str(q, k: int) -> str:
    """Decimal string of q**(1/k) to SIG significant digits, q >= 0 exact.

    Scales to an integer k-th root with guard digits, so the result is
    deterministic and accurate well past the rendered precision.
    """
    q = rat(q)
    if q < 0:
        raise ValueError("kth_root_str needs q >= 0")
    num, den = q.numerator, q.denominator
    guard = SIG + 20
    # q^(1/k) = (num * den^(k-1))^(1/k) / den
    scaled = iroot(num * den ** (k - 1) * 10 ** (k * guard), k)
    return decimal_str(Rational(scaled, den * 10 ** guard))
