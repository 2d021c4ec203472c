"""Exact rational arithmetic and deterministic decimal rendering.

Every quantity that gates a check in this package is a Rational, which is
the standard library's fractions.Fraction: lowest terms, positive
denominator, exact ops. Floats never enter any comparison; decimals are
rendered to SIG significant digits for display only.
"""

from __future__ import annotations

from fractions import Fraction as Rational

SIG = 12  # significant digits of every rendered decimal
ZERO = Rational(0)
ONE = Rational(1)


class RationalParseError(ValueError):
    pass


def rat(text) -> Rational:
    """Parse '<int>' or '<int>/<posint>' into a Rational.

    Also accepts ints and Rationals unchanged, so callers can be sloppy about
    whether a value came from a file or was built in code.
    """
    if isinstance(text, int):
        return Rational(text)
    if isinstance(text, Rational):
        return text
    if not isinstance(text, str):
        raise RationalParseError("expected rational string, got %r" % (text,))
    s = text.strip()
    if "/" in s:
        left, _, right = s.partition("/")
        try:
            num = int(left)
            den = int(right)
        except ValueError:
            raise RationalParseError("bad rational %r" % text) from None
        if den <= 0:
            raise RationalParseError("denominator must be positive in %r" % text)
        return Rational(num, den)
    try:
        return Rational(int(s))
    except ValueError:
        raise RationalParseError("bad rational %r" % text) from None


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


def _floor_log10(num: int, den: int) -> int:
    # exponent e with 10^e <= num/den < 10^(e+1), num and den positive
    e = len(str(num)) - len(str(den))
    while num * 10 ** max(0, -e) < den * 10 ** max(0, e):
        e -= 1
    while num * 10 ** max(0, -(e + 1)) >= den * 10 ** max(0, e + 1):
        e += 1
    return e


def decimal_str(q) -> str:
    """Render a Rational as a decimal with SIG significant digits.

    Round-half-even, trailing zeros trimmed, plain notation for the magnitudes
    this package produces (scientific only beyond 10^±21). Pure integer
    arithmetic, so output is identical across platforms.
    """
    q = rat(q)
    num, den = q.numerator, q.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    e = _floor_log10(num, den)
    shift = SIG - 1 - e
    if shift >= 0:
        scaled_num, rem = divmod(num * 10 ** shift, den)
    else:
        scaled_num, rem = divmod(num, den * 10 ** (-shift))
    # round half to even on the discarded remainder
    divisor = den if shift >= 0 else den * 10 ** (-shift)
    if 2 * rem > divisor or (2 * rem == divisor and scaled_num % 2 == 1):
        scaled_num += 1
    if scaled_num == 10 ** SIG:
        scaled_num //= 10
        e += 1
    digits = str(scaled_num).rjust(SIG, "0")
    if e < -21 or e > 21:
        mant = digits[0] + "." + digits[1:].rstrip("0")
        mant = mant.rstrip(".")
        return "%s%se%+d" % (sign, mant, e)
    if e >= SIG - 1:
        return sign + digits + "0" * (e - SIG + 1)
    if e >= 0:
        head, tail = digits[: e + 1], digits[e + 1 :].rstrip("0")
        return sign + head + ("." + tail if tail else "")
    body = "0" * (-e - 1) + digits
    body = body.rstrip("0")
    return sign + "0." + body


def kth_root_str(q, k: int) -> str:
    """Decimal string of q**(1/k) to SIG significant digits, q >= 0 exact.

    Scales to an integer k-th root with guard digits, so the result is
    deterministic and accurate well past the rendered precision.
    """
    q = rat(q)
    if q < 0:
        raise ValueError("kth_root_str needs q >= 0")
    if q == 0:
        return "0"
    if k == 1:
        return decimal_str(q)
    num, den = q.numerator, q.denominator
    guard = SIG + 20
    # q^(1/k) = (num * den^(k-1))^(1/k) / den
    scaled = iroot(num * den ** (k - 1) * 10 ** (k * guard), k)
    return decimal_str(Rational(scaled, den * 10 ** guard))
