"""Exact q-arithmetic over a prime q.

q-integers [l] = (q^l - 1)/(q - 1), Gaussian binomials, prime field
helpers, and scalars of the form c * q^(e/2) with c rational.  All
results are exact; q-integers with negative index produce Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FalsifiedFact, InvalidParameters
from .report import CheckSet


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldContext:
    """The prime field Z/qZ with elements 0..q-1; making one checks that
    q is prime."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise InvalidParameters(f"q must be a prime integer, got {q!r}")
        self.q = q

    def __repr__(self) -> str:
        return f"FieldContext(q={self.q})"


def q_int(l: int, q: int):
    """The q-integer [l] = (q^l - 1)/(q - 1).

    Returns an int for l >= 0 and a Fraction for l < 0.  [0] = 0.
    """
    if q < 2:
        raise InvalidParameters(f"q must be at least 2, got {q}")
    if l >= 0:
        return (q**l - 1) // (q - 1)
    return Fraction(Fraction(q) ** l - 1, q - 1)


def q_power(q: int, e: int):
    """q^e: an int for e >= 0 and a Fraction for e < 0."""
    if e >= 0:
        return q**e
    return Fraction(1, q**-e)


def q_binomial(l: int, n: int, q: int) -> int:
    """Gaussian binomial coefficient: the number of n-dimensional
    subspaces of an l-dimensional space over a field with q elements.

    Zero whenever l < n or n < 0.
    """
    if q < 2:
        raise InvalidParameters(f"q must be at least 2, got {q}")
    if n < 0 or l < n:
        return 0
    n = min(n, l - n)
    num = 1
    den = 1
    for t in range(1, n + 1):
        num *= q_int(l - n + t, q)
        den *= q_int(t, q)
    quotient, remainder = divmod(num, den)
    if remainder:
        raise FalsifiedFact("q-binomial did not divide exactly")
    return quotient


@dataclass(frozen=True)
class SqrtQScalar:
    """A scalar c * q^(h/2) with c a Fraction and h an integer.

    Normalized so that h is 0 or 1: even powers of q^(1/2) are folded
    into the rational coefficient.  Exact ring operations only.
    """

    q: int
    coeff: Fraction
    half: int

    @staticmethod
    def of(q: int, coeff, half_exponent: int = 0) -> "SqrtQScalar":
        c = Fraction(coeff)
        whole, rem = divmod(half_exponent, 2)
        c *= Fraction(q) ** whole
        if c == 0:
            rem = 0
        return SqrtQScalar(q, c, rem)

    def __mul__(self, other):
        if isinstance(other, SqrtQScalar):
            if other.q != self.q:
                raise InvalidParameters("mixed q in SqrtQScalar product")
            return SqrtQScalar.of(self.q, self.coeff * other.coeff, self.half + other.half)
        return SqrtQScalar.of(self.q, self.coeff * Fraction(other), self.half)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, SqrtQScalar) or other.q != self.q:
            raise InvalidParameters("SqrtQScalar addition requires matching q")
        if other.half != self.half:
            if self.coeff == 0:
                return other
            if other.coeff == 0:
                return self
            raise InvalidParameters("cannot add scalars with mixed q^(1/2) parity")
        return SqrtQScalar.of(self.q, self.coeff + other.coeff, self.half)

    def is_rational(self) -> bool:
        return self.half == 0

    def as_fraction(self) -> Fraction:
        if self.half:
            raise InvalidParameters("scalar carries an odd power of q^(1/2)")
        return self.coeff

    def __repr__(self) -> str:
        if self.half:
            return f"({self.coeff})*sqrt({self.q})"
        return f"({self.coeff})"


def _ordinary_binom2(j: int) -> int:
    return j * (j - 1) // 2


def verify_q_identities(l_max: int, q: int) -> CheckSet:
    """Check the Pascal-type recurrence and the two alternating-sum
    identities for all admissible l <= l_max, exactly.

    All three are checked in integers against one table of Gaussian
    binomials, binom[l][j] = q_binomial(l, j, q) for 0 <= j <= l and 0
    outside, built once per call.  The shifted sum has exponents
    binom(j, 2) - j >= -1, so it is checked multiplied by q; a Fraction
    is built only to write its witness.  Records the first
    counterexample, if any, as the check witness.
    """
    cs = CheckSet(f"q-identities q={q} l_max={l_max}")
    binom = [[q_binomial(l, j, q) for j in range(l + 1)] for l in range(l_max + 1)]

    def entry(l: int, j: int) -> int:
        return binom[l][j] if 0 <= j <= l else 0

    bad = None
    for l in range(1, l_max + 1):
        for j in range(l + 1):
            lhs = binom[l][j]
            rhs = q**j * entry(l - 1, j) + entry(l - 1, j - 1)
            if lhs != rhs:
                bad = f"l={l} j={j}: {lhs} != {rhs}"
                break
        if bad:
            break
    cs.check("pascal_recurrence", None, bad, witness=bad)

    signed = [(-1) ** j * q ** _ordinary_binom2(j) for j in range(l_max + 1)]
    bad = None
    for l in range(l_max + 1):
        total = sum(signed[j] * binom[l][j] for j in range(l + 1))
        if total != (1 if l == 0 else 0):
            bad = f"l={l}: sum={total}"
            break
    cs.check("alternating_sum", None, bad, witness=bad)

    # q * (-1)^j q^(binom(j, 2) - j), every exponent >= 0
    shifted = [(-1) ** j * q ** (_ordinary_binom2(j) - j + 1) for j in range(l_max + 1)]
    bad = None
    for l in range(2, l_max + 1):
        total = sum(shifted[j] * binom[l][j] for j in range(l + 1))
        if total != 0:
            bad = f"l={l}: sum={Fraction(total, q)}"
            break
    cs.check("alternating_sum_shifted", None, bad, witness=bad)

    cs.record("l_max", l_max)
    cs.record("q", q)
    return cs
