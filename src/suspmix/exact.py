"""Exact arithmetic over declared rationally independent real constants.

Real numbers are represented as rational linear combinations of a small
ordered basis of positive reals.  The basis conventionally starts with the
constant 1, and the user asserts (but the library never verifies) that the
basis elements are linearly independent over the rationals.  Float
approximations ride along for the simulator, for first guesses, and for
the one sign decision exact arithmetic cannot make alone: that of a
combination with coefficients of both signs (``QVector.is_positive``).

A :class:`QVector` stores its coefficients as one row of integer
numerators over a single positive common denominator, in lowest terms, so
every exact operation is integer arithmetic and equal values have equal
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub
from typing import Iterable, Sequence


class AmbiguousSignError(ArithmeticError):
    """A nonzero value whose float approximation sits inside the guard band."""


#: Guard band for float-based sign decisions on irrational combinations.
SIGN_GUARD = 1e-9


@dataclass(frozen=True)
class RealBasis:
    """Ordered list of (name, float approximation) pairs.

    Element 0 is conventionally the constant ``1`` with approximation 1.0.
    Names must be distinct and approximations finite and strictly
    positive.  Rational independence of the elements is an unchecked user
    assertion.
    """

    names: tuple[str, ...]
    approx: tuple[float, ...]

    def __post_init__(self):
        if len(self.names) != len(self.approx) or not self.names:
            raise ValueError("basis needs matching, nonempty names/approximations")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names: %r" % (self.names,))
        for name, a in zip(self.names, self.approx):
            # NaN fails every comparison, so it is rejected too
            if not 0 < a < math.inf:
                raise ValueError("basis approximation %s = %r must be finite and strictly positive"
                                 % (name, a))
        # not a field: the hash the dataclass would compute, so set orders
        # hold; every QVector hash asks for it
        object.__setattr__(self, "_hash", hash((self.names, self.approx)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string hash differs between processes
        return RealBasis, (self.names, self.approx)

    @classmethod
    def rational(cls) -> "RealBasis":
        """The one-element basis {1}; every value is an exact rational."""
        return cls(("1",), (1.0,))

    @classmethod
    def with_constants(cls, *elements: tuple[str, float]) -> "RealBasis":
        """Basis {1} extended by the given named irrational constants."""
        names = ("1",) + tuple(name for name, _ in elements)
        approx = (1.0,) + tuple(a for _, a in elements)
        return cls(names, approx)

    def __len__(self) -> int:
        return len(self.names)

    def zero(self) -> "QVector":
        return _new(self, (0,) * len(self), 1)

    def unit(self, i: int) -> "QVector":
        num = [0] * len(self)
        num[i] = 1
        return _new(self, tuple(num), 1)

    def from_rational(self, value) -> "QVector":
        """Embed an exact rational as ``value * 1`` (requires element 0 == "1")."""
        if self.names[0] != "1":
            raise ValueError("basis has no constant element")
        value = Fraction(value)
        num = [0] * len(self)
        num[0] = value.numerator
        return _new(self, tuple(num), value.denominator)


class QVector:
    """An exact rational combination of the elements of a RealBasis.

    The coefficients are ``num[i] / den``: integer numerators over one
    positive common denominator with ``gcd(den, *num) == 1`` (zero is all
    zeros over 1).  The representation is canonical, so equality and
    hashing compare fields.  Instances are immutable.
    """

    __slots__ = ("basis", "num", "den")

    def __init__(self, basis: RealBasis, coords: Sequence):
        if len(coords) != len(basis):
            raise ValueError("coordinate count does not match basis size")
        coords = [Fraction(c) for c in coords]
        den = math.lcm(*(c.denominator for c in coords))
        # each c is in lowest terms, so these numerators share no factor with den
        _set_basis(self, basis)
        _set_num(self, tuple(c.numerator * (den // c.denominator) for c in coords))
        _set_den(self, den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, one per basis element."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not QVector:
            return NotImplemented
        return (self.den == other.den and self.num == other.num
                and (self.basis is other.basis or self.basis == other.basis))

    def __hash__(self) -> int:
        return hash((self.basis, self.num, self.den))

    def __repr__(self) -> str:
        return "QVector(basis=%r, coords=%r)" % (self.basis, self.coords)

    def __reduce__(self):
        return _new, (self.basis, self.num, self.den)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "QVector") -> None:
        if other.basis is not self.basis and other.basis != self.basis:
            raise ValueError("operands live over different bases")

    def _combine(self, other: "QVector", op) -> "QVector":
        """``op`` (add or sub) on the two numerator rows over a common denominator."""
        self._check(other)
        den = self.den
        if den == other.den:
            num = tuple(map(op, self.num, other.num))
        else:
            g = math.gcd(den, other.den)
            m, n = other.den // g, den // g
            num = tuple(op(a * m, b * n) for a, b in zip(self.num, other.num))
            den *= m
        return _reduced(self.basis, num, den)

    def __add__(self, other: "QVector") -> "QVector":
        return self._combine(other, add)

    def __sub__(self, other: "QVector") -> "QVector":
        return self._combine(other, sub)

    def __neg__(self) -> "QVector":
        return _new(self.basis, tuple(map(neg, self.num)), self.den)

    def scale(self, k) -> "QVector":
        if k.__class__ is int:
            p, q = k, 1
        else:
            k = Fraction(k)
            p, q = k.numerator, k.denominator
        if not p:
            return self.basis.zero()
        return _reduced(self.basis, tuple(p * n for n in self.num), q * self.den)

    __mul__ = scale
    __rmul__ = scale

    def __float__(self) -> float:
        # int / int is correctly rounded, so each term is float(Fraction(n, den))
        den = self.den
        return math.fsum(n / den * a for n, a in zip(self.num, self.basis.approx))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_positive(self) -> bool:
        """Whether the value is positive; every exact sign decision asks this.

        Exact zero is not positive.  The basis elements are positive, so
        when no two coefficients have opposite signs their common sign is
        the answer.  Otherwise the float approximation decides, and a value
        within the guard band ``SIGN_GUARD`` raises AmbiguousSignError
        rather than guessing.
        """
        num = self.num
        if min(num) >= 0:
            return max(num) > 0
        if max(num) <= 0:
            return False
        f = float(self)
        if abs(f) <= SIGN_GUARD:
            raise AmbiguousSignError(
                "cannot certify sign of %s (float %.3e within guard %g)" % (self, f, SIGN_GUARD)
            )
        return f > 0

    def sign(self) -> int:
        """-1, 0 or 1; ``is_positive`` decides every nonzero sign."""
        return 0 if self.is_zero() else 1 if self.is_positive() else -1

    def __lt__(self, other: "QVector") -> bool:
        return (other - self).is_positive()

    def __abs__(self) -> "QVector":
        return -self if self.sign() < 0 else self

    def ratio_to(self, other: "QVector") -> Fraction | None:
        """The exact rational q with self == q * other, if one exists."""
        self._check(other)
        pivot = next((i for i, b in enumerate(other.num) if b), None)
        if pivot is None:
            # other == 0: only 0 is a multiple of it
            return Fraction(0) if self.is_zero() else None
        a0, b0 = self.num[pivot], other.num[pivot]
        if any(a * b0 != a0 * b for a, b in zip(self.num, other.num)):
            return None
        return Fraction(a0 * other.den, b0 * self.den)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Human/machine form "c0 + c1*name1 + ...", exact rationals."""
        den = self.den
        out = ""
        for n, name in zip(self.num, self.basis.names):
            if not n:
                continue
            if den == 1:
                c = str(n)
            else:
                g = math.gcd(n, den)
                c = str(n // g) if g == den else "%d/%d" % (n // g, den // g)
            if name == "1":
                term = c
            elif c == "1":
                term = name
            else:
                term = "%s*%s" % (c, name)
            if not out:
                out = term
            elif term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out or "0"

    def __str__(self) -> str:
        return self.render()


_set_basis = QVector.basis.__set__
_set_num = QVector.num.__set__
_set_den = QVector.den.__set__


def _new(basis: RealBasis, num: tuple, den: int) -> QVector:
    """A QVector from numerators already in lowest terms over ``den`` > 0."""
    v = object.__new__(QVector)
    _set_basis(v, basis)
    _set_num(v, num)
    _set_den(v, den)
    return v


def _reduced(basis: RealBasis, num: tuple, den: int) -> QVector:
    """A QVector from any numerators over ``den`` > 0."""
    g = den if den == 1 else math.gcd(den, *num)
    if g != 1:
        num = tuple(n // g for n in num)
        den //= g
    return _new(basis, num, den)


def _coefficient(text: str) -> tuple[int, int]:
    """Numerator and positive denominator of a coefficient, as Fraction reads it.

    Plain integers and ``p/q`` in ASCII digits are read directly; anything
    else (decimals, signs Fraction accepts, bad input) goes through
    ``Fraction``, which also raises its usual errors.
    """
    p, slash, q = text.partition("/")
    digits = p[1:] if p[:1] == "-" else p
    if digits.isascii() and digits.isdigit():
        if not slash:
            return int(p), 1
        if q.isascii() and q.isdigit() and int(q):
            return int(p), int(q)
    c = Fraction(text)
    return c.numerator, c.denominator


def parse_qvector(text: str, basis: RealBasis) -> QVector:
    """Parse the output of :meth:`QVector.render` back into a QVector."""
    index = {name: i for i, name in enumerate(basis.names)}
    body = text.strip()
    if body == "0":
        return basis.zero()
    terms = []
    for term in body.replace(" - ", " + -").split(" + "):
        term = term.strip()
        try:
            if "*" in term:
                coef, name = term.split("*", 1)
                p, q = _coefficient(coef)
            elif term in index:
                p, q, name = 1, 1, term
            elif term.startswith("-") and term[1:] in index:
                p, q, name = -1, 1, term[1:]
            else:
                (p, q), name = _coefficient(term), "1"
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % text) from None
        if name not in index:
            raise ValueError("unknown basis element %r in %r" % (name, text))
        terms.append((index[name], p, q))
    den = math.lcm(*(q for _, _, q in terms))
    num = [0] * len(basis)
    for i, p, q in terms:
        num[i] += p * (den // q)
    return _reduced(basis, tuple(num), den)


def common_rows(values: Sequence[QVector]) -> tuple[int, list[tuple[int, ...]]]:
    """The values as integer numerator rows over one common denominator.

    Returns (den, rows) with ``values[i] == rows[i] / den``.  Sums and
    differences of the rows are then sums and differences of the values,
    with no gcd to take until ``from_rows`` turns them back.

    Raises
    ------
    ValueError
        If the values live over different bases.
    """
    basis = values[0].basis
    for v in values:
        if v.basis is not basis and v.basis != basis:
            raise ValueError("operands live over different bases")
    den = math.lcm(*{v.den for v in values})
    return den, [v.num if v.den == den else tuple(n * (den // v.den) for n in v.num)
                 for v in values]


def from_rows(basis: RealBasis, rows: Iterable[Sequence[int]], den: int) -> list[QVector]:
    """One QVector ``row / den`` per integer row, each in lowest terms;
    equal rows share one."""
    rows = list(map(tuple, rows))
    made = {row: _reduced(basis, row, den) for row in dict.fromkeys(rows)}
    return [made[row] for row in rows]


def rational_gcd(values: Iterable[Fraction]) -> Fraction:
    """Largest positive rational g with value/g an integer for every value.

    Computed as gcd of the numerators over a common denominator.
    """
    values = [Fraction(v) for v in values]
    if not values:
        raise ValueError("rational_gcd of an empty collection")
    if any(v == 0 for v in values):
        raise ValueError("rational_gcd requires nonzero values")
    denom = math.lcm(*(v.denominator for v in values))
    return Fraction(math.gcd(*(v.numerator * (denom // v.denominator) for v in values)), denom)


def span_rank(vectors: Sequence[QVector]) -> int:
    """Rank over the rationals of the coefficient matrix.

    Fraction-free elimination on the integer numerator rows: scaling a row
    by a nonzero rational does not change the rank, so each row is kept
    divided by the gcd of its entries.
    """
    vectors = list(vectors)
    if not vectors:
        return 0
    basis = vectors[0].basis
    for v in vectors:
        if v.basis is not basis and v.basis != basis:
            raise ValueError("span_rank over mixed bases")
    rows = [v.num for v in vectors if any(v.num)]
    rank = 0
    for col in range(len(basis)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                row = [p * a - f * b for a, b in zip(rows[r], prow)]
                g = math.gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        rank += 1
        if rank == len(rows):
            break
    return rank


def setwise_commensurate(values: Sequence[QVector]) -> QVector | None:
    """Largest delta with every value an integer multiple of delta, or None.

    Zero values are ignored (they are multiples of anything).  If the
    nonzero values span rank >= 2 over the rationals no such delta exists
    and None is returned.  With rank 1, delta is canonical: any valid
    delta divides the returned one.
    """
    nonzero = [v for v in values if not v.is_zero()]
    if not nonzero:
        raise ValueError("setwise_commensurate needs at least one nonzero value")
    if span_rank(nonzero) >= 2:
        return None
    generator = nonzero[0]
    multipliers = []
    for v in nonzero:
        q = v.ratio_to(generator)
        if q is None or q == 0:
            raise ArithmeticError("rank-1 values %s and %s have no exact ratio" % (v, generator))
        multipliers.append(q)
    return abs(generator.scale(rational_gcd(multipliers)))


def floor_mod(x, unit) -> tuple[int, object]:
    """(n, r) with x == n*unit + r and 0 <= r < unit, for unit > 0.

    ``x`` and ``unit`` are exact values with ``sign()``, ``+``, ``-`` and
    ``* int`` (QVectors, or a QuadraticReal and an int).  A float quotient
    only guesses n; the exact signs of r and r - unit decide it.
    """
    n = math.floor(float(x) / float(unit))
    r = x - unit * n
    while r.sign() < 0:
        n, r = n - 1, r + unit
    above = r - unit
    while above.sign() >= 0:
        n, r, above = n + 1, above, above - unit
    return n, r
