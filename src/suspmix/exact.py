"""Exact arithmetic over declared rationally independent real constants.

Real numbers are represented as rational linear combinations of a small
ordered basis of positive reals.  The basis conventionally starts with the
constant 1, and the user asserts (but the library never verifies) that the
basis elements are linearly independent over the rationals.  Float
approximations ride along for sign checks and for the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


class AmbiguousSignError(ArithmeticError):
    """A nonzero value whose float approximation sits inside the guard band."""


#: Guard band for float-based sign decisions on irrational combinations.
SIGN_GUARD = 1e-9


@dataclass(frozen=True)
class RealBasis:
    """Ordered list of (name, float approximation) pairs.

    Element 0 is conventionally the constant ``1`` with approximation 1.0.
    Names must be distinct and approximations strictly positive.  Rational
    independence of the elements is an unchecked user assertion.
    """

    names: tuple[str, ...]
    approx: tuple[float, ...]

    def __post_init__(self):
        if len(self.names) != len(self.approx) or not self.names:
            raise ValueError("basis needs matching, nonempty names/approximations")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names: %r" % (self.names,))
        if any(a <= 0 for a in self.approx):
            raise ValueError("basis approximations must be strictly positive")

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
        return QVector(self, (Fraction(0),) * len(self))

    def unit(self, i: int) -> "QVector":
        coords = [Fraction(0)] * len(self)
        coords[i] = Fraction(1)
        return QVector(self, tuple(coords))

    def from_rational(self, value) -> "QVector":
        """Embed an exact rational as ``value * 1`` (requires element 0 == "1")."""
        if self.names[0] != "1":
            raise ValueError("basis has no constant element")
        coords = [Fraction(0)] * len(self)
        coords[0] = Fraction(value)
        return QVector(self, tuple(coords))


@dataclass(frozen=True)
class QVector:
    """An exact rational combination of the elements of a RealBasis."""

    basis: RealBasis
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.basis):
            raise ValueError("coordinate count does not match basis size")

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "QVector") -> None:
        if other.basis != self.basis:
            raise ValueError("operands live over different bases")

    def __add__(self, other: "QVector") -> "QVector":
        self._check(other)
        return QVector(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check(other)
        return QVector(self.basis, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "QVector":
        return QVector(self.basis, tuple(-a for a in self.coords))

    def scale(self, k) -> "QVector":
        k = Fraction(k)
        return QVector(self.basis, tuple(k * a for a in self.coords))

    __mul__ = scale
    __rmul__ = scale

    def __float__(self) -> float:
        return math.fsum(float(c) * a for c, a in zip(self.coords, self.basis.approx))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_positive(self, guard: float = SIGN_GUARD) -> bool:
        """Sign via float approximation with a guard band.

        Exact zero is not positive.  A nonzero value whose approximation is
        within ``guard`` of 0 raises AmbiguousSignError rather than guessing.
        """
        if self.is_zero():
            return False
        f = float(self)
        if abs(f) <= guard:
            raise AmbiguousSignError(
                "cannot certify sign of %s (float %.3e within guard %g)" % (self, f, guard)
            )
        return f > 0

    def ratio_to(self, other: "QVector") -> Fraction | None:
        """The exact rational q with self == q * other, if one exists."""
        self._check(other)
        q = None
        for a, b in zip(self.coords, other.coords):
            if b == 0:
                if a != 0:
                    return None
                continue
            r = a / b
            if q is None:
                q = r
            elif q != r:
                return None
        if q is None:
            # other == 0: only 0 is a multiple of it
            return Fraction(0) if self.is_zero() else None
        return q

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Human/machine form "c0 + c1*name1 + ...", exact rationals."""
        parts = []
        for c, name in zip(self.coords, self.basis.names):
            if c == 0:
                continue
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            else:
                parts.append("%s*%s" % (c, name))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self) -> str:
        return self.render()


def parse_qvector(text: str, basis: RealBasis) -> QVector:
    """Parse the output of :meth:`QVector.render` back into a QVector."""
    coords = [Fraction(0)] * len(basis)
    index = {name: i for i, name in enumerate(basis.names)}
    body = text.strip()
    if body == "0":
        return QVector(basis, tuple(coords))
    body = body.replace(" - ", " + -")
    for term in body.split(" + "):
        term = term.strip()
        if "*" in term:
            coef, name = term.split("*", 1)
            c = Fraction(coef)
        elif term in index:
            c, name = Fraction(1), term
        elif term.startswith("-") and term[1:] in index:
            c, name = Fraction(-1), term[1:]
        else:
            c, name = Fraction(term), "1"
        if name not in index:
            raise ValueError("unknown basis element %r in %r" % (name, text))
        coords[index[name]] += c
    return QVector(basis, tuple(coords))


def rational_gcd(values: Iterable[Fraction]) -> Fraction:
    """Largest positive rational g with value/g an integer for every value.

    Computed as gcd of the numerators over a common denominator.
    """
    values = [Fraction(v) for v in values]
    if not values:
        raise ValueError("rational_gcd of an empty collection")
    if any(v == 0 for v in values):
        raise ValueError("rational_gcd requires nonzero values")
    denom = 1
    for v in values:
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    numers = [abs(v.numerator) * (denom // v.denominator) for v in values]
    g = 0
    for n in numers:
        g = math.gcd(g, n)
    return Fraction(g, denom)


def span_rank(vectors: Sequence[QVector]) -> int:
    """Rank over the rationals of the coordinate matrix, by exact elimination."""
    vectors = list(vectors)
    if not vectors:
        return 0
    basis = vectors[0].basis
    for v in vectors:
        if v.basis != basis:
            raise ValueError("span_rank over mixed bases")
    rows = [list(v.coords) for v in vectors]
    ncols = len(basis)
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
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
    delta = generator.scale(rational_gcd(multipliers))
    if not delta.is_positive():
        delta = -delta
    return delta
