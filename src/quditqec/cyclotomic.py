"""Exact scalar arithmetic over roots of unity with 1/sqrt(N) scale factors.

Amplitudes produced by the code builders all have the form

    (sum_e c_e * w**e) / N**(h/2),    w = exp(2j*pi / (2*N)),

with rational coefficients c_e and h in {0, 1}.  This set is closed under
addition, multiplication and conjugation, which keeps encoded kets, Fourier
kernels and inner products exact.  Values that leave the set (arbitrary unit
phases, dense matrix entries, mixed 1/sqrt(N) parities) degrade to a complex
float carrier and stay floats from then on.

The order-2N root is used instead of order N so that the sign flips appearing
in the N = 2 phase conventions and the odd-N generalizations live in one
exponent lattice.  Zero tests reduce the exponent polynomial modulo the
order-2N cyclotomic polynomial, so cancellations such as 1 + w^2 + w^4 = 0
at N = 3 are decided exactly rather than numerically.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Magnitudes below this are treated as numerical zero in the float carrier.
FLOAT_ZERO_TOL = 1e-14


def _polydiv(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Exact polynomial division (ascending coefficients); remainder must vanish."""
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1] / den[-1]
        out[shift] = coef
        if coef:
            for i, d in enumerate(den):
                num[shift + i] -= coef * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients (ascending degree) of the order-th cyclotomic polynomial."""
    if order < 1:
        raise ValueError("order must be positive")
    poly = [Fraction(-1)] + [Fraction(0)] * (order - 1) + [Fraction(1)]
    for d in range(1, order):
        if order % d == 0:
            poly = _polydiv(poly, [Fraction(c) for c in cyclotomic_polynomial(d)])
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def residue_matrix(order: int) -> np.ndarray:
    """Integer matrix R of shape (order, phi(order)) whose row d holds the
    coefficients of x^d modulo the order-th cyclotomic polynomial.

    For w a primitive order-th root of unity, sum_d c_d w^d equals
    sum_k (c @ R)_k w^k, and with integer c the value is zero iff the
    integer vector c @ R is.  The array is read-only.
    """
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows = np.zeros((order, deg), dtype=np.int64)
    rows[:deg] = np.eye(deg, dtype=np.int64)
    for d in range(deg, order):
        # x^d = x * x^(d-1); the monic polynomial rewrites x^deg
        top = rows[d - 1, -1]
        rows[d, 1:] = rows[d - 1, :-1]
        rows[d] -= top * np.array(phi[:deg], dtype=np.int64)
    rows.flags.writeable = False
    return rows


def _reduced(coeffs: dict[int, Fraction], order: int) -> tuple[Fraction, ...]:
    """Canonical residue of sum_e c_e x^e modulo the order-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    work = [Fraction(0)] * order
    for e, c in coeffs.items():
        work[e % order] += c
    for pos in range(order - 1, deg - 1, -1):
        coef = work[pos]
        if coef:
            work[pos] = Fraction(0)
            for i in range(deg):
                work[pos - deg + i] -= coef * phi[i]
    return tuple(work[:deg])


class PhaseScalar:
    """A complex amplitude, carried exactly when possible.

    Exact values are sums of order-2N roots of unity with rational
    coefficients, divided by an optional single factor of sqrt(N).  All
    arithmetic degrades to a plain complex float as soon as an operand is
    inexact.
    """

    __slots__ = ("_n", "_coeffs", "_half", "_val")

    def __init__(self, n_levels: int | None, coeffs: dict[int, Fraction] | None,
                 half: int, val: complex | None):
        self._n = n_levels
        self._coeffs = coeffs
        self._half = half
        self._val = val
        if coeffs is not None:
            self._fold()

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, n_levels: int, scale: Fraction | int = 1,
                 exponent: int = 0, half: int = 0) -> "PhaseScalar":
        """scale * w**exponent / N**(half/2) with w the order-2N root of unity."""
        if n_levels < 2:
            raise ValueError("n_levels must be at least 2")
        scale = Fraction(scale)
        if scale < 0:
            # Fold the sign into the phase: -1 = w**N.
            scale = -scale
            exponent += n_levels
        coeffs = {} if scale == 0 else {exponent % (2 * n_levels): scale}
        return cls(n_levels, coeffs, half, None)

    @classmethod
    def exact_one(cls, n_levels: int) -> "PhaseScalar":
        return cls.monomial(n_levels, 1, 0, 0)

    @classmethod
    def exact_zero(cls, n_levels: int) -> "PhaseScalar":
        return cls(n_levels, {}, 0, None)

    @classmethod
    def from_complex(cls, value: complex) -> "PhaseScalar":
        return cls(None, None, 0, complex(value))

    # -- kind and conversion --------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._coeffs is not None

    @property
    def n_levels(self) -> int | None:
        return self._n

    @property
    def parts(self) -> tuple[dict[int, Fraction], int] | None:
        """(coefficients by exponent, half) of an exact value, which is
        sum_e c_e w**e / N**(half/2); None for a float."""
        if self._coeffs is None:
            return None
        return dict(self._coeffs), self._half

    def to_complex(self) -> complex:
        if self._val is not None:
            return self._val
        order = 2 * self._n
        total = 0j
        for e, c in self._coeffs.items():
            total += float(c) * cmath.exp(2j * math.pi * e / order)
        if self._half:
            total /= math.sqrt(self._n)
        self._val = total  # kept for the next call; exact arithmetic ignores it
        return total

    def __getstate__(self):
        # the float kept for an exact value is not pickled
        return None, {"_n": self._n, "_coeffs": self._coeffs, "_half": self._half,
                      "_val": None if self.is_exact else self._val}

    # -- canonical form --------------------------------------------------

    def _fold(self) -> None:
        # Keep half in {0, 1}; for square N even the residual sqrt is rational.
        n = self._n
        while self._half >= 2:
            self._coeffs = {e: c / n for e, c in self._coeffs.items()}
            self._half -= 2
        if self._half:
            root = math.isqrt(n)
            if root * root == n:
                self._coeffs = {e: c / root for e, c in self._coeffs.items()}
                self._half = 0
        if self._half and not self._coeffs:
            self._half = 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "PhaseScalar") -> "PhaseScalar":
        if not isinstance(other, PhaseScalar):
            return NotImplemented
        if self._coeffs is not None and other._coeffs is not None:
            if self._n != other._n:
                raise ValueError("cannot mix exact scalars of different n_levels")
            if not self._coeffs:
                return other
            if not other._coeffs:
                return self
            if self._half != other._half:
                # 1 and 1/sqrt(N) do not share an exact lattice; drop to float.
                return PhaseScalar.from_complex(self.to_complex() + other.to_complex())
            merged = dict(self._coeffs)
            for e, c in other._coeffs.items():
                merged[e] = merged.get(e, Fraction(0)) + c
                if not merged[e]:
                    del merged[e]
            return PhaseScalar(self._n, merged, self._half, None)
        return PhaseScalar.from_complex(self.to_complex() + other.to_complex())

    def __neg__(self) -> "PhaseScalar":
        if self._coeffs is None:
            return PhaseScalar.from_complex(-self._val)
        return PhaseScalar(self._n, {e: -c for e, c in self._coeffs.items()},
                           self._half, None)

    def __sub__(self, other: "PhaseScalar") -> "PhaseScalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PhaseScalar):
            if self._coeffs is not None and other._coeffs is not None:
                if self._n != other._n:
                    raise ValueError("cannot mix exact scalars of different n_levels")
                order = 2 * self._n
                prod: dict[int, Fraction] = {}
                for e1, c1 in self._coeffs.items():
                    for e2, c2 in other._coeffs.items():
                        e = (e1 + e2) % order
                        prod[e] = prod.get(e, Fraction(0)) + c1 * c2
                        if not prod[e]:
                            del prod[e]
                return PhaseScalar(self._n, prod, self._half + other._half, None)
            return PhaseScalar.from_complex(self.to_complex() * other.to_complex())
        if isinstance(other, (int, Fraction)):
            if self._coeffs is None:
                return PhaseScalar.from_complex(self._val * other)
            if other == 0:
                return PhaseScalar.exact_zero(self._n)
            if other < 0:
                return (-self) * (-other)
            return PhaseScalar(self._n,
                               {e: c * other for e, c in self._coeffs.items()},
                               self._half, None)
        if isinstance(other, (float, complex)):
            return PhaseScalar.from_complex(self.to_complex() * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "PhaseScalar":
        if self._coeffs is None:
            return PhaseScalar.from_complex(self._val.conjugate())
        order = 2 * self._n
        return PhaseScalar(self._n,
                           {(-e) % order: c for e, c in self._coeffs.items()},
                           self._half, None)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        if self._coeffs is None:
            return abs(self._val) < FLOAT_ZERO_TOL
        if not self._coeffs:
            return True
        return not any(_reduced(self._coeffs, 2 * self._n))

    def equals(self, other: "PhaseScalar", tol: float = 0.0) -> bool:
        """Exact equality when both operands are exact with matching sqrt parity;
        otherwise a float comparison at max(tol, 1e-12)."""
        if self.is_exact and other.is_exact and self._n == other._n:
            if self._half == other._half or self.is_zero() or other.is_zero():
                return (self - other).is_zero()
        return abs(self.to_complex() - other.to_complex()) <= max(tol, 1e-12)

    def abs_sq(self) -> float:
        return abs(self.to_complex()) ** 2

    def abs_sq_fraction(self) -> Fraction | None:
        """|value|^2 as an exact rational, or None when it is irrational/inexact."""
        if self._coeffs is None:
            return None
        prod = self * self.conjugate()
        reduced = _reduced(prod._coeffs, 2 * prod._n)
        if any(reduced[1:]):
            return None
        # half folded to parity; an odd residual sqrt cannot square to rational
        # here because |v|^2 doubles the half exponent, so half is always 0.
        return reduced[0] if not prod._half else None

    # -- rescaling ---------------------------------------------------------

    def div_sqrt(self, square: Fraction) -> "PhaseScalar":
        """Divide by sqrt(square), staying exact when square = N**j * (rational)**2."""
        if square <= 0:
            raise ValueError("can only divide by the root of a positive value")
        if self._coeffs is None:
            return PhaseScalar.from_complex(self._val / math.sqrt(square))
        num, den = square.numerator, square.denominator
        shift = 0
        while num % self._n == 0:
            num //= self._n
            shift += 1
        while den % self._n == 0:
            den //= self._n
            shift -= 1
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            return PhaseScalar.from_complex(self.to_complex() / math.sqrt(square))
        scale = Fraction(rd, rn)
        coeffs = {e: c * scale for e, c in self._coeffs.items()}
        half = self._half + shift
        if half < 0:
            # value = poly * N**(k/2) = poly * N**ceil(k/2) / N**((k % 2)/2)
            k = -half
            lift = Fraction(self._n) ** ((k + 1) // 2)
            coeffs = {e: c * lift for e, c in coeffs.items()}
            half = k % 2
        return PhaseScalar(self._n, coeffs, half, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "exact" if self.is_exact else "float"
        return f"PhaseScalar[{kind}]({self.to_complex():.6g})"


def root_of_unity(n_levels: int, exponent: int) -> PhaseScalar:
    """Exact exp(2*pi*i*exponent/n_levels); periodic in exponent mod n_levels."""
    if n_levels < 2:
        raise ValueError("n_levels must be at least 2")
    return PhaseScalar.monomial(n_levels, 1, 2 * exponent, 0)
