"""Sparse superpositions over a finite row of N-level registers.

A basis ket is a tuple of digits in range(N), one per register, listed left
to right.  Register positions are 1-based throughout the package.  States are
immutable in spirit: every operation returns a fresh ``RegisterState``.
Amplitudes are ``PhaseScalar`` values, so states built from the code
factories stay exact until an inexact operator touches them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .cyclotomic import FLOAT_ZERO_TOL, PhaseScalar

Digits = tuple[int, ...]


def index_of_ket(digits: Iterable[int], n_levels: int) -> int:
    """Big-endian digit-tuple to dense index: the leftmost register is most significant."""
    idx = 0
    for d in digits:
        idx = idx * n_levels + d
    return idx


def ket_of_index(index: int, n_levels: int, width: int) -> Digits:
    """Inverse of :func:`index_of_ket` for a register row of the given width."""
    if not 0 <= index < n_levels ** width:
        raise ValueError(f"index {index} out of range for width {width}")
    out = []
    for _ in range(width):
        index, d = divmod(index, n_levels)
        out.append(d)
    return tuple(reversed(out))


class RegisterState:
    """Sparse state of ``width`` registers with ``n_levels`` levels each."""

    __slots__ = ("n_levels", "width", "terms")

    def __init__(self, n_levels: int, width: int,
                 terms: Mapping[Digits, PhaseScalar], validate: bool = True):
        if n_levels < 2:
            raise ValueError("n_levels must be at least 2")
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.n_levels = n_levels
        self.width = width
        self.terms = dict(terms)
        if validate:
            for digits in self.terms:
                if len(digits) != width:
                    raise ValueError(f"ket {digits} does not have width {width}")
                if any(not 0 <= d < n_levels for d in digits):
                    raise ValueError(f"ket {digits} has digits outside range({n_levels})")
            self._prune()

    @classmethod
    def _raw(cls, n_levels: int, width: int,
             terms: dict[Digits, PhaseScalar]) -> "RegisterState":
        return cls(n_levels, width, terms, validate=False)

    @classmethod
    def basis(cls, n_levels: int, digits: Iterable[int]) -> "RegisterState":
        digits = tuple(digits)
        return cls(n_levels, len(digits), {digits: PhaseScalar.exact_one(n_levels)})

    def _prune(self) -> None:
        dead = [k for k, a in self.terms.items() if a.is_zero()]
        for k in dead:
            del self.terms[k]

    # -- inspection -------------------------------------------------------

    def amplitude(self, digits: Iterable[int]) -> PhaseScalar:
        digits = tuple(digits)
        amp = self.terms.get(digits)
        if amp is None:
            return PhaseScalar.exact_zero(self.n_levels) if self.is_exact \
                else PhaseScalar.from_complex(0j)
        return amp

    @property
    def is_exact(self) -> bool:
        return all(a.is_exact for a in self.terms.values())

    def __eq__(self, other) -> bool:
        """Same registers, same terms, and every amplitude equal as
        ``PhaseScalar.equals`` with no tolerance."""
        if not isinstance(other, RegisterState):
            return NotImplemented
        return (self.n_levels, self.width) == (other.n_levels, other.width) \
            and self.terms.keys() == other.terms.keys() \
            and all(amp.equals(other.terms[k], tol=0)
                    for k, amp in self.terms.items())

    # states are compared, never used as keys
    __hash__ = None

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Digits, PhaseScalar]]:
        return iter(sorted(self.terms.items()))

    def norm_sq(self) -> float:
        return math.fsum(a.abs_sq() for a in self.terms.values())

    def norm_sq_fraction(self) -> Fraction | None:
        """Exact squared norm, or None if any amplitude contributes irrationally."""
        total = Fraction(0)
        for a in self.terms.values():
            piece = a.abs_sq_fraction()
            if piece is None:
                return None
            total += piece
        return total

    def to_complex_terms(self) -> dict[Digits, complex]:
        return {k: a.to_complex() for k, a in self.terms.items()}

    # -- construction helpers ----------------------------------------------

    def scaled(self, factor) -> "RegisterState":
        return RegisterState._raw(self.n_levels, self.width,
                                  {k: a * factor for k, a in self.terms.items()})

    def normalized(self) -> "RegisterState":
        exact = self.norm_sq_fraction()
        if exact is not None:
            if exact == 0:
                raise ValueError("cannot normalize the zero state")
            out = {k: a.div_sqrt(exact) for k, a in self.terms.items()}
            return RegisterState._raw(self.n_levels, self.width, out)
        nsq = self.norm_sq()
        if nsq < FLOAT_ZERO_TOL:
            raise ValueError("cannot normalize the zero state")
        root = math.sqrt(nsq)
        return RegisterState._raw(
            self.n_levels, self.width,
            {k: PhaseScalar.from_complex(a.to_complex() / root)
             for k, a in self.terms.items()})

    def __add__(self, other: "RegisterState") -> "RegisterState":
        if (self.n_levels, self.width) != (other.n_levels, other.width):
            raise ValueError("cannot add states of different shape")
        merged = dict(self.terms)
        for k, a in other.terms.items():
            if k in merged:
                merged[k] = merged[k] + a
            else:
                merged[k] = a
        out = RegisterState._raw(self.n_levels, self.width, merged)
        out._prune()
        return out

    def tensor(self, other: "RegisterState") -> "RegisterState":
        if self.n_levels != other.n_levels:
            raise ValueError("cannot tensor states with different n_levels")
        terms: dict[Digits, PhaseScalar] = {}
        # builder kets share a few amplitude objects: each distinct pair of
        # them is multiplied once
        products: dict[tuple[int, int], PhaseScalar] = {}
        for k1, a1 in self.terms.items():
            for k2, a2 in other.terms.items():
                pair = (id(a1), id(a2))
                if pair not in products:
                    products[pair] = a1 * a2
                terms[k1 + k2] = products[pair]
        return RegisterState._raw(self.n_levels, self.width + other.width, terms)


def inner_product(a: RegisterState, b: RegisterState) -> PhaseScalar:
    """<a|b>, conjugate-linear in the first argument."""
    if (a.n_levels, a.width) != (b.n_levels, b.width):
        raise ValueError("inner product requires states of identical shape")
    small, big, conj_small = (a, b, True) if len(a) <= len(b) else (b, a, False)
    if a.is_exact and b.is_exact:
        acc = PhaseScalar.exact_zero(a.n_levels)
    else:
        acc = PhaseScalar.from_complex(0j)
    for k, amp in small.terms.items():
        other = big.terms.get(k)
        if other is None:
            continue
        if conj_small:
            acc = acc + amp.conjugate() * other
        else:
            acc = acc + other.conjugate() * amp
    return acc


def _check_position(state: RegisterState, position: int) -> int:
    if not 1 <= position <= state.width:
        raise IndexError(f"register position {position} outside 1..{state.width}")
    return position - 1


def apply_single(state: RegisterState, position: int, op,
                 adjoint: bool = False) -> RegisterState:
    """Apply a single-register operator at the (1-based) position.

    ``op`` must provide ``branches(digit, n_levels, adjoint)`` yielding
    (new_digit, factor) pairs; ``factor`` may be a PhaseScalar or a plain
    complex number.
    """
    slot = _check_position(state, position)
    n = state.n_levels
    out: dict[Digits, PhaseScalar] = {}
    for digits, amp in state.terms.items():
        for new_digit, factor in op.branches(digits[slot], n, adjoint):
            if not isinstance(factor, PhaseScalar):
                factor = PhaseScalar.from_complex(factor)
            new_key = digits[:slot] + (new_digit,) + digits[slot + 1:]
            piece = amp * factor
            if new_key in out:
                out[new_key] = out[new_key] + piece
            else:
                out[new_key] = piece
    result = RegisterState._raw(n, state.width, out)
    result._prune()
    return result


class _Fourier:
    """The register DFT as an ``apply_single`` operator; its adjoint is the
    inverse transform."""

    @staticmethod
    def branches(digit: int, n_levels: int, adjoint: bool):
        sign = -1 if adjoint else 1
        return [(p, PhaseScalar.monomial(n_levels, 1, 2 * sign * digit * p, 1))
                for p in range(n_levels)]


def dft_register(state: RegisterState, position: int,
                 inverse: bool = False) -> RegisterState:
    """Fourier-transform one register: |j> -> sum_p w^(jp) |p> / sqrt(N).

    The forward kernel uses the positive exponent convention; ``inverse``
    negates it.  Applying the forward transform twice negates the digit.
    """
    return apply_single(state, position, _Fourier, adjoint=inverse)


def states_equal_up_to_phase(a: RegisterState, b: RegisterState,
                             tol: float = 1e-9) -> bool:
    """True when b = (unit scalar) * a.  Exact when both states are exact.

    Works by cross-multiplication against a reference ket, so no division
    is needed: b[k] * a[k0] must equal a[k] * b[k0] for every ket k, and the
    reference amplitudes must have equal magnitude.
    """
    if (a.n_levels, a.width) != (b.n_levels, b.width):
        return False
    if set(a.terms) != set(b.terms):
        if a.is_exact and b.is_exact:
            return False
        # Float states may carry near-zero stragglers; fall back to a scan.
        keys = set(a.terms) | set(b.terms)
    else:
        keys = set(a.terms)
    if not keys:
        return True
    ref = max(sorted(keys), key=lambda k: a.amplitude(k).abs_sq())
    ra, rb = a.amplitude(ref), b.amplitude(ref)
    exact = a.is_exact and b.is_exact
    if exact:
        if ra.abs_sq_fraction() != rb.abs_sq_fraction():
            return False
    elif abs(ra.abs_sq() - rb.abs_sq()) > tol:
        return False
    for k in keys:
        lhs = b.amplitude(k) * ra
        rhs = a.amplitude(k) * rb
        if exact:
            if not lhs.equals(rhs):
                return False
        elif abs(lhs.to_complex() - rhs.to_complex()) > tol:
            return False
    return True


def plus_state(n_levels: int, width: int = 1) -> RegisterState:
    """Uniform superposition over all kets of the given width."""
    state = RegisterState.basis(n_levels, (0,) * width)
    for pos in range(1, width + 1):
        state = dft_register(state, pos)
    return state
