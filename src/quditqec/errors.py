"""Single-register errors, multi-register error patterns, and pattern families.

The single-register taxonomy covers digit permutations/functions (spin
flips), diagonal unit phases, the Weyl shift-and-phase operators X^a Z^b
(with Z applied first: X^a Z^b |j> = w_N^(b*j) |j + a>), and arbitrary
dense matrices.  Weyl operators with b = 0 are the additive spin flips
|j> -> |j + alpha>; the N^2 - 1 non-identity Weyl operators span the full
single-register operator space, which is why pattern families default to
a Weyl basis.

A pattern family is the set of all patterns with at most ``max_errors``
non-identity entries inside any window of ``window`` consecutive registers,
with each entry drawn from a fixed basis list.  Enumeration is lazy and
deterministic: the identity pattern first, then supports in lexicographic
order, then basis assignments in index order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .cyclotomic import PhaseScalar
from .states import RegisterState, apply_single


@dataclass(frozen=True)
class SingleRegisterError:
    """One register operator; construct via the module-level factories."""

    kind: str
    a: int = 0
    b: int = 0
    table: tuple[int, ...] | None = None
    phases: tuple[complex, ...] | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None

    def branches(self, digit: int, n_levels: int,
                 adjoint: bool = False) -> list[tuple[int, object]]:
        """(new_digit, factor) branches of applying this operator (or its adjoint)."""
        n = n_levels
        if self.kind == "identity":
            return [(digit, PhaseScalar.exact_one(n))]
        if self.kind == "weyl":
            a, b = self.a % n, self.b % n
            if not adjoint:
                return [((digit + a) % n,
                         PhaseScalar.monomial(n, 1, 2 * b * digit, 0))]
            new = (digit - a) % n
            return [(new, PhaseScalar.monomial(n, 1, -2 * b * new, 0))]
        if self.kind == "spin_flip":
            if len(self.table) != n:
                raise ValueError("spin flip table length does not match n_levels")
            one = PhaseScalar.exact_one(n)
            if not adjoint:
                return [(self.table[digit] % n, one)]
            return [(j, one) for j in range(n) if self.table[j] % n == digit]
        if self.kind == "phase_shift":
            if len(self.phases) != n:
                raise ValueError("phase table length does not match n_levels")
            f = self.phases[digit]
            return [(digit, f.conjugate() if adjoint else f)]
        if self.kind == "general":
            if len(self.matrix) != n:
                raise ValueError("matrix shape does not match n_levels")
            if not adjoint:
                return [(j, self.matrix[j][digit]) for j in range(n)
                        if self.matrix[j][digit] != 0]
            return [(j, self.matrix[digit][j].conjugate()) for j in range(n)
                    if self.matrix[digit][j] != 0]
        raise ValueError(f"unknown error kind {self.kind!r}")

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity" or \
            (self.kind == "weyl" and self.a == 0 and self.b == 0)

    def to_json(self) -> dict:
        if self.kind == "weyl":
            return {"kind": "weyl", "a": self.a, "b": self.b}
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "spin_flip":
            return {"kind": "spin_flip", "table": list(self.table)}
        if self.kind == "phase_shift":
            return {"kind": "phase_shift",
                    "phases": [[z.real, z.imag] for z in self.phases]}
        return {"kind": "general",
                "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix]}

    @classmethod
    def from_json(cls, data: Mapping) -> "SingleRegisterError":
        kind = data.get("kind", "weyl")
        if kind == "identity":
            return identity()
        if kind == "weyl":
            return weyl(data["a"], data["b"])
        if kind == "spin_flip":
            return spin_flip(data["table"])
        if kind == "phase_shift":
            return phase_shift([complex(re, im) for re, im in data["phases"]])
        if kind == "general":
            return general([[complex(re, im) for re, im in row]
                            for row in data["matrix"]])
        raise ValueError(f"unknown error kind {kind!r}")


def identity() -> SingleRegisterError:
    """The identity operator, which leaves every register unchanged."""
    return SingleRegisterError("identity")


def weyl(a: int, b: int) -> SingleRegisterError:
    """X^a Z^b; Z is applied first, so weyl(a, b)|j> = w_N^(b*j) |j + a mod N>."""
    return SingleRegisterError("weyl", a=a, b=b)


def additive_flip(alpha: int) -> SingleRegisterError:
    """|j> -> |j + alpha mod N>; identical to weyl(alpha, 0)."""
    return weyl(alpha, 0)


def spin_flip(table: Sequence[int]) -> SingleRegisterError:
    """|j> -> |table[j]>; the table may be any function, not just a permutation."""
    return SingleRegisterError("spin_flip", table=tuple(int(t) for t in table))


def phase_shift(phases: Sequence[complex]) -> SingleRegisterError:
    """Diagonal operator |j> -> phases[j] |j>; entries must be unit modulus."""
    phases = tuple(complex(z) for z in phases)
    for z in phases:
        if abs(abs(z) - 1.0) > 1e-12:
            raise ValueError("phase shift entries must have unit modulus")
    return SingleRegisterError("phase_shift", phases=phases)


def general(matrix) -> SingleRegisterError:
    """Arbitrary dense single-register operator from a nested sequence or array."""
    rows = tuple(tuple(complex(z) for z in row) for row in matrix)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("general error matrix must be square")
    return SingleRegisterError("general", matrix=rows)


def weyl_basis(n_levels: int) -> list[SingleRegisterError]:
    """The N^2 - 1 non-identity Weyl operators, ordered lexicographically by (a, b)."""
    if n_levels < 2:
        raise ValueError("n_levels must be at least 2")
    return [weyl(a, b)
            for a in range(n_levels) for b in range(n_levels)
            if (a, b) != (0, 0)]


@dataclass(frozen=True)
class ErrorPattern:
    """A placement of non-identity single-register errors on a register row."""

    width: int
    ops: tuple[tuple[int, SingleRegisterError], ...]

    @classmethod
    def from_dict(cls, width: int,
                  placed: Mapping[int, SingleRegisterError]) -> "ErrorPattern":
        items = []
        for pos, op in placed.items():
            if not 1 <= pos <= width:
                raise IndexError(f"pattern position {pos} outside 1..{width}")
            if not op.is_identity:
                items.append((pos, op))
        items.sort(key=lambda item: item[0])
        return cls(width, tuple(items))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.ops)

    @property
    def weight(self) -> int:
        return len(self.ops)

    def to_json(self) -> dict:
        return {"width": self.width,
                "ops": [{"position": pos, **op.to_json()} for pos, op in self.ops]}

    @classmethod
    def from_json(cls, data: Mapping) -> "ErrorPattern":
        placed = {entry["position"]: SingleRegisterError.from_json(entry)
                  for entry in data["ops"]}
        return cls.from_dict(data["width"], placed)


def apply_pattern(state: RegisterState, pattern: ErrorPattern,
                  adjoint: bool = False) -> RegisterState:
    """Apply every operator in the pattern; disjoint registers, so order is immaterial."""
    if state.width != pattern.width:
        raise ValueError(
            f"pattern width {pattern.width} does not match state width {state.width}")
    for pos, op in pattern.ops:
        state = apply_single(state, pos, op, adjoint=adjoint)
    return state


def _walk_supports(positions: Sequence[int], window: int,
                   max_errors: int) -> Iterator[tuple[int, ...]]:
    """Supports drawn from the sorted ``positions``, with <= max_errors in
    any window of consecutive registers of the full row, in lexicographic
    order starting with the empty one.  Only the positions are visited.

    The window constraint is equivalent to: any max_errors + 1 consecutive
    support members span at least window + 1 registers.
    """
    t = max_errors

    def extend(prefix: list[int], start: int) -> Iterator[tuple[int, ...]]:
        for k in range(start, len(positions)):
            pos = positions[k]
            if len(prefix) >= t and pos - prefix[-t] < window:
                continue
            prefix.append(pos)
            yield tuple(prefix)
            yield from extend(prefix, k + 1)
            prefix.pop()

    yield ()
    if t > 0:
        yield from extend([], 0)


def iter_supports(width: int, window: int, max_errors: int) -> Iterator[tuple[int, ...]]:
    """Supports (sorted position tuples within 1..width) with <= max_errors
    in any window of consecutive registers, in lexicographic order starting
    with the empty one."""
    return _walk_supports(range(1, width + 1), window, max_errors)


@dataclass(frozen=True)
class PatternFamily:
    """All patterns with <= max_errors per window, entries drawn from ``basis``.

    ``registers`` optionally restricts supports to a subset of positions;
    the window constraint is still measured on the full register row, so a
    restricted family is exactly a sub-family of the unrestricted one, in
    the same order.  Its support walk visits only ``registers``, never the
    rest of the row.
    """

    width: int
    window: int
    max_errors: int
    basis: tuple[SingleRegisterError, ...] = field(default=())
    registers: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")
        if not 1 <= self.window <= self.width:
            raise ValueError("window must satisfy 1 <= window <= width")
        if self.max_errors < 0:
            raise ValueError("max_errors must be nonnegative")
        if self.max_errors > self.window:
            raise ValueError("max_errors may not exceed the window size")
        object.__setattr__(self, "basis", tuple(self.basis))
        if any(op.is_identity for op in self.basis):
            raise ValueError("basis entries must be non-identity operators")
        if self.registers is not None:
            allowed = tuple(sorted(set(self.registers)))
            if allowed and not (1 <= allowed[0] and allowed[-1] <= self.width):
                raise ValueError("restricted registers must lie in 1..width")
            object.__setattr__(self, "registers", allowed)

    def _supports(self) -> Iterator[tuple[int, ...]]:
        positions = range(1, self.width + 1) if self.registers is None \
            else self.registers
        return _walk_supports(positions, self.window, self.max_errors)

    def __iter__(self) -> Iterator[ErrorPattern]:
        for support in self._supports():
            if not support:
                yield ErrorPattern(self.width, ())
                continue
            for combo in itertools.product(range(len(self.basis)),
                                           repeat=len(support)):
                ops = tuple((pos, self.basis[i]) for pos, i in zip(support, combo))
                yield ErrorPattern(self.width, ops)

    def __len__(self) -> int:
        k = len(self.basis)
        return sum(k ** len(s) for s in self._supports())

    def contains(self, pattern: ErrorPattern) -> bool:
        if pattern.width != self.width:
            return False
        support = pattern.support
        if self.registers is not None:
            allowed = set(self.registers)
            if any(pos not in allowed for pos in support):
                return False
        t = self.max_errors
        if len(support) > t and any(
                support[i + t] - support[i] < self.window
                for i in range(len(support) - t)):
            return False
        return all(op in self.basis for _, op in pattern.ops)

    def restricted(self, allowed: Iterable[int]) -> "PatternFamily":
        """Sub-family whose supports avoid every register outside ``allowed``."""
        return PatternFamily(self.width, self.window, self.max_errors,
                             self.basis, tuple(allowed))

    def to_json(self) -> dict:
        if all(op.kind == "weyl" for op in self.basis):
            basis = [{"a": op.a, "b": op.b} for op in self.basis]
        else:
            basis = [op.to_json() for op in self.basis]
        out = {"width": self.width, "window": self.window,
               "max_errors": self.max_errors, "basis": basis}
        if self.registers is not None:
            out["registers"] = list(self.registers)
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "PatternFamily":
        basis = tuple(SingleRegisterError.from_json(entry)
                      for entry in data["basis"])
        registers = data.get("registers")
        return cls(data["width"], data["window"], data["max_errors"],
                   basis, None if registers is None else tuple(registers))


def enumerate_family(width: int, window: int, max_errors: int,
                     basis: Iterable[SingleRegisterError] | None = None,
                     n_levels: int | None = None) -> PatternFamily:
    """Build a PatternFamily; with no explicit basis, use the Weyl basis of n_levels."""
    if basis is None:
        if n_levels is None:
            raise ValueError("either a basis or n_levels is required")
        basis = weyl_basis(n_levels)
    return PatternFamily(width, window, max_errors, tuple(basis))
