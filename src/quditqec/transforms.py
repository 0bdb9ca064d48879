"""Code-to-code transforms: Fourier dualization, pasting, and their composition.

Dualizing applies the forward Fourier kernel to every physical register,
which swaps the roles of additive spin flips and diagonal phase errors:
a code correcting flips turns into one correcting phases, and vice versa.

Pasting encodes with one code and then feeds each physical register of the
result into a second code as its logical stream, in ascending register
order.  Encoding with a phase-correcting code first and a spin-correcting
code second handles arbitrary single-register errors only when each inner
register carries one outer digit, so that a phase error on one inner
register lands on one outer register.  That holds for ``majority3`` inner
codes, which is why the pipeline reproduces ``shor9``.  It fails for
``spin_conv``: each output digit sums up to three stream symbols, so one
inner phase error becomes up to three outer ones, and ``rate14_conv``
inherits a logical flip between two one-per-8 patterns.  The opposite
order does not handle arbitrary errors either.

The pipeline composes the two: ``paste(dualize(C), C)`` for a classical
code C.  The rate squares.  The outer factor is built without flushing and
the inner factor with it, so only the innermost encoder, whose output is
what the channel actually touches, terminates the stream; this also makes
the pipeline output of the rate 1/2 stream code coincide register-for-
register with the builtin rate 1/4 code.
"""

from __future__ import annotations

import numpy as np

from .codes import CodeSpec, _grid, _superposition, truncation_boundary
from .cyclotomic import PhaseScalar
from .states import RegisterState, dft_register


def _dual_state(state: RegisterState) -> RegisterState:
    """Fourier-transform every register of one state.

    A basis ket amp |d> (the classical-code case) dualizes in closed form,
    sum_t amp w_N^(d.t) N^(-width/2) |t> over t in product order, in one
    array pass; anything else goes through the register-by-register kernel,
    whose fanout is fine at the widths where superposed kets get dualized.
    """
    n, width = state.n_levels, state.width
    if len(state) != 1 or width == 0:
        for pos in range(1, width + 1):
            state = dft_register(state, pos)
        return state
    (digits, amp), = state.terms.items()
    scalars = [amp * PhaseScalar.monomial(n, 1, 2 * s, width) for s in range(n)]
    targets = _grid(n, width)
    return _superposition(n, targets, targets @ np.array(digits), scalars)


def dualize(code: CodeSpec) -> CodeSpec:
    """Fourier-transform every physical register of every encoded ket.

    The label counts the transforms modulo the order of F.  F^2 negates
    every digit, so F^2 is the identity at N = 2 and F^4 is at any N: the
    double dual is labelled as the code only at N = 2, where it equals
    it."""
    kets = {window: _dual_state(state)
            for window, state in code.encoded_kets.items()}
    label, power = code.label, 1
    while label.endswith("-dual"):
        label, power = label[:-5], power + 1
    label += "-dual" * (power % (2 if code.n_levels == 2 else 4))
    rebuild = None
    if code.rebuild is not None:
        inner = code.rebuild
        rebuild = lambda N, L, f=True: dualize(inner(N, L, f))
    return CodeSpec(label, code.n_levels, code.n, code.m, code.memory,
                    code.flush_depth, code.logical_len, kets,
                    code.boundary_registers, rebuild=rebuild)


def paste(first: CodeSpec, second: CodeSpec) -> CodeSpec:
    """Encode with ``first``, then re-encode each register through ``second``.

    ``second`` must accept a logical window exactly as long as ``first``'s
    physical width; each basis ket of a ``first``-encoded state is fed to
    ``second`` as its logical stream in register order and the results are
    combined linearly.
    """
    if first.n_levels != second.n_levels:
        raise ValueError("pasted codes must share the same n_levels")
    if second.logical_width != first.width:
        raise ValueError(
            f"second code expects a logical window of {second.logical_width} "
            f"registers but the first code outputs {first.width}")
    kets = {window: second.encode(state)
            for window, state in first.encoded_kets.items()}
    label = f"paste({first.label},{second.label})"
    # Bookkeeping: per one block of `first` (m registers), `second` emits
    # m * (m2 / n2) registers; memory and flush are inherited from the inner
    # code, expressed in outer logical symbols.
    n = first.n * second.n
    m = first.m * second.m
    memory = -(-second.memory // first.m)
    flush = first.flush_depth + -(-second.flush_depth // first.m)
    # a logical symbol's influence spans the outer memory plus the inner
    # memory (in composed blocks); any depth beyond the composed flush is
    # cut by truncation, so the tail boundary is the larger of the two
    depth = first.memory + memory
    width = next(iter(kets.values())).width
    boundary = truncation_boundary(width // m, m, memory, max(depth, flush))
    return CodeSpec(label, first.n_levels, n, m, memory, flush,
                    first.logical_len, kets, boundary)


def theorem2_pipeline(classical: CodeSpec) -> CodeSpec:
    """paste(dualize(C), C) for a classical code C.

    The result corrects arbitrary single-register errors only under the
    one-digit-per-register condition in the module docstring.

    The input must be a basis-ket (classical) code carrying a rebuild hook,
    because the inner copy has to be re-instantiated at the outer code's
    output length.  The result's rate is the square of the input rate.
    """
    if not classical.is_classical:
        raise ValueError("pipeline input must be a classical (basis-ket) code")
    if classical.rebuild is None:
        raise ValueError("pipeline input must carry a rebuild hook")
    outer = classical.rebuild(classical.n_levels, classical.logical_len, False)
    phase_code = dualize(outer)
    inner = classical.rebuild(classical.n_levels, phase_code.width, True)
    return paste(phase_code, inner)
