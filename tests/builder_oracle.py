"""Term-loop route for the superposed builtin kets and basis-ket duals.

These are the builders as they were before the package built its kets in
one array pass: each walks its terms in a Python loop, multiplying or
summing one exact ``PhaseScalar`` per term (``shor9`` and the perfect
block through ``RegisterState.tensor`` and ``normalized``).  They share
no digit map or phase with the package, only the code containers, the
boundary rule and the scalar type, so the package's kets can be checked
against them term for term.  Only viable for small N and short windows.
"""

import itertools
from fractions import Fraction

from quditqec.codes import CodeSpec, truncation_boundary
from quditqec.cyclotomic import PhaseScalar
from quditqec.states import Digits, RegisterState


def _windows(n_levels: int, count: int):
    return itertools.product(range(n_levels), repeat=count)


def build_shor9(n_levels: int, logical_len: int, flush: bool = True) -> CodeSpec:
    """Nine registers per symbol: repeated triples with a phase-protected sign.

    Each symbol k encodes as sum_{p,q,r} w_N^(k(p+q+r)) |ppp qqq rrr>,
    normalized.  At N = 2 the phase is the usual (-1)^(k(p+q+r)).
    """
    n = n_levels
    block_kets: dict[int, RegisterState] = {}
    for k in range(n):
        terms: dict[Digits, PhaseScalar] = {}
        for p, q, r in itertools.product(range(n), repeat=3):
            amp = PhaseScalar.monomial(n, 1, 2 * (k * (p + q + r)), 0)
            terms[(p, p, p, q, q, q, r, r, r)] = amp
        block_kets[k] = RegisterState(n, 9, terms).normalized()
    kets = {}
    for window in _windows(n, logical_len):
        state = block_kets[window[0]]
        for k in window[1:]:
            state = state.tensor(block_kets[k])
        kets[window] = state
    return CodeSpec("shor9", n, 1, 9, 0, 0, logical_len, kets,
                    rebuild=lambda N, L, f=True: build_shor9(N, L))


def perfect5_block(n_levels: int) -> CodeSpec:
    """Five-register perfect block code for one logical symbol.

    |k> -> N^(-3/2) sum_{p,q,r} w_N^(k(p+q+r) + p*r) |p, q, p+r, q+r, p+q+k>.
    """
    n = n_levels
    kets = {}
    for k in range(n):
        terms: dict[Digits, PhaseScalar] = {}
        for p, q, r in itertools.product(range(n), repeat=3):
            digits = (p, q, (p + r) % n, (q + r) % n, (p + q + k) % n)
            terms[digits] = PhaseScalar.monomial(n, 1, 2 * (k * (p + q + r) + p * r), 3)
        kets[(k,)] = RegisterState(n, 5, terms)
    return CodeSpec("perfect5_block", n, 1, 5, 0, 0, 1, kets,
                    rebuild=lambda N, L, f=True: _tensor_power_of(perfect5_block, N, L))


def _tensor_power_of(block_builder, n_levels: int, logical_len: int) -> CodeSpec:
    base = block_builder(n_levels)
    kets = {}
    for window in _windows(n_levels, logical_len):
        state = base.encoded_kets[(window[0],)]
        for k in window[1:]:
            state = state.tensor(base.encoded_kets[(k,)])
        kets[window] = state
    return CodeSpec(base.label, n_levels, base.n, base.m, 0, 0,
                    logical_len, kets)


def build_perfect5(n_levels: int, logical_len: int, flush: bool = True) -> CodeSpec:
    """Convolutional extension of the five-register perfect code.

    Block i carries the running sum k_i + k_(i-1); one flush block terminates
    the window, so width is 5*(logical_len + 1).  Built directly from the
    closed form, independent of :func:`build_qcc_from_qbc`.
    """
    n = n_levels
    if logical_len < 1:
        raise ValueError("logical_len must be positive")
    blocks = logical_len + 1 if flush else logical_len
    kets = {}
    for window in _windows(n, logical_len):
        padded = window + (0,) * (blocks - logical_len)
        terms: dict[Digits, PhaseScalar] = {(): PhaseScalar.exact_one(n)}
        for i in range(blocks):
            v = (padded[i] + (padded[i - 1] if i >= 1 else 0)) % n
            new_terms: dict[Digits, PhaseScalar] = {}
            for p, q, r in itertools.product(range(n), repeat=3):
                digits = (p, q, (p + r) % n, (q + r) % n, (p + q + v) % n)
                amp = PhaseScalar.monomial(n, 1, 2 * (v * (p + q + r) + p * r), 3)
                for prefix, old in terms.items():
                    new_terms[prefix + digits] = old * amp
            terms = new_terms
        kets[window] = RegisterState(n, 5 * blocks, terms)
    boundary = truncation_boundary(blocks, 5, 1, 1)
    return CodeSpec("perfect5", n, 1, 5, 1, 1 if flush else 0,
                    logical_len, kets, boundary,
                    rebuild=lambda N, L, f=True: build_perfect5(N, L, f))


def build_rate14_conv(n_levels: int, logical_len: int,
                      flush: bool = True) -> CodeSpec:
    """Rate 1/4 convolutional code built directly from its closed form.

    Summing over stream digits (p_i, q_i), i = 1..L, each block contributes

        phase  w_N^((k_i + k_(i-2)) p_i + (k_i + k_(i-1) + k_(i-2)) q_i)
        digits |p_j + p_(j-1), p_j + p_(j-1) + q_(j-1),
                q_j + q_(j-1),  q_j + q_(j-1) + p_j>

    with one extra digit block j = L + 1 flushing the stream memory, so the
    width is 4*(L + 1).

    The code does not correct one arbitrary error in every eight
    consecutive registers.  At N = 2, Z_(r+8) and Z_r Z_(r+9) for r = 4s + 2
    both have at most one error per eight registers, and their product
    Z_r Z_(r+8) Z_(r+9) acts as an exact logical flip of k_s and k_(s+1)
    (r = 6 at L = 3; r = 10 at L = 5, where every register it touches has
    its untruncated stream form).  A flip
    witness persists up to window 15 (Z_5 Z_20 against Z_8 flips k_1 and
    k_3); the window the infinite stream does correct is still open.
    """
    n = n_levels
    if logical_len < 1:
        raise ValueError("logical_len must be positive")
    L = logical_len
    blocks = L + 1 if flush else L
    kets = {}
    for window in _windows(n, L):
        k = lambda i: window[i - 1] if 1 <= i <= L else 0
        terms: dict[Digits, PhaseScalar] = {}
        for pq in _windows(n, 2 * L):
            p = lambda i: pq[2 * (i - 1)] if 1 <= i <= L else 0
            q = lambda i: pq[2 * (i - 1) + 1] if 1 <= i <= L else 0
            exponent = sum((k(i) + k(i - 2)) * p(i) +
                           (k(i) + k(i - 1) + k(i - 2)) * q(i)
                           for i in range(1, L + 1))
            digits = []
            for j in range(1, blocks + 1):
                digits.extend(((p(j) + p(j - 1)) % n,
                               (p(j) + p(j - 1) + q(j - 1)) % n,
                               (q(j) + q(j - 1)) % n,
                               (q(j) + q(j - 1) + p(j)) % n))
            amp = PhaseScalar.monomial(n, Fraction(1, n ** L), 2 * exponent, 0)
            key = tuple(digits)
            if key in terms:
                terms[key] = terms[key] + amp
            else:
                terms[key] = amp
        kets[window] = RegisterState(n, 4 * blocks, terms)
    # tail depth 3: k_i reaches digit blocks i..i+3 (phase memory 2 plus
    # stream memory 1) but flushing appends only one block, so the last
    # two logical symbols plus the flush block are truncation-affected
    boundary = truncation_boundary(blocks, 4, 1, 3)
    return CodeSpec("rate14_conv", n, 1, 4, 1, 1 if flush else 0,
                    logical_len, kets, boundary,
                    rebuild=lambda N, L_, f=True: build_rate14_conv(N, L_, f))



def dual_basis_state(state: RegisterState) -> RegisterState:
    """Fourier-transform every register of a single-basis-term ket."""
    n, width = state.n_levels, state.width
    (digits, amp), = state.terms.items()
    # every amplitude is amp * w_2N^e / sqrt(N^width) and e only matters
    # mod 2N, so the 2N possible scalars are built once and shared
    scalars = [amp * PhaseScalar.monomial(n, 1, e, width) for e in range(2 * n)]
    terms = {}
    for target in itertools.product(range(n), repeat=width):
        exponent = 2 * sum(v * w for v, w in zip(digits, target))
        terms[target] = scalars[exponent % (2 * n)]
    return RegisterState._raw(n, width, terms)


def _exactly_equal(amp: PhaseScalar, other: PhaseScalar) -> bool:
    # one canonical exact form is one value; anything else is compared
    # by value with no tolerance
    if amp.is_exact and other.is_exact and (amp.n_levels, amp._coeffs, amp._half) \
            == (other.n_levels, other._coeffs, other._half):
        return True
    return amp.equals(other, tol=0)


def same_terms(state: RegisterState, reference: RegisterState) -> bool:
    """Same registers, the same terms in the same insertion order, and every
    amplitude exactly equal."""
    return (state.n_levels, state.width) == (reference.n_levels, reference.width) \
        and list(state.terms) == list(reference.terms) \
        and all(_exactly_equal(amp, reference.terms[k])
                for k, amp in state.terms.items())
