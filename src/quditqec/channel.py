"""Monte-Carlo noise injection and brute-force maximum-likelihood recovery.

Each trial corrupts an encoded state register by register, decodes by
projecting every candidate-corrected state onto the code space, and scores
the recovered logical state against the input.  Trials are independent:
trial t draws exactly what numpy's ``default_rng([seed, t])`` draws, so
runs reproduce bit for bit.  No generator is built per trial.  The seed
sequence's hashing and PCG64's seeding run as array operations over a
block of trial indices, and the state of a trial's k-th draw comes from
the closed form of its LCG, A^k s + (1 + A + ... + A^(k-1)) inc mod 2^128
(the jump-ahead of Brown, 1994), so the uniforms of a block are a few
dozen array operations.

For a fixed input the record of a trial depends on its injected pattern
alone, so :func:`run_trials` draws every pattern first and works each
distinct pattern once, on one of two paths:

* ``"syndrome"``: when every family pattern and every distinct injected
  pattern is a Weyl operator (or the identity) and the verifier can read a
  stabilizer S off the code's kets.  For Weyl patterns the
  squared projection of candidate c is exactly 1 when E_c^dag E_inj
  commutes with S (it then maps the code space onto itself) and exactly 0
  otherwise (some stabilizer moves the state to another eigenspace).  The
  decoder's choice is therefore the earliest family member with the
  injected pattern's syndrome, and the residual E_c^dag E_inj acts on the
  logical kets as a phased permutation, read off the tableau.  No encoded
  state, corrupted state or stacked decoder is built.  What depends on the
  code or the family alone is built once: the stabilizer once per code
  (kept on the code), and the family's syndrome table once per (code,
  family), kept on the stabilizer and shared with the verifier's syndrome
  engine.  It holds the members, their Weyl rows, the syndromes the
  family reaches with the earliest member of each, and the member set
  that decides whether an injected pattern is in the family.  A call
  labels only its distinct injected rows.  Drawing the trials costs about
  1-4 us per trial plus about 0.3 ms per call (numpy 2.4, a shared 2-core
  Xeon); one generator per trial cost about 20 us per trial.
* ``"ket"``: otherwise.  Corruption runs in floats, through the
  verifier's one pattern kernel.  The candidate rows (the kets under the
  family) and the corrupted rows share one column space of ranked
  strings, so no width is refused, and a block of distinct patterns is
  decoded in one stacked sparse product.

Both paths give the same records, fidelities equal up to rounding.
:func:`run_trials` runs in one process; its ``jobs``
argument is a no-op kept for compatibility.  :func:`sample_channel` and
:func:`decode_mld` stay the one-state-at-a-time reference path:
``sample_channel`` corrupts exactly, and ``decode_mld`` scores in floats
through the ket path's decoder.

The decoder assumes the code passed verification against the same family;
on an unverified pairing it still runs, but in-family corruptions are then
allowed to decode wrong (that is precisely what verification failure
means, and the trial records will show it).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .cyclotomic import PhaseScalar
from .errors import (ErrorPattern, PatternFamily, SingleRegisterError,
                     apply_pattern, weyl_basis)
from .states import RegisterState
from .verifier import (_check_family_width, _float_matrices, _syndrome_plan,
                       _syndromes, _transfer, _weyl_rows)

SUCCESS_FIDELITY = 1.0 - 1e-6
PROJECTION_FLOOR = 1e-9
# squared projections this close to the best one, relatively, count as ties
TIE_RTOL = 1e-12
# distinct patterns decoded per stacked product; bounds the dense block of
# amplitudes at (logical dim * family size) x DECODE_BLOCK
DECODE_BLOCK = 256
# trials drawn at once by run_trials; bounds each of the draw's arrays at
# DRAW_BLOCK x width 64-bit words
DRAW_BLOCK = 1024

# numpy's SeedSequence (pool size, hash and mix constants) and PCG64's
# multiplier, for drawing the streams of default_rng([seed, trial])
_MASK32, _MASK64 = 2 ** 32 - 1, 2 ** 64 - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class UncorrectableError(RuntimeError):
    """No candidate pattern projects the corrupted state onto the code space."""


@dataclass(frozen=True)
class ChannelConfig:
    """Per-register error channel: probability, menu, seed, trial count.

    With no explicit menu the channel draws uniformly from the non-identity
    Weyl operators of the state it corrupts.  Menu weights must be
    nonnegative and sum to one within 1e-12.
    """

    p: float
    seed: int
    trials: int
    error_menu: tuple[SingleRegisterError, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
            raise ValueError("error probability must be a real number")
        object.__setattr__(self, "p", float(self.p))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("error probability must lie in [0, 1]")
        for name in ("seed", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.error_menu is not None:
            menu = tuple(self.error_menu)
            if not menu:
                raise ValueError("error menu may not be empty")
            if any(op.is_identity for op in menu):
                raise ValueError("error menu entries must be non-identity")
            object.__setattr__(self, "error_menu", menu)
            if self.weights is not None:
                weights = tuple(float(w) for w in self.weights)
                if len(weights) != len(menu):
                    raise ValueError("one weight per menu entry required")
                if any(w < 0 for w in weights):
                    raise ValueError("menu weights must be nonnegative")
                if abs(math.fsum(weights) - 1.0) > 1e-12:
                    raise ValueError("menu weights must sum to 1")
                object.__setattr__(self, "weights", weights)
        elif self.weights is not None:
            raise ValueError("weights require an explicit error menu")

    def menu_for(self, n_levels: int) -> tuple[tuple[SingleRegisterError, ...],
                                               tuple[float, ...]]:
        menu = self.error_menu
        if menu is None:
            menu = tuple(weyl_basis(n_levels))
        weights = self.weights
        if weights is None:
            weights = (1.0 / len(menu),) * len(menu)
        return menu, weights


@dataclass(frozen=True)
class TrialRecord:
    """One channel trial: the injected pattern, whether the family holds
    it, the decoder's choice and the logical fidelity after recovery."""

    injected: ErrorPattern
    in_family: bool
    chosen: ErrorPattern | None
    logical_fidelity: float
    success: bool

    def to_json(self) -> dict:
        return {"injected": self.injected.to_json(),
                "in_family": self.in_family,
                "chosen": None if self.chosen is None else self.chosen.to_json(),
                "logical_fidelity": self.logical_fidelity,
                "success": self.success}


def _menu_cdf(weights) -> np.ndarray:
    """The cumulative menu weights, normalized as ``Generator.choice``
    normalizes its ``p``."""
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    return cdf / cdf[-1]


def _words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, low word first, as a
    seed sequence splits its entropy (zero is one word)."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=None)
def _hash_keys(const: int, mult: int, count: int):
    """The running constants of ``count`` seed-sequence hashes, as (count,
    1) uint32 columns: hash i xors with constant i, and multiplies by
    constant i + 1, the constant being advanced by ``mult`` each time."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    keys = np.array(consts, dtype=np.uint32)[:, None]
    return keys[:-1], keys[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray):
    """The seed sequence's hash of ``values`` under keys of
    :func:`_hash_keys`: xor, multiply, fold the high half into the low."""
    values = (values ^ xor) * mul
    return values ^ values >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The seed sequence's mix of pool word ``x`` with hashed word ``y``."""
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ out >> np.uint32(16)


def _seed_states(words: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``(x_hi, x_lo, inc_hi, inc_lo)`` of ``PCG64(SeedSequence(entropy))``
    for each column of the entropy ``words`` (uint32 arrays that broadcast,
    low word first), as 64-bit halves.

    The pool mixing and ``generate_state(4, uint64)`` run as numpy runs
    them, hash for hash; the hashes one source word makes into the other
    pool words are independent, so they run as one array operation.
    PCG64 then sets inc = 2 initseq + 1 and x = inc + initstate; its state
    before the first draw is x A + inc.  A zero word among the first
    ``_POOL`` mixes as the pool's own padding does, so a trial index below
    2^32 may be given a zero high word.
    """
    extra = words[_POOL:]
    xor, mul = _hash_keys(_INIT_A, _MULT_A,
                          _POOL * _POOL + _POOL * len(extra))
    (size,) = np.broadcast_shapes(*(w.shape for w in words))
    entropy = np.zeros((_POOL, size), dtype=np.uint32)
    for row, word in zip(entropy, words):
        row[:] = word
    pool = _hash(entropy, xor[:_POOL], mul[:_POOL])
    at = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[at:at + _POOL - 1],
                                          mul[at:at + _POOL - 1]))
        at += _POOL - 1
    for word in extra:
        pool = _mix(pool, _hash(word, xor[at:at + _POOL], mul[at:at + _POOL]))
        at += _POOL
    # generate_state(4, uint64): eight words cycling the pool, paired low
    # word first
    out = _hash(np.tile(pool, (2, 1)),
                *_hash_keys(_INIT_B, _MULT_B, 2 * _POOL)).astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << 32
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    x_lo = inc_lo + state_lo
    return inc_hi + state_hi + (x_lo < inc_lo), x_lo, inc_hi, inc_lo


@functools.lru_cache(maxsize=None)
def _jumps(count: int) -> tuple[np.ndarray, ...]:
    """``(a_hi, a_lo, c_hi, c_lo)`` for draws k < count: the state of draw
    k is a x + c inc mod 2^128, with a = A^(k+2) and c = 1 + A + ... +
    A^(k+1), A being PCG64's multiplier."""
    power, total = _PCG_MULT, 1
    columns = []
    for _ in range(count):
        total = (total + power) % 2 ** 128
        power = power * _PCG_MULT % 2 ** 128
        columns.append((power >> 64, power & _MASK64,
                        total >> 64, total & _MASK64))
    return tuple(np.array(c, dtype=np.uint64) for c in zip(*columns))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross, cross2 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross & _MASK32) + (cross2 & _MASK32)
    return a1 * b1 + (cross >> 32) + (cross2 >> 32) + (mid >> 32)


def _uniforms(state: tuple[np.ndarray, ...], draws) -> np.ndarray:
    """Uniform number ``draws`` (from 0) of each generator of ``state``
    (arrays of :func:`_seed_states`, broadcast against ``draws``), as
    ``Generator.random`` gives it.

    The state of a draw comes from the closed form of :func:`_jumps`;
    its output is PCG64's XSL-RR, the xor of its halves rotated right by
    its top six bits, and the double keeps the top 53 bits.
    """
    x_hi, x_lo, inc_hi, inc_lo = state
    table = _jumps(1 << int(np.max(draws)).bit_length())
    a_hi, a_lo, c_hi, c_lo = (column[draws] for column in table)
    ax = a_lo * x_lo
    lo = ax + c_lo * inc_lo
    hi = (_mulhi(a_lo, x_lo) + _mulhi(c_lo, inc_lo) + (lo < ax)
          + a_hi * x_lo + a_lo * x_hi + c_hi * inc_lo + c_lo * inc_hi)
    out, rot = hi ^ lo, hi >> 58
    out = out >> rot | out << (64 - rot & 63)
    return (out >> 11) * 2.0 ** -53


def _draw_rows(cfg: ChannelConfig, width: int, cdf: np.ndarray,
               trial_words: list[np.ndarray]) -> np.ndarray:
    """The patterns of ``default_rng([cfg.seed, t])`` for trials t given by
    their words (uint32 arrays, low word first), one row per trial: 0 at
    a register left alone, 1 + its menu pick at a hit register.

    One uniform per register decides the hit registers; then one uniform
    per hit register, in register order, picks its menu entry by the
    ``cdf`` of :func:`_menu_cdf`.  This is the stream of one
    ``rng.choice(len(menu), p=weights)`` per hit register, draw for draw.
    """
    state = _seed_states([np.array([w], np.uint32) for w in _words(cfg.seed)]
                         + trial_words)
    hit = _uniforms(tuple(s[:, None] for s in state),
                    np.arange(width)[None, :]) < cfg.p
    rows = np.zeros(hit.shape, dtype=np.min_scalar_type(cdf.size))
    trial, slot = np.nonzero(hit)
    if trial.size:
        counts = hit.sum(axis=1)
        # a trial's j-th hit register takes its draw width + j
        rank = np.arange(trial.size) - (np.cumsum(counts) - counts)[trial]
        rows[trial, slot] = 1 + cdf.searchsorted(
            _uniforms(tuple(s[trial] for s in state), width + rank),
            side="right")
    return rows


def _patterns(menu, rows: np.ndarray) -> list[ErrorPattern]:
    """The pattern of each row of :func:`_draw_rows`."""
    trial, slot = np.nonzero(rows)
    by_pick = (None,) + tuple(menu)
    ops = list(zip((slot + 1).tolist(),
                   map(by_pick.__getitem__, rows[trial, slot].tolist())))
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    return [ErrorPattern(rows.shape[1], tuple(ops[a:b]))
            for a, b in zip([0] + ends, ends)]


def _draw_distinct(cfg: ChannelConfig, width: int, menu, cdf: np.ndarray):
    """The distinct patterns of trials 0 .. cfg.trials - 1, in first-seen
    order, and each trial's index into them, drawn ``DRAW_BLOCK`` trials
    at a time.  Only the first row of each kind becomes a pattern."""
    seen: dict[bytes, int] = {}
    distinct: list[ErrorPattern] = []
    slots = np.empty(cfg.trials, dtype=np.intp)
    for start in range(0, cfg.trials, DRAW_BLOCK):
        trials = np.arange(start, min(start + DRAW_BLOCK, cfg.trials),
                           dtype=np.uint64)
        rows = _draw_rows(cfg, width, cdf,
                          [(trials & _MASK32).astype(np.uint32),
                           (trials >> 32).astype(np.uint32)])
        step = width * rows.itemsize
        _, first, inverse = np.unique(
            rows.view(np.dtype((np.void, step))).ravel(),
            return_index=True, return_inverse=True)
        # the block's kinds of row in first-seen order, numbered across
        # blocks in first-seen order
        order = np.argsort(first)
        kinds = rows[first[order]]
        blob = kinds.tobytes()
        known = len(seen)
        index = np.array([seen.setdefault(blob[at:at + step], len(seen))
                          for at in range(0, len(blob), step)])
        distinct += _patterns(menu, kinds[index >= known])
        slots[start:start + trials.size] = index[np.argsort(order)][inverse]
    return distinct, slots


def sample_channel(state: RegisterState, cfg: ChannelConfig,
                   trial: int) -> tuple[RegisterState, ErrorPattern]:
    """Corrupt each register independently with probability p.

    The draw is fully determined by (cfg.seed, trial): both feed one seed
    sequence, so trial streams are independent and reproducible in any
    execution order.  A negative trial index is refused with a
    ValueError, as the seed sequence refuses it.  The corruption is exact.
    """
    trial = operator.index(trial)
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    menu, weights = cfg.menu_for(state.n_levels)
    (pattern,) = _patterns(menu, _draw_rows(
        cfg, state.width, _menu_cdf(weights),
        [np.array([w], np.uint32) for w in _words(trial)]))
    return apply_pattern(state, pattern), pattern


def _decode(code: CodeSpec, candidates: list[ErrorPattern],
            state: RegisterState, patterns):
    """Maximum-likelihood choice among ``candidates`` for ``state`` under
    each of ``patterns``.

    Row (i, s) of the stacked candidate matrix is candidate s applied to
    encoded ket i.  The candidate rows and the corrupted rows share one
    column space, so one sparse product against a block of
    ``DECODE_BLOCK`` corrupted rows yields every amplitude
    <i_enc| s^dagger |corrupted> at once.

    Returns, per corrupted row, the index of the candidate whose
    correction projects furthest onto the code space (ties to the earlier
    one, -1 when even it stays below ``PROJECTION_FLOOR``), that squared
    projection, and the chosen candidate's renormalized logical amplitudes
    as the columns of a (windows, rows) array.
    """
    windows = code.logical_windows()
    stacked, corrupted = _float_matrices(
        [([code.encoded_kets[w] for w in windows], candidates),
         ([state], patterns)], code.n_levels, code.width)
    stacked = stacked.conj()
    chosen, projections, logicals = [], [], []
    for start in range(0, len(patterns), DECODE_BLOCK):
        block = corrupted[start:start + DECODE_BLOCK]
        rows = block.shape[0]
        amps = (stacked @ block.T).toarray().reshape(
            len(windows), len(candidates), rows)
        per_pattern = (np.abs(amps) ** 2).sum(axis=0)
        top = per_pattern.max(axis=0)
        # the first candidate within rounding of the maximum
        best = (per_pattern >= top * (1.0 - TIE_RTOL)).argmax(axis=0)
        cols = np.arange(rows)
        projection = per_pattern[best, cols]
        reached = np.sqrt(projection) >= PROJECTION_FLOOR
        logical = amps[:, best, cols]
        norm = np.linalg.norm(logical, axis=0)
        chosen.append(np.where(reached, best, -1))
        projections.append(projection)
        logicals.append(logical / np.where(reached, norm, 1.0))
    return (np.concatenate(chosen), np.concatenate(projections),
            np.concatenate(logicals, axis=1))


def decode_mld(code: CodeSpec, corrupted: RegisterState,
               family: PatternFamily) -> tuple[RegisterState, ErrorPattern]:
    """Brute-force maximum-likelihood decoding over the candidate family.

    For each candidate pattern s, in family order, the squared norm of the
    projection of the s-corrected state onto the code space is computed;
    the maximizer wins, ties going to the earlier pattern (projections
    within a relative ``TIE_RTOL`` of the largest count as tied, so that
    rounding cannot reorder candidates that project equally).  Returns the
    renormalized logical amplitudes and the chosen pattern.  Raises
    :class:`UncorrectableError` when every candidate projects below 1e-9,
    and a ValueError when the state's width or ``n_levels`` is not the
    code's.  The caller is expected to have verified the (code, family)
    pairing.
    """
    _check_family_width(code, family)
    if (corrupted.width, corrupted.n_levels) != (code.width, code.n_levels):
        raise ValueError(
            f"corrupted state has width {corrupted.width} and n_levels "
            f"{corrupted.n_levels}; the code has width {code.width} and "
            f"n_levels {code.n_levels}")
    candidates = list(family)
    (best,), (projection,), logical = _decode(
        code, candidates, corrupted, [ErrorPattern(code.width, ())])
    if best < 0:
        raise UncorrectableError(
            "no candidate pattern reaches the code space "
            f"(best projection {projection:.3e})")
    state = RegisterState(
        code.n_levels, code.logical_width,
        {w: PhaseScalar.from_complex(complex(a))
         for w, a in zip(code.logical_windows(), logical[:, 0])})
    return state, candidates[best]


@dataclass
class ChannelSummary:
    """Counts and mean fidelity of a ``run_trials`` run, with its records
    when they were kept."""

    code_label: str
    n_levels: int
    logical_len: int
    p: float
    trials: int
    in_family_count: int
    success_count: int
    in_family_success_count: int
    conditional_success: float | None
    mean_fidelity: float
    seed: int
    decoder: str            # "syndrome" or "ket": the path run_trials took
    records: tuple[TrialRecord, ...] | None = None

    def to_json(self) -> dict:
        return {"code": self.code_label, "N": self.n_levels,
                "L": self.logical_len, "p": self.p, "trials": self.trials,
                "in_family": self.in_family_count,
                "success": self.success_count,
                "conditional_success": self.conditional_success,
                "mean_fidelity": self.mean_fidelity, "seed": self.seed,
                "decoder": self.decoder}


def _frame_decode(tab, table, rows: np.ndarray, n_levels: int,
                  target: np.ndarray):
    """Chosen family index (-1 for none) and fidelity of each injected
    Weyl row against the family's syndrome table.

    An injected pattern B gets the earliest member A of its syndrome class;
    A^dag B then maps logical ket v_j onto mu_j v_(i_j), so the corrected
    state's logical amplitudes are beta_(i_j) = target_j mu_j.
    """
    keys = _syndromes(tab, rows, n_levels)
    where = np.minimum(table.keys.searchsorted(keys), table.keys.size - 1)
    chosen = np.where(table.keys[where] == keys, table.earliest[where], -1)
    hit = np.flatnonzero(chosen >= 0)
    targets, mus = _transfer(tab, n_levels, table.rows[chosen[hit]],
                             rows[hit], range(len(target)))
    beta = np.zeros((len(target), hit.size), dtype=complex)
    cols = np.arange(hit.size)
    for amp, i, mu in zip(target, targets, mus):
        beta[i, cols] = amp * mu
    fidelity = np.zeros(len(chosen))
    fidelity[hit] = np.abs(target.conj() @ beta) ** 2 \
        / (np.abs(beta) ** 2).sum(axis=0)
    return chosen, fidelity


def run_trials(code: CodeSpec, cfg: ChannelConfig, family: PatternFamily,
               logical_input: RegisterState, jobs: int = 1,
               keep_records: bool = False) -> ChannelSummary:
    """Encode, corrupt, decode and score cfg.trials independent trials.

    Each trial draws its pattern exactly as :func:`sample_channel` does.
    The record of a trial is a function of its injected pattern alone, so
    only the distinct patterns are worked, in first-seen order, and the
    records are then laid out in trial order.

    The syndrome path runs when every family pattern and every distinct
    injected pattern is Weyl or the identity and a stabilizer reads off
    the code's kets; otherwise the ket path runs.  The syndrome
    path gives each pattern its syndrome class, chooses the earliest family
    member in the injected pattern's class (none when the class holds no
    member) and scores the residual's logical action on the input.  This
    is exactly the ket path's choice: a Weyl candidate's squared projection
    onto the code space is 1 in the injected class and 0 outside it.  The
    stabilizer is read once per code and the family's syndrome table built
    once per (code, family), both kept with the code and shared with
    ``kl_check``, so a repeated call labels only its distinct injected
    rows.  The draw runs ``DRAW_BLOCK`` trials at a time as array work
    that gives each trial the stream of ``default_rng([seed, trial])``
    bit for bit; only the first trial of each distinct pattern builds an
    ``ErrorPattern``.  The ket path corrupts the encoded state in floats, one row per pattern
    in the candidates' column space, decodes ``DECODE_BLOCK`` rows at a
    time by one stacked sparse product, and scores against the input in
    floats.  The
    summary's ``decoder`` names the path.  The summary is a pure function
    of (code, cfg, family, input); `jobs` is accepted for compatibility and
    ignored.  A logical input whose width is not the code's logical width,
    or whose ``n_levels`` is not the code's, is refused with a ValueError
    before any pattern is drawn.
    """
    _check_family_width(code, family)
    if logical_input.width != code.logical_width:
        raise ValueError(
            f"logical input must have width {code.logical_width}")
    if logical_input.n_levels != code.n_levels:
        raise ValueError(
            f"logical input has n_levels {logical_input.n_levels}; the code "
            f"has n_levels {code.n_levels}")
    logical_input = logical_input.normalized()
    menu, weights = cfg.menu_for(code.n_levels)
    cdf = _menu_cdf(weights)
    distinct, slots = _draw_distinct(cfg, code.width, menu, cdf)
    target = np.array([logical_input.amplitude(w).to_complex()
                       for w in code.logical_windows()])
    # the distinct injected rows, then the family's table; None when a
    # pattern is not Weyl or no stabilizer reads off the kets
    rows = _weyl_rows(code, distinct)
    found = None if rows is None else _syndrome_plan(code, family)
    if found is None:
        decoder = "ket"
        patterns = list(family)
        members = set(patterns)
        chosen, _, logical = _decode(code, patterns,
                                     code.encode(logical_input), distinct)
        fidelity = np.abs(target.conj() @ logical) ** 2
    else:
        decoder = "syndrome"
        tab, table = found
        patterns, members = table.patterns, table.members
        chosen, fidelity = _frame_decode(tab, table, rows, code.n_levels,
                                         target)
    outcome = []
    for pattern, pick, fid in zip(distinct, chosen.tolist(),
                                  fidelity.tolist()):
        in_family = pattern in members
        if pick < 0:
            outcome.append(TrialRecord(pattern, in_family, None, 0.0, False))
        else:
            outcome.append(TrialRecord(pattern, in_family, patterns[pick],
                                       fid, fid >= SUCCESS_FIDELITY))
    # per-trial counts as per-pattern counts times multiplicity; fsum is
    # exact, so the mean is the mean over the records in trial order
    repeats = np.bincount(slots, minlength=len(distinct)).tolist()
    in_family_count = sum(n for r, n in zip(outcome, repeats) if r.in_family)
    success_count = sum(n for r, n in zip(outcome, repeats) if r.success)
    in_family_success = sum(n for r, n in zip(outcome, repeats)
                            if r.success and r.in_family)
    conditional = None if in_family_count == 0 \
        else in_family_success / in_family_count
    fidelities = np.array([r.logical_fidelity for r in outcome])
    mean_fidelity = math.fsum(fidelities[slots].tolist()) / cfg.trials
    records = None if not keep_records \
        else tuple(map(outcome.__getitem__, slots.tolist()))
    return ChannelSummary(
        code.label, code.n_levels, code.logical_len, cfg.p, cfg.trials,
        in_family_count, success_count, in_family_success, conditional,
        mean_fidelity, cfg.seed, decoder,
        records=records)
