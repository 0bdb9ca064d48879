"""Monte-Carlo noise injection and brute-force maximum-likelihood recovery.

Each trial corrupts an encoded state register by register, decodes by
projecting every candidate-corrected state onto the code space, and scores
the recovered logical state against the input.  Trials are independent and
derive their randomness from (seed, trial index) through numpy's seed
sequence, so runs reproduce bit for bit.

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
  labels only its distinct injected rows, so its cost is mostly the
  per-trial seed stream.
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

import math
import numbers
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


def _draw_pattern(cfg: ChannelConfig, width: int, menu, cdf: np.ndarray,
                  trial: int) -> ErrorPattern:
    """The pattern injected in one trial, drawn from (cfg.seed, trial).

    One uniform per register decides the hit registers; then one uniform
    per hit register, in register order, picks its menu entry by the
    ``cdf`` of :func:`_menu_cdf`.  This is the stream of one
    ``rng.choice(len(menu), p=weights)`` per hit register, draw for draw.
    """
    rng = np.random.default_rng([cfg.seed, trial])
    hits = np.flatnonzero(rng.random(width) < cfg.p)
    picks = cdf.searchsorted(rng.random(hits.size), side="right")
    return ErrorPattern(width, tuple(
        (slot + 1, menu[pick])
        for slot, pick in zip(hits.tolist(), picks.tolist())))


def sample_channel(state: RegisterState, cfg: ChannelConfig,
                   trial: int) -> tuple[RegisterState, ErrorPattern]:
    """Corrupt each register independently with probability p.

    The draw is fully determined by (cfg.seed, trial): both feed one seed
    sequence, so trial streams are independent and reproducible in any
    execution order.  The corruption is exact.
    """
    menu, weights = cfg.menu_for(state.n_levels)
    pattern = _draw_pattern(cfg, state.width, menu, _menu_cdf(weights), trial)
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
    rows; what is left per call is
    mostly the per-trial seed stream (one ``default_rng([seed, trial])``
    per trial), the floor while that stream stays bit for bit.  The
    ket path corrupts the encoded state in floats, one row per pattern
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
    width = code.width
    # each trial's index into the distinct patterns, in first-seen order
    first_seen: dict[ErrorPattern, int] = {}
    slots = [first_seen.setdefault(_draw_pattern(cfg, width, menu, cdf, t),
                                   len(first_seen))
             for t in range(cfg.trials)]
    distinct = list(first_seen)
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
    records = [outcome[slot] for slot in slots]

    in_family_count = sum(r.in_family for r in records)
    success_count = sum(r.success for r in records)
    in_family_success = sum(r.success for r in records if r.in_family)
    conditional = None if in_family_count == 0 \
        else in_family_success / in_family_count
    mean_fidelity = math.fsum(r.logical_fidelity for r in records) / len(records)
    return ChannelSummary(
        code.label, code.n_levels, code.logical_len, cfg.p, cfg.trials,
        in_family_count, success_count, in_family_success, conditional,
        mean_fidelity, cfg.seed, decoder,
        records=tuple(records) if keep_records else None)
