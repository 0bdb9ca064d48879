"""Referees for the syndrome KL engine.

``syndrome_engine`` is the pair-by-pair route.  It reads every failing
pair's overlaps off the kets on
every logical ket, one ``_transfer`` over all failing pairs, and builds
lambda from two sources: same-label pairs as conj(psi_a) psi_b |v_0|^2,
psi relative to the first member of the label, and failing pairs from
their reference overlaps.  Its deviations are complex differences of
overlaps, so float noise may split a tie that the package's engine,
which reads one magnitude per logical class, keeps exact.  It shares the
stabilizer read, the syndrome table, ``_transfer`` and the scan with the
package; only the way overlaps and lambda are assembled is its own.  It
drops in for ``verifier._syndrome_engine``.

``pair_list_engine`` is the engine the package ran before it worked by
label classes, kept verbatim: it lists every same-syndrome pattern pair,
reads lambda off one ``_transfer`` over all of them and masks every
failing pair in each logical block.  It shares the scan with the package
and drops in for ``verifier._syndrome_engine`` as well.

``weyl_rows`` is the pattern-by-pattern read of Weyl rows that the
syndrome table's rule replaced; it referees the table's rows.
"""

import numpy as np
from scipy.sparse import csr_matrix

from quditqec.errors import _rank_strings, _string_keys
from quditqec.stabilizer import _reduce, _root_exponents, _transfer
from quditqec.verifier import (LAMBDA_SUMMARY_MAX, _blocks_after_reference,
                               _lambda_out, _lambda_summary, _scan_blocks,
                               _Scan, _touches)


def _identity_deviation(values: np.ndarray, a: np.ndarray,
                        b: np.ndarray) -> float:
    """The largest entry of |lambda - I| for lambda given by its entries
    (a, b, value), one per pair, every diagonal pair among them."""
    return float(np.abs(values - (a == b)).max(initial=0.0))


def _pairs_within(classes: np.ndarray):
    """All (a, b) with classes[a] == classes[b], in (a, b) order."""
    members = np.argsort(classes, kind="stable")
    sizes = np.bincount(classes)
    start = np.cumsum(sizes) - sizes
    counts = sizes[classes]
    a = np.repeat(np.arange(len(classes)), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    return a, members[start[classes[a]] + offset]


def weyl_rows(code, patterns):
    """Each pattern as the Weyl row (x | z) of its X and Z exponents mod N,
    one column per register in each half, read pattern by pattern off its
    operators, or None when an operator is not a Weyl operator or the
    identity.  It referees the syndrome table's rows, which are read off
    rows of picks."""
    n, width = code.n_levels, code.width
    rows = np.zeros((len(patterns), 2 * width), dtype=np.int64)
    for p_idx, pattern in enumerate(patterns):
        for pos, op in pattern.ops:
            if op.kind == "weyl":
                rows[p_idx, pos - 1] = op.a % n
                rows[p_idx, width + pos - 1] = op.b % n
            elif op.kind != "identity":
                return None
    return rows


def syndrome_engine(code, tab, table, tol: float, fail_fast: bool):
    """Weyl families on stabilizer codes, pair by pair.

    A pair with different syndromes has A^dag B off the normalizer, so
    every overlap is an exact zero; a pair with one full label (one coset
    of S) has A^dag B in S, so it passes with
    lambda_ab = conj(psi_a) psi_b |v_0|^2, psi relative to the first
    pattern of the label class.  Only pairs with one
    syndrome and two full labels reach the scan, block (i, j >= i) by
    block, and of these only the entries that can be nonzero: a pair maps
    v_j onto one ket, ``targets[j]``, and on the diagonal the reference
    overlap counts too.  ``fail_fast`` stops after the first block holding
    a deviation above ``tol``.  Returns (scan, failed, lam, lambda summary
    or None).
    """
    n, kets, rows = code.n_levels, tab.kets, table.rows
    size = len(rows)
    label, _ = _rank_strings(_string_keys(
        _reduce(rows, tab.stabilizer, tab.pivots, n), n))
    _, first = np.unique(label, return_index=True)
    _, (psi,) = _transfer(tab, n, rows[first[label]], rows, [0])
    pairs_a, pairs_b = _pairs_within(label)
    values = psi[pairs_a].conj() * psi[pairs_b] * kets.norms[0]
    a, b = _pairs_within(table.classes)
    failing = label[a] != label[b]
    a, b = a[failing], b[failing]
    # (target ket, mu) of every failing pair, one column per source ket j
    targets, mus = _transfer(tab, n, rows[a], rows[b], range(len(kets.amps)))
    reference = np.where(targets[0] == 0, mus[0] * kets.norms[0], 0)
    kept = reference != 0
    lam = csr_matrix((np.concatenate([values, reference[kept]]),
                      (np.concatenate([pairs_a, a[kept]]),
                       np.concatenate([pairs_b, b[kept]]))),
                     shape=(size, size))
    lam.sort_indices()
    scan = _Scan(_touches(code, table.patterns), tol, lam)
    if a.size:
        for i, j in _blocks_after_reference(len(kets.amps)):
            own = targets[j] == i
            live = np.flatnonzero(own | kept if i == j else own)
            observed = np.where(own[live], mus[j][live] * kets.norms[i], 0)
            deviation = observed - reference[live] if i == j else observed
            scan.add(i, j, a[live], b[live], deviation, observed)
            if fail_fast and scan.max_dev > tol:
                break
        return scan, scan.max_dev > tol, lam, None
    # lambda is a direct sum of rank-1 blocks, one per label class
    eigenvalues = np.zeros(size)
    eigenvalues[:len(first)] = np.bincount(label) * kets.norms[0]
    summary = _lambda_summary(eigenvalues, _identity_deviation(
        values, pairs_a, pairs_b), size, tol)
    if size <= LAMBDA_SUMMARY_MAX:
        # hand lambda_matrix the dense matrix it returns, in the size range
        # where the sparse Gram densifies lambda for its summary anyway
        lam = lam.toarray()
    return scan, False, lam, summary


def pair_list_engine(code, tab, table, tol: float, fail_fast: bool):
    """Weyl families on stabilizer codes, by the pair list.

    A pair with different syndromes has A^dag B off the normalizer, so
    every overlap is an exact zero.  One ``_transfer`` at v_0 over every
    same-syndrome pair gives lambda: A^dag B maps v_0 onto mu times the
    ket ``target``, and lambda_ab = mu |v_0|^2 where that ket is v_0, for
    pairs of one full label (A^dag B in S) and failing pairs alike.

    A failing pair's A^dag B is its logical class's representative's
    times a phase and an element of S, which acts on every ket as one
    phase, so its overlaps are the representative's times kappa, its own
    mu at v_0 over the representative's: every ket is read for the
    representatives only.  The scan gets, block (i, j >= i) by block,
    the entries that can be nonzero: a pair maps v_j onto one ket,
    ``targets[j]``, and on the diagonal the reference overlap counts too.
    Each deviation is a magnitude of its class: |v_0|^2 where one of the
    two overlaps is zero, and |w^k - 1| |v_0|^2 where the class maps v_i
    and v_0 onto themselves with character ratio w^k.  ``fail_fast``
    stops after the first block holding a deviation above ``tol``.
    Returns (scan, failed, lam, lambda summary or None).
    """
    n, kets, rows = code.n_levels, tab.kets, table.rows
    size, dim, norm = len(rows), len(kets.amps), kets.norms[0]
    label, labels = _rank_strings(_string_keys(
        _reduce(rows, tab.stabilizer, tab.pivots, n), n))
    a, b = _pairs_within(table.classes)
    (target,), (mu,) = _transfer(tab, n, rows[a], rows[b], [0])
    kept = target == 0
    entries = mu[kept] * norm, a[kept], b[kept]
    lam = _lambda_out(*entries, size)
    scan = _Scan(table.touches, tol, lam)
    failing = label[a] != label[b]
    if not failing.any():
        # lambda is a direct sum of rank-1 blocks, one per label class
        eigenvalues = np.zeros(size)
        eigenvalues[:labels] = np.bincount(label) * norm
        return scan, False, lam, _lambda_summary(
            eigenvalues, _identity_deviation(*entries), size, tol)
    a, b, mu, kept = a[failing], b[failing], mu[failing], kept[failing]
    # each failing pair's logical class, the coset of S of row_b - row_a
    cls, _ = _rank_strings(_string_keys(_reduce(
        (rows[b] - rows[a]) % n, tab.stabilizer, tab.pivots, n), n))
    _, rep = np.unique(cls, return_index=True)
    # (target ket, mu) of each class's representative, per source ket j
    targets, mus = _transfer(tab, n, rows[a[rep]], rows[b[rep]], range(dim))
    kappa = mu / mu[rep[cls]]

    def blocks():
        for i, j in _blocks_after_reference(dim):
            own = (targets[j] == i)[cls]
            live = np.flatnonzero(own | kept if i == j else own)
            chord = np.ones(len(rep))
            if i == j:
                fixed = (targets[i] == i) & (targets[0] == 0)
                k = _root_exponents(mus[i][fixed] / mus[0][fixed], n)
                chord[fixed] = 2 * np.sin(np.pi * np.minimum(k, n - k) / n)
            yield i, j, a[live], b[live], chord[cls[live]] * norm, np.where(
                own[live], kappa[live] * mus[j][cls[live]] * kets.norms[i], 0)

    return scan, _scan_blocks(scan, blocks(), fail_fast), lam, None
