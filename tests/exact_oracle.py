"""Dict-walk route for the exact KL engine.

The loop below applies every pattern to every encoded ket as a dict of
cyclotomic amplitudes and takes each overlap <i| A^dag B |j> with
``inner_product``, term by term; an entry counts when its deviation is
not ``PhaseScalar.is_zero``.  It shares no kernel with the package's
integer Gram blocks: only the state pathway (``apply_pattern``,
``inner_product``) and the verifier's scan are imported.  It makes
|F|^2 dim (dim + 1) / 2 Python inner products, so it is only viable for
small families.  It drops in for ``verifier._exact_engine``.
"""

import itertools

import numpy as np

from quditqec.errors import apply_pattern
from quditqec.states import inner_product
from quditqec.verifier import _blocks_after_reference, _Scan, _touches


def exact_engine(code, patterns, tol: float, fail_fast: bool):
    """Cyclotomic overlaps, block by block as in the sparse Gram; an entry
    counts when its deviation is not a symbolic zero.  Returns (scan,
    failed, lam, None), ``lam`` the reference block on either verdict."""
    logicals = code.logical_windows()
    applied = [[apply_pattern(code.encoded_kets[w], p) for p in patterns]
               for w in logicals]
    reference = [[inner_product(x, y) for y in applied[0]] for x in applied[0]]
    lam = np.array([[r.to_complex() for r in row] for row in reference])
    scan = _Scan(_touches(code, patterns), tol, lam)
    failed = False
    for i, j in _blocks_after_reference(len(logicals)):
        counted = []
        for a, b in itertools.product(range(len(patterns)), repeat=2):
            value = inner_product(applied[i][a], applied[j][b])
            diff = value - reference[a][b] if i == j else value
            if not diff.is_zero():
                counted.append((a, b, diff.to_complex(), value.to_complex()))
                if fail_fast:
                    break
        if counted:
            failed = True
            a, b, deviation, observed = (np.array(c) for c in zip(*counted))
            scan.add(i, j, a, b, deviation, observed)
            if fail_fast:
                break
    return scan, failed, lam, None
