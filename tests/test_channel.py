import itertools
import json

import numpy as np
import pytest

from quditqec import channel
from quditqec.channel import (ChannelConfig, UncorrectableError, decode_mld,
                              run_trials, sample_channel)
from quditqec.codes import build_identity_code, builtin
from quditqec.cyclotomic import PhaseScalar
from quditqec.errors import (ErrorPattern, additive_flip, apply_pattern,
                             enumerate_family, general, phase_shift,
                             spin_flip, weyl)
from quditqec.states import RegisterState, inner_product
from quditqec.transforms import dualize
from quditqec.verifier import kl_check
from test_verifier import wide_repetition_code


def shor_setup():
    code = builtin("shor9", 2, 1)
    family = enumerate_family(9, 9, 1, n_levels=2)
    return code, family


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(p=-0.1, seed=1, trials=10)
    with pytest.raises(ValueError):
        ChannelConfig(p=1.5, seed=1, trials=10)
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=-1, trials=10)
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=1, trials=0)
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=1, trials=10, error_menu=())
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=1, trials=10, error_menu=(weyl(0, 0),))
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=1, trials=10, weights=(1.0,))
    menu = (weyl(1, 0), weyl(0, 1))
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=1, trials=10, error_menu=menu,
                      weights=(1.0,))
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=1, trials=10, error_menu=menu,
                      weights=(0.9, 0.2))
    with pytest.raises(ValueError):
        ChannelConfig(p=0.1, seed=1, trials=10, error_menu=menu,
                      weights=(-0.5, 1.5))
    cfg = ChannelConfig(p=0.1, seed=1, trials=10, error_menu=menu,
                        weights=(0.25, 0.75))
    assert cfg.weights == (0.25, 0.75)
    # seed and trials are integers, not floats or bools
    for bad in ({"seed": 1.5}, {"trials": 2.5}, {"seed": True},
                {"trials": True}, {"seed": "1"}):
        with pytest.raises(ValueError):
            ChannelConfig(**{"p": 0.1, "seed": 1, "trials": 10, **bad})
    cfg = ChannelConfig(p=0.1, seed=np.uint64(2 ** 63), trials=np.int64(3))
    assert type(cfg.seed) is int and type(cfg.trials) is int
    # p is a real number, not a bool or a string, and is kept as a float
    for bad in (True, False, "0.1", None, 0.5j, float("nan")):
        with pytest.raises(ValueError):
            ChannelConfig(p=bad, seed=1, trials=10)
    for good in (1, np.float32(0.25), np.int64(0)):
        cfg = ChannelConfig(p=good, seed=1, trials=10)
        assert type(cfg.p) is float and cfg.p == float(good)


def test_sample_channel_p_zero_is_identity():
    state = RegisterState.basis(2, (0, 1, 1, 0))
    cfg = ChannelConfig(p=0.0, seed=5, trials=1)
    for trial in range(8):
        corrupted, pattern = sample_channel(state, cfg, trial)
        assert pattern.support == ()
        assert corrupted.to_complex_terms() == state.to_complex_terms()


def test_sample_channel_p_one_single_op_menu():
    state = RegisterState.basis(2, (0, 0, 0))
    cfg = ChannelConfig(p=1.0, seed=9, trials=1,
                        error_menu=(additive_flip(1),))
    corrupted, pattern = sample_channel(state, cfg, 0)
    assert pattern.support == (1, 2, 3)
    assert list(corrupted.to_complex_terms()) == [(1, 1, 1)]


def test_sample_channel_deterministic_per_trial():
    state = RegisterState.basis(2, (0,) * 6)
    cfg = ChannelConfig(p=0.4, seed=123, trials=1)
    first = [sample_channel(state, cfg, t)[1] for t in range(20)]
    second = [sample_channel(state, cfg, t)[1] for t in range(20)]
    assert first == second
    assert len({p.support for p in first}) > 1


def draw_before(cfg, width, menu, weights, trial):
    """The per-trial draw as it was first written: one ``rng.choice`` per
    hit register.  The channel's draw must reproduce it bit for bit."""
    rng = np.random.default_rng([cfg.seed, trial])
    hits = rng.random(width) < cfg.p
    placed = {}
    for slot in np.flatnonzero(hits):
        pick = int(rng.choice(len(menu), p=weights))
        placed[int(slot) + 1] = menu[pick]
    return ErrorPattern.from_dict(width, placed)


ZERO_WEIGHT_MENU = ((weyl(1, 0), weyl(0, 1), weyl(1, 1), weyl(0, 2)),
                    (0.3, 0.0, 0.45, 0.25))
# a zero weight first and last, and an entry listed twice
DUPLICATE_MENU = ((weyl(1, 0), weyl(0, 1), weyl(1, 0), weyl(1, 1)),
                  (0.0, 0.3, 0.7, 0.0))


@pytest.mark.parametrize("n, menu", [
    (2, None), (3, None), (3, ZERO_WEIGHT_MENU), (3, DUPLICATE_MENU)])
def test_draw_stream_is_pinned(n, menu):
    # seeds of one and two 32-bit words of entropy
    state = RegisterState.basis(n, (0,) * 12)
    for p, seed in itertools.product(
            (0.0, 0.02, 0.2, 1.0),
            (0, 1, 2, 4242, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1)):
        if menu is None:
            cfg = ChannelConfig(p=p, seed=seed, trials=1)
        else:
            cfg = ChannelConfig(p=p, seed=seed, trials=1, error_menu=menu[0],
                                weights=menu[1])
        entries, weights = cfg.menu_for(n)
        for trial in range(25):
            _, pattern = sample_channel(state, cfg, trial)
            assert pattern == draw_before(cfg, 12, entries, weights, trial), \
                (p, seed, trial)


# numpy's PCG64: state' = state * multiplier + increment, and the output is
# the low word of state' xor its high word, rotated by the top six bits
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def generator_drawing(value, position):
    """A numpy Generator whose uniform number ``position`` (from 0) is
    exactly ``value``, a multiple of 2^-53 in [0, 1)."""
    modulus = 1 << 128
    increment = np.random.PCG64(0).state["state"]["inc"]
    inverse = pow(PCG64_MULTIPLIER, -1, modulus)
    # high word 0: no rotation, and the output is the low word
    state = int(value * 2 ** 53) << 11
    for _ in range(position + 1):
        state = (state - increment) * inverse % modulus
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": state, "inc": increment},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def test_draw_breaks_ties_as_choice(monkeypatch):
    # a uniform that equals a cumulative weight exactly, on either side of
    # a zero weight: only the tie rule decides between the entries
    menu = (weyl(1, 0), weyl(0, 1), weyl(1, 1))
    state = RegisterState.basis(2, (0,))
    for weights, tie, pick in (((0.0, 0.5, 0.5), 0.0, 1),
                               ((0.5, 0.0, 0.5), 0.5, 2),
                               ((0.25, 0.5, 0.25), 0.25, 1)):
        stream = generator_drawing(tie, 1).random(2)
        assert stream[1] == tie
        # the referee draws from the generator, the channel's picks from
        # the same uniforms, fed in where uniforms become picks
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed, tie=tie: generator_drawing(tie, 1))
        monkeypatch.setattr(channel, "_uniforms",
                            lambda state, draws, stream=stream: stream[draws])
        cfg = ChannelConfig(p=1.0, seed=1, trials=1, error_menu=menu,
                            weights=weights)
        _, pattern = sample_channel(state, cfg, 0)
        assert pattern == draw_before(cfg, 1, menu, weights, 0), weights
        assert pattern.ops == ((1, menu[pick]),)


def test_draw_stream_is_pinned_at_wide_trial_indices():
    # trial indices of one, two and three words: the last takes the seed
    # sequence past its pool of four words
    state = RegisterState.basis(2, (0,) * 12)
    for seed, trial in itertools.product(
            (0, 7, 2 ** 32, 2 ** 64 - 1),
            (2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 64 + 3)):
        cfg = ChannelConfig(p=0.4, seed=seed, trials=1)
        entries, weights = cfg.menu_for(2)
        _, pattern = sample_channel(state, cfg, trial)
        assert pattern == draw_before(cfg, 12, entries, weights, trial), \
            (seed, trial)


def test_sample_channel_refuses_a_negative_trial():
    state = RegisterState.basis(2, (0, 0))
    cfg = ChannelConfig(p=0.5, seed=3, trials=1)
    with pytest.raises(ValueError):
        np.random.default_rng([cfg.seed, -1])
    with pytest.raises(ValueError, match="nonnegative"):
        sample_channel(state, cfg, -1)
    with pytest.raises(TypeError):
        sample_channel(state, cfg, 1.0)


def benchmark_channel_inputs():
    """The channel runs of the benchmark: (code, cfg, family, logical)."""
    r14 = builtin("rate14_conv", 2, 3)
    r14_family = enumerate_family(r14.width, 8, 1, n_levels=2)
    p5 = builtin("perfect5", 3, 1)
    p5_family = enumerate_family(p5.width, 5, 1, n_levels=3)
    shor = builtin("shor9", 3, 1)
    dual = dualize(builtin("majority3", 3, 1))
    phases = enumerate_family(dual.width, 3, 1, n_levels=3,
                              basis=(weyl(0, 1), weyl(0, 2)))
    return [
        (r14, ChannelConfig(p=0.02, seed=11, trials=600), r14_family,
         RegisterState.basis(2, (0, 1, 1))),
        (r14, ChannelConfig(p=0.2, seed=12, trials=250), r14_family,
         RegisterState.basis(2, (0, 1, 1))),
        (p5, ChannelConfig(p=0.02, seed=13, trials=60), p5_family,
         RegisterState.basis(3, (2,))),
        (p5, ChannelConfig(p=0.2, seed=14, trials=25), p5_family,
         RegisterState.basis(3, (2,))),
        (shor, ChannelConfig(p=0.05, seed=15, trials=100),
         enumerate_family(shor.width, 9, 1, n_levels=3),
         RegisterState.basis(3, (1,))),
        (dual, ChannelConfig(p=0.1, seed=16, trials=250,
                             error_menu=phases.basis), phases,
         RegisterState.basis(3, (1,))),
    ]


def test_run_trials_draws_as_sample_channel():
    for code, cfg, family, logical in benchmark_channel_inputs():
        summary = run_trials(code, cfg, family, logical, keep_records=True)
        state = RegisterState.basis(code.n_levels, (0,) * code.width)
        entries, weights = cfg.menu_for(code.n_levels)
        for trial, record in enumerate(summary.records):
            pattern = sample_channel(state, cfg, trial)[1]
            assert record.injected == pattern, (code.label, trial)
            assert pattern == draw_before(cfg, code.width, entries, weights,
                                          trial), (code.label, trial)
        assert any(r.injected.weight > 0 for r in summary.records)


def test_draw_blocks_do_not_change_records(monkeypatch):
    # blocks that do not divide the trials, with patterns repeating within
    # and across blocks
    for code, cfg, family, logical in benchmark_channel_inputs()[::2]:
        whole = run_trials(code, cfg, family, logical, keep_records=True)
        for block in (1, 7, cfg.trials - 1):
            with monkeypatch.context() as patch:
                patch.setattr(channel, "DRAW_BLOCK", block)
                blocked = run_trials(code, cfg, family, logical,
                                     keep_records=True)
            assert blocked == whole, (code.label, block)


def test_decode_uncorrupted_shor9():
    code, family = shor_setup()
    encoded = code.encode(RegisterState.basis(2, (1,)))
    recovered, chosen = decode_mld(code, encoded, family)
    assert chosen.support == ()
    fid = abs(inner_product(RegisterState.basis(2, (1,)),
                            recovered).to_complex()) ** 2
    assert abs(fid - 1) < 1e-12


def test_decode_single_flip_shor9():
    code, family = shor_setup()
    logical = RegisterState.basis(2, (0,))
    corrupted = apply_pattern(code.encode(logical),
                              ErrorPattern.from_dict(9, {4: weyl(1, 0)}))
    recovered, chosen = decode_mld(code, corrupted, family)
    fid = abs(inner_product(logical, recovered).to_complex()) ** 2
    assert abs(fid - 1) < 1e-9
    assert dict(chosen.ops) == {4: weyl(1, 0)}


def test_decode_every_family_member_shor9():
    code, family = shor_setup()
    logical = RegisterState.basis(2, (1,))
    encoded = code.encode(logical)
    for pattern in family:
        recovered, _ = decode_mld(code, apply_pattern(encoded, pattern),
                                  family)
        fid = abs(inner_product(logical, recovered).to_complex()) ** 2
        assert fid > 1 - 1e-9, pattern.to_json()


def test_decode_weight_two_uncorrectable():
    # flips in two different blocks: no single-register candidate can
    # bring the state back to the code space (same-block pairs would be
    # repaired through degeneracy, e.g. X1X2 acts like X3)
    code, family = shor_setup()
    corrupted = apply_pattern(
        code.encode(RegisterState.basis(2, (0,))),
        ErrorPattern.from_dict(9, {1: weyl(1, 0), 4: weyl(1, 0)}))
    with pytest.raises(UncorrectableError):
        decode_mld(code, corrupted, family)



def test_decode_refuses_a_state_off_the_code():
    code, family = shor_setup()
    with pytest.raises(ValueError,
                       match="width 10 and n_levels 2; the code has width 9"):
        decode_mld(code, RegisterState.basis(2, (0,) * 10), family)
    # a digit past the code's N, which would key a string off the code's
    # basis
    for state in (RegisterState.basis(3, (0,) * 9),
                  RegisterState.basis(3, (2,) + (0,) * 8)):
        with pytest.raises(ValueError, match="n_levels 3; the code has "
                           "width 9 and n_levels 2"):
            decode_mld(code, state, family)

FAILING_SINGLES = {
    (3, (0, 1)), (5, (0, 1)), (7, (0, 1)), (8, (0, 1)), (9, (0, 1)),
    (10, (0, 1)), (10, (1, 1)), (11, (0, 1)), (12, (0, 1)), (12, (1, 0)),
    (12, (1, 1)), (13, (0, 1)), (14, (0, 1)), (14, (1, 1)), (15, (0, 1)),
    (15, (1, 0)), (15, (1, 1)), (16, (0, 1)), (16, (1, 0)), (16, (1, 1)),
}


def test_truncated_convolutional_single_error_fidelities():
    # Register digits of the encoded kets do not depend on the logical
    # word, so a phase pattern whose window parity sums collide with a
    # logical relabeling acts as an exact logical flip.  The decoder then
    # returns the flipped basis word and the fidelity drops to zero; the
    # 20 placements below are exactly the colliding ones at length 3.
    code = builtin("rate14_conv", 2, 3)
    family = enumerate_family(16, 8, 1, n_levels=2)
    logical = RegisterState.basis(2, (0, 1, 1))
    encoded = code.encode(logical)
    seen_failures = set()
    for pos in range(1, 17):
        for a, b in ((0, 1), (1, 0), (1, 1)):
            corrupted = apply_pattern(
                encoded, ErrorPattern.from_dict(16, {pos: weyl(a, b)}))
            recovered, _ = decode_mld(code, corrupted, family)
            fid = abs(inner_product(logical, recovered).to_complex()) ** 2
            if (pos, (a, b)) in FAILING_SINGLES:
                assert fid < 1e-9, (pos, a, b, fid)
                seen_failures.add((pos, (a, b)))
            else:
                assert fid > 1 - 1e-9, (pos, a, b, fid)
    assert seen_failures == FAILING_SINGLES


def test_run_trials_p_zero_all_succeed():
    code, family = shor_setup()
    cfg = ChannelConfig(p=0.0, seed=7, trials=40)
    summary = run_trials(code, cfg, family, RegisterState.basis(2, (0,)))
    assert summary.trials == 40
    assert summary.in_family_count == 40
    assert summary.success_count == 40
    assert summary.conditional_success == 1.0
    assert abs(summary.mean_fidelity - 1.0) < 1e-12


def test_run_trials_noisy_identity_code_degrades():
    code = build_identity_code(2, 2)
    family = enumerate_family(2, 2, 1, n_levels=2)
    cfg = ChannelConfig(p=0.5, seed=11, trials=300)
    summary = run_trials(code, cfg, family, RegisterState.basis(2, (0, 1)))
    assert summary.mean_fidelity < 0.9
    assert summary.success_count < summary.trials


def test_record_invariant_and_counts():
    code, family = shor_setup()
    cfg = ChannelConfig(p=0.15, seed=3, trials=120)
    summary = run_trials(code, cfg, family, RegisterState.basis(2, (1,)),
                         keep_records=True)
    records = summary.records
    assert len(records) == 120
    for rec in records:
        assert rec.success == (rec.logical_fidelity >= 1 - 1e-6)
        assert rec.in_family == family.contains(rec.injected)
    assert summary.success_count == sum(r.success for r in records)
    assert summary.in_family_count == sum(r.in_family for r in records)
    assert summary.in_family_success_count == \
        sum(r.success for r in records if r.in_family)


def test_trial_records_round_trip_through_json():
    # at p=0.5 some shor9 syndromes lie outside the single-error family,
    # so some trials choose nothing
    code, family = shor_setup()
    cfg = ChannelConfig(p=0.5, seed=11, trials=60)
    summary = run_trials(code, cfg, family, RegisterState.basis(2, (0,)),
                         keep_records=True)
    dumped = [json.loads(json.dumps(r.to_json())) for r in summary.records]
    assert {data["chosen"] is None for data in dumped} == {True, False}
    for rec, data in zip(summary.records, dumped):
        assert ErrorPattern.from_json(data["injected"]) == rec.injected
        if rec.chosen is None:
            assert data["chosen"] is None
        else:
            assert ErrorPattern.from_json(data["chosen"]) == rec.chosen
        assert (data["in_family"], data["logical_fidelity"],
                data["success"]) == (rec.in_family, rec.logical_fidelity,
                                     rec.success)


def reference_records(code, cfg, family, logical):
    """Trial records one state at a time: sample_channel (exact
    corruption), then decode_mld (float scores, as in run_trials).

    Both are deterministic, so a repeated injected pattern reuses the
    decode of its first trial (each call rebuilds the decoder).
    """
    encoded = code.encode(logical)
    decoded = {}
    records = []
    for trial in range(cfg.trials):
        corrupted, injected = sample_channel(encoded, cfg, trial)
        if injected not in decoded:
            try:
                recovered, chosen = decode_mld(code, corrupted, family)
            except UncorrectableError:
                decoded[injected] = (None, 0.0, False)
            else:
                fid = abs(inner_product(logical, recovered).to_complex()) ** 2
                decoded[injected] = (chosen, fid, fid >= 1 - 1e-6)
        records.append((injected, family.contains(injected))
                       + decoded[injected])
    return records


def assert_matches_reference(code, cfg, family, logical):
    summary = run_trials(code, cfg, family, logical, keep_records=True)
    expected = reference_records(code, cfg, family, logical)
    assert len(summary.records) == len(expected)
    for rec, (injected, in_family, chosen, fid, success) in zip(
            summary.records, expected):
        assert (rec.injected, rec.in_family, rec.chosen, rec.success) == \
            (injected, in_family, chosen, success), rec.to_json()
        assert abs(rec.logical_fidelity - fid) < 1e-12
    return summary


# perfect5 N=3 rebuilds a 2.3M-entry decoder per reference decode: fewer
# trials there
@pytest.mark.parametrize("label, n, length, window, logical, p, trials", [
    ("rate14_conv", 2, 3, 8, (0, 1, 1), 0.02, 200),
    ("rate14_conv", 2, 3, 8, (0, 1, 1), 0.2, 40),
    ("perfect5", 3, 1, 5, (2,), 0.02, 40),
    ("perfect5", 3, 1, 5, (2,), 0.2, 8),
])
def test_run_trials_matches_exact_reference(label, n, length, window,
                                            logical, p, trials):
    code = builtin(label, n, length)
    family = enumerate_family(code.width, window, 1, n_levels=n)
    cfg = ChannelConfig(p=p, seed=4242, trials=trials)
    summary = assert_matches_reference(code, cfg, family,
                                       RegisterState.basis(n, logical))
    assert summary.decoder == "syndrome"
    assert any(r.injected.weight > 0 for r in summary.records)


def test_run_trials_matches_exact_reference_non_weyl_menu():
    w = np.exp(2j * np.pi / 3)
    menu = (spin_flip([1, 1, 0]), phase_shift([1, w, w]),
            general([[0, 0.6, 0.8j], [0.8, 0, 0], [0, 0.8, -0.6j]]))
    code = builtin("majority3", 3, 2)
    family = enumerate_family(code.width, 3, 1, basis=menu)
    cfg = ChannelConfig(p=0.3, seed=99, trials=80, error_menu=menu,
                        weights=(0.25, 0.25, 0.5))
    summary = assert_matches_reference(code, cfg, family,
                                       RegisterState.basis(3, (1, 2)))
    assert summary.decoder == "ket"
    kinds = {op.kind for r in summary.records for _, op in r.injected.ops}
    assert kinds == {"spin_flip", "phase_shift", "general"}


def test_run_trials_uncorrectable_trial():
    # projecting every hit register onto |1> annihilates the encoded |000>:
    # no candidate reaches the code space
    code = builtin("majority3", 2, 1)
    menu = (general([[0, 0], [0, 1]]),)
    cfg = ChannelConfig(p=0.5, seed=8, trials=40, error_menu=menu)
    summary = assert_matches_reference(
        code, cfg, enumerate_family(3, 3, 1, n_levels=2),
        RegisterState.basis(2, (0,)))
    assert summary.decoder == "ket"
    hit = [r for r in summary.records if r.injected.weight > 0]
    assert hit and len(hit) < 40
    for rec in hit:
        assert (rec.chosen, rec.logical_fidelity, rec.success) == \
            (None, 0.0, False)
    assert all(r.success for r in summary.records if r.injected.weight == 0)


def test_jobs_do_not_change_summary():
    code = builtin("majority3", 2, 1)
    menu = (additive_flip(1),)
    family = enumerate_family(3, 3, 1, basis=menu)
    cfg = ChannelConfig(p=0.2, seed=2024, trials=600, error_menu=menu)
    logical = RegisterState.basis(2, (0,))
    solo = run_trials(code, cfg, family, logical, jobs=1)
    multi = run_trials(code, cfg, family, logical, jobs=3)
    assert solo.to_json() == multi.to_json()


def test_ket_path_for_non_weyl_family():
    # a spin-flip family is not Weyl even where the injected menu is
    code = builtin("majority3", 2, 2)
    family = enumerate_family(code.width, 3, 1, basis=(spin_flip([1, 0]),))
    cfg = ChannelConfig(p=0.2, seed=13, trials=80)
    summary = assert_matches_reference(code, cfg, family,
                                       RegisterState.basis(2, (1, 0)))
    assert summary.decoder == "ket"
    assert any(r.injected.weight > 0 for r in summary.records)


def force_ket(monkeypatch):
    """Route run_trials to the ket path, whatever its inputs."""
    monkeypatch.setattr(channel, "_syndrome_plan", lambda *args: None)


def assert_frame_matches_ket(monkeypatch, code, cfg, family, logical):
    frame = run_trials(code, cfg, family, logical, keep_records=True)
    with monkeypatch.context() as patch:
        force_ket(patch)
        ket = run_trials(code, cfg, family, logical, keep_records=True)
    assert (frame.decoder, ket.decoder) == ("syndrome", "ket")
    for a, b in zip(frame.records, ket.records):
        assert (a.injected, a.in_family, a.chosen, a.success) == \
            (b.injected, b.in_family, b.chosen, b.success), a.to_json()
        assert abs(a.logical_fidelity - b.logical_fidelity) < 1e-12
    assert len(frame.records) == len(ket.records) == cfg.trials
    return frame


def superposed(n, width, seed):
    rng = np.random.default_rng(seed)
    words = list(itertools.product(range(n), repeat=width))
    amps = rng.normal(size=len(words)) + 1j * rng.normal(size=len(words))
    return RegisterState(n, width, {
        w: PhaseScalar.from_complex(complex(a)) for w, a in zip(words, amps)})


@pytest.mark.parametrize("label, n, length, window, logical, p, trials", [
    ("rate14_conv", 2, 3, 8, (0, 1, 1), 0.02, 600),
    ("rate14_conv", 2, 3, 8, (0, 1, 1), 0.2, 250),
    ("perfect5", 3, 1, 5, (2,), 0.02, 60),
    ("perfect5", 3, 1, 5, (2,), 0.2, 25),
    ("shor9", 3, 1, 9, (1,), 0.05, 100),
    ("rate14_conv", 3, 2, 8, (1, 2), 0.1, 150),
    ("rate14_conv", 3, 2, 8, None, 0.1, 150),
    ("perfect5", 3, 1, 5, None, 0.2, 100),
])
def test_frame_path_matches_ket_path(monkeypatch, label, n, length, window,
                                     logical, p, trials):
    code = builtin(label, n, length)
    family = enumerate_family(code.width, window, 1, n_levels=n)
    state = superposed(n, length, 5) if logical is None \
        else RegisterState.basis(n, logical)
    cfg = ChannelConfig(p=p, seed=2718, trials=trials)
    summary = assert_frame_matches_ket(monkeypatch, code, cfg, family, state)
    assert any(r.injected.weight > 0 for r in summary.records)
    if logical is None:
        # a superposed input sees fidelities strictly between 0 and 1
        assert any(1e-6 < r.logical_fidelity < 1 - 1e-6
                   for r in summary.records)


def test_frame_path_matches_ket_path_on_a_phase_dual(monkeypatch):
    dual = dualize(builtin("majority3", 3, 1))
    family = enumerate_family(dual.width, 3, 1, n_levels=3,
                              basis=(weyl(0, 1), weyl(0, 2)))
    cfg = ChannelConfig(p=0.1, seed=31, trials=250, error_menu=family.basis)
    summary = assert_frame_matches_ket(monkeypatch, dual, cfg, family,
                                       RegisterState.basis(3, (1,)))
    assert summary.in_family_count < cfg.trials


def test_syndrome_path_for_composite_n(monkeypatch):
    # the stabilizer reads over Z_4 and Z_6 as over a prime
    for n in (4, 6):
        code = builtin("majority3", n, 1)
        family = enumerate_family(3, 3, 1, n_levels=n)
        cfg = ChannelConfig(p=0.3, seed=12, trials=60)
        logical = RegisterState.basis(n, (3,))
        summary = assert_frame_matches_ket(monkeypatch, code, cfg, family,
                                           logical)
        assert any(r.injected.weight > 0 for r in summary.records)
        if n == 4:
            assert_matches_reference(code, cfg, family, logical)
    dual = dualize(builtin("majority3", 4, 1))
    family = enumerate_family(dual.width, 3, 1, n_levels=4,
                              basis=(weyl(0, 1), weyl(0, 2), weyl(0, 3)))
    cfg = ChannelConfig(p=0.2, seed=31, trials=200, error_menu=family.basis)
    summary = assert_frame_matches_ket(monkeypatch, dual, cfg, family,
                                       superposed(4, 1, 7))
    assert summary.in_family_count < cfg.trials


def test_frame_path_pattern_without_family_syndrome(monkeypatch):
    # at p=0.3 many trials hit shor9 twice, for example with flips in two
    # blocks, whose syndrome no single-register candidate shares
    code, family = shor_setup()
    cfg = ChannelConfig(p=0.3, seed=17, trials=120)
    summary = assert_frame_matches_ket(monkeypatch, code, cfg, family,
                                       RegisterState.basis(2, (1,)))
    missed = [r for r in summary.records if r.chosen is None]
    assert missed
    assert all((r.logical_fidelity, r.success, r.in_family) ==
               (0.0, False, False) for r in missed)


def test_frame_path_matches_ket_path_on_criterion_10(monkeypatch):
    code = builtin("rate14_conv", 2, 3)
    family = enumerate_family(16, 8, 1, n_levels=2)
    cfg = ChannelConfig(p=0.02, seed=20260814, trials=10000)
    summary = assert_frame_matches_ket(monkeypatch, code, cfg, family,
                                       RegisterState.basis(2, (0, 1, 1)))
    assert (summary.in_family_success_count, summary.in_family_count) == \
        (8644, 9701)



def test_ket_path_runs_past_int64_basis_indices():
    # N^width is 2^64: no stabilizer reads, and the ket path keys strings
    # by runs of registers
    code = wide_repetition_code()
    family = enumerate_family(64, 64, 1, n_levels=2).restricted((1, 2, 64))
    cfg = ChannelConfig(p=0.01, seed=7, trials=400)
    summary = assert_matches_reference(code, cfg, family,
                                       RegisterState.basis(2, (1,)))
    assert summary.decoder == "ket"
    assert any(r.in_family and r.injected.weight > 0
               for r in summary.records)
    assert summary.in_family_success_count == summary.in_family_count

def test_family_width_mismatch_on_both_paths(monkeypatch):
    code = builtin("shor9", 2, 1)
    narrow = enumerate_family(8, 8, 1, n_levels=2)
    logical = RegisterState.basis(2, (0,))
    cfg = ChannelConfig(p=0.1, seed=1, trials=5)
    with pytest.raises(ValueError, match="family width 8"):
        run_trials(code, cfg, narrow, logical)
    with monkeypatch.context() as patch:
        force_ket(patch)
        with pytest.raises(ValueError, match="family width 8"):
            run_trials(code, cfg, narrow, logical)
    # a non-Weyl menu would send the run to the ket path on its own
    menu = (spin_flip([1, 0]),)
    cfg = ChannelConfig(p=0.1, seed=1, trials=5, error_menu=menu)
    with pytest.raises(ValueError, match="family width 8"):
        run_trials(code, cfg, narrow, logical)


def test_logical_width_mismatch():
    code, family = shor_setup()
    cfg = ChannelConfig(p=0.0, seed=1, trials=1)
    with pytest.raises(ValueError):
        run_trials(code, cfg, family, RegisterState.basis(2, (0, 1)))


def test_logical_levels_mismatch_on_both_paths(monkeypatch):
    # a qutrit input on a qubit code is refused before any pattern is
    # drawn, on either path
    code, family = shor_setup()
    cfg = ChannelConfig(p=0.2, seed=1, trials=20)
    logical = RegisterState.basis(3, (2,))
    monkeypatch.setattr(channel, "_draw_rows",
                        lambda *args: pytest.fail("a pattern was drawn"))
    for force in (False, True):
        with monkeypatch.context() as patch:
            if force:
                force_ket(patch)
            with pytest.raises(ValueError, match="n_levels 3; the code has "
                                                 "n_levels 2"):
                run_trials(code, cfg, family, logical)


def test_summary_json_keys():
    code, family = shor_setup()
    cfg = ChannelConfig(p=0.1, seed=42, trials=30)
    data = run_trials(code, cfg, family, RegisterState.basis(2, (0,))).to_json()
    assert data["decoder"] == "syndrome"
    assert data["code"] == "shor9"
    assert data["N"] == 2 and data["L"] == 1
    assert data["trials"] == 30 and data["seed"] == 42
    assert 0 <= data["mean_fidelity"] <= 1


def test_repeated_runs_give_equal_records():
    code, family = shor_setup()
    logical = RegisterState.basis(2, (1,))
    cfg = ChannelConfig(p=0.2, seed=5, trials=150)
    first = run_trials(code, cfg, family, logical, keep_records=True)
    tableau = code._stabilizer
    second = run_trials(code, cfg, family, logical, keep_records=True)
    assert first.decoder == second.decoder == "syndrome"
    assert first.records == second.records
    assert first.to_json() == second.to_json()
    # the stabilizer was read once and holds one frame table
    assert code._stabilizer is tableau
    assert list(tableau.frames) == [family]


def test_two_families_on_one_code_match_fresh_codes():
    code = builtin("rate14_conv", 2, 3)
    wide = enumerate_family(16, 5, 1, n_levels=2)
    narrow = wide.restricted(range(4, 13))
    logical = RegisterState.basis(2, (1, 0, 1))
    cfg = ChannelConfig(p=0.1, seed=9, trials=200)
    runs = {}
    for family in (wide, narrow, wide):
        shared = run_trials(code, cfg, family, logical, keep_records=True)
        fresh = run_trials(builtin("rate14_conv", 2, 3), cfg, family,
                           logical, keep_records=True)
        assert shared.decoder == fresh.decoder == "syndrome"
        assert shared.records == fresh.records
        runs[family] = shared.records
    assert len(code._stabilizer.frames) == 2
    # the two tables differ: a single error off the narrow registers
    assert any(a.in_family and not b.in_family
               for a, b in zip(runs[wide], runs[narrow]))


def test_kl_report_unchanged_by_a_channel_run():
    code = builtin("rate14_conv", 2, 3)
    family = enumerate_family(16, 8, 1, n_levels=2)

    def report():
        data = kl_check(code, family).to_json()
        del data["elapsed_seconds"]
        return data

    before = report()
    assert before["engine"] == "syndrome"
    table = code._stabilizer.frames[family]
    summary = run_trials(code, ChannelConfig(p=0.2, seed=3, trials=100),
                         family, RegisterState.basis(2, (0, 1, 1)))
    # the check and the run read one syndrome table
    assert summary.decoder == "syndrome"
    assert list(code._stabilizer.frames) == [family]
    assert code._stabilizer.frames[family] is table
    assert report() == before
