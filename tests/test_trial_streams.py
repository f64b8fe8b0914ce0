"""Per-trial streams: one generator per run, re-seeded from a bulk hash.

Trial t of a case draws from SeedSequence((seed, case index, t)).  The
harness hashes the states of all its trials at once and sets them on one
generator; these tests hold that port of NumPy's SeedSequence and PCG64
seeding to NumPy itself, as the reference.
"""

import itertools

import numpy as np
import pytest

from qentropy import DomainError, run_case
from qentropy import verify

SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5]  # 3, 4 and 5 entropy words
CASE_INDICES = [0, 23]
TRIALS = [0, 1, 49, 9_999, 2**32 - 1]


def _reference(words, t):
    return np.random.default_rng(np.random.SeedSequence(np.array(words + [t], dtype=np.uint32)))


@pytest.mark.parametrize("seed, case_index", itertools.product(SEEDS, CASE_INDICES))
def test_states_equal_numpy_seed_sequence(seed, case_index):
    words = verify._uint32_words(seed) + [case_index]
    states = verify._pcg64_states(words, np.array(TRIALS, dtype=np.uint32))
    assert len(states) == len(TRIALS)
    for t, state in zip(TRIALS, states):
        ref = _reference(words, t)
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = state
        assert rng.bit_generator.state == ref.bit_generator.state, t
        assert rng.integers(0, 2**40) == ref.integers(0, 2**40)
        assert rng.exponential() == ref.exponential()
        assert rng.permutation(16).tolist() == ref.permutation(16).tolist()


def test_trial_states_are_chunked_in_trial_order(monkeypatch):
    monkeypatch.setattr(verify, "_STATE_CHUNK", 7)
    words = verify._uint32_words(2**64 + 5) + [3]
    got = list(verify._trial_states(words, 17))
    assert got == verify._pcg64_states(words, np.arange(17, dtype=np.uint32))


def test_run_case_builds_one_generator_and_no_seed_sequence(monkeypatch):
    built = []
    real = np.random.Generator

    def counting(bit_generator):
        built.append(bit_generator)
        return real(bit_generator)

    def forbidden(*args, **kwargs):
        raise AssertionError("run_case must not build a SeedSequence or a default_rng")

    monkeypatch.setattr(np.random, "Generator", counting)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    run_case("prop2.3", trials=40, seed=2**64 + 5)
    assert len(built) == 1


def test_trials_past_one_word_are_rejected_before_any_trial(monkeypatch):
    monkeypatch.setattr(verify, "_trial_states", None)  # any trial would fail on it
    with pytest.raises(DomainError, match=r"trials < 2\*\*32"):
        run_case("id14", trials=2**32, seed=1)
    with pytest.raises(DomainError):
        run_case("qadd", trials=2**40, seed=1)
