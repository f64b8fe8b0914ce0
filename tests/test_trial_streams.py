"""Per-trial streams: one spawned SeedSequence per case, one jump per trial.

Trial t of a case draws from
PCG64(SeedSequence(seed, spawn_key=(case index,))).jumped(t).  The harness
builds one generator per run and steps its state from one trial's start to
the next with the jump's affine map; these tests hold those states to
NumPy's own ``jumped`` as the reference.
"""

import functools
import itertools

import numpy as np
import pytest

from qentropy import run_case
from qentropy import verify

# 2**32 - 1 and 2**32 sit on either side of SeedSequence's split of the seed
# into 32-bit words; 2**64 + 5 takes three words
SEEDS = [0, 1, 7, 42, 2**32 - 1, 2**32, 2**32 + 3, 2**64 + 5]
CASE_INDICES = [0, 23]
TRIALS = [0, 1, 49, 9_999]  # trial 0 is the generator before any jump


def _start_states(seed, case_index, trials):
    """The generator state each trial of a run sees after run_case draws its n."""
    seen = []

    def trial(rng, n, q):
        seen.append(rng.bit_generator.state)
        return [0.0], {}

    # a probe case under a registered id: it runs on that case's streams
    probe = verify.TheoremCase(
        list(verify.REGISTRY)[case_index], "probe", trial, q_range=None
    )
    run_case(probe, trials=trials, seed=seed)
    return seen


@functools.lru_cache(maxsize=None)
def _run_states(seed, case_index):
    """Start states of one run long enough for every trial in TRIALS."""
    return tuple(_start_states(seed, case_index, max(TRIALS) + 1))


@pytest.mark.parametrize(
    "seed, case_index, t", itertools.product(SEEDS, CASE_INDICES, TRIALS)
)
def test_trial_states_equal_numpy_jumped(seed, case_index, t):
    base = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(case_index,)))
    ref = np.random.Generator(base.jumped(t))
    ref.integers(2, 17)  # run_case's draw of n, with the default n_range
    assert _run_states(seed, case_index)[t] == ref.bit_generator.state


def test_run_case_builds_one_seed_sequence_and_one_generator(monkeypatch):
    built = {"SeedSequence": 0, "PCG64": 0, "Generator": 0}

    def counting(name):
        real = getattr(np.random, name)

        def build(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)

        return build

    for name in built:
        monkeypatch.setattr(np.random, name, counting(name))
    monkeypatch.setattr(np.random, "default_rng", None)  # calling it would fail
    run_case("prop2.3", trials=40, seed=2**64 + 5)
    assert built == {"SeedSequence": 1, "PCG64": 1, "Generator": 1}


def test_seed_and_case_pairs_do_not_share_streams():
    # SeedSequence((2**32 + 3, 0, 0)) and SeedSequence((3, 1, 0)) hash the
    # same words [3, 1, 0, 0]; a spawned child pads the seed's words to the
    # pool size before its spawn key, so the two trials start apart
    (a,) = _start_states(2**32 + 3, 0, 1)
    (b,) = _start_states(3, 1, 1)
    assert a != b
