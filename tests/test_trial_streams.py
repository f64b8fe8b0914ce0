"""Per-trial streams: one spawned SeedSequence per case, one jump per trial.

Trial t of a case draws from
PCG64(SeedSequence(seed, spawn_key=(case index,))).jumped(t).  The harness
builds one generator per case and call, and places it at trial t by
restoring the stream's start state and advancing it t jumps; these tests
hold the states that trials see, in ranges from the stream's start and from
mid-stream, to NumPy's own ``jumped`` as the reference.
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
# where a forked child's range, or the merge's re-run of one, starts
MID_STREAM_STARTS = [25, 9_998]


def _probe(case_index, seen):
    """A case under a registered id, on that case's streams, that records
    the generator state each trial sees after the harness draws its n."""

    def trial(rng, n, q):
        seen.append(rng.bit_generator.state)
        return [0.0], {}

    return verify.TheoremCase(list(verify.REGISTRY)[case_index], "probe", trial, q_range=None)


def _start_states(seed, case_index, trials):
    """The generator state each trial of a run sees after the harness draws its n.

    The trials run in this process, on the plan run_case makes: a run_case
    of 1200 or more trials forks, and the probe's records of a child's range
    stay in the child.
    """
    seen = []
    (plan,) = verify._plans([_probe(case_index, seen)], trials, seed)
    verify._run_trials(plan, 0, trials)
    return seen


def _jumped_state(seed, case_index, t):
    """NumPy's own state for trial t after the draw of n."""
    base = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(case_index,)))
    ref = np.random.Generator(base.jumped(t))
    ref.integers(2, 17)  # run_case's draw of n, with the default n_range
    return ref.bit_generator.state


@functools.lru_cache(maxsize=None)
def _run_states(seed, case_index):
    """Start states of one run long enough for every trial in TRIALS."""
    return tuple(_start_states(seed, case_index, max(TRIALS) + 1))


@pytest.mark.parametrize(
    "seed, case_index, t", itertools.product(SEEDS, CASE_INDICES, TRIALS)
)
def test_trial_states_equal_numpy_jumped(seed, case_index, t):
    assert _run_states(seed, case_index)[t] == _jumped_state(seed, case_index, t)


@pytest.mark.parametrize(
    "seed, case_index, t0", itertools.product(SEEDS, CASE_INDICES, MID_STREAM_STARTS)
)
def test_mid_stream_range_states_equal_numpy_jumped(seed, case_index, t0):
    seen = []
    (plan,) = verify._plans([_probe(case_index, seen)], t0 + 2, seed)
    # the plan's generator first runs another range, as the parent's does
    # before it re-runs a range no child delivered
    verify._run_trials(plan, 0, 2)
    verify._run_trials(plan, t0, t0 + 2)
    trials = [0, 1, t0, t0 + 1]
    assert seen == [_jumped_state(seed, case_index, t) for t in trials]


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
