"""Distributions the library derives from validated weights skip re-validation.

coarsen, marginal and the registry's samplers (the two-level refinement's
cells among them) build their result through dist._derived: no copy, no second sum check, and
no __post_init__.  Each result must equal what the public constructor gives
on the same array, with the same carried extremes bit for bit, frozen, and
a zero mass must still raise PositivityError.
"""

import numpy as np
import pytest

from qentropy import (
    JointDist,
    Partition,
    PositivityError,
    ProbDist,
    coarsen,
    marginal,
    sample_simplex,
)
from qentropy import dist, verify


def _fail(*args, **kwargs):
    raise AssertionError("a derived distribution was validated again")


def _forbid_revalidation(monkeypatch):
    """Fail on any weight sum or public __post_init__ until monkeypatch.undo()."""
    monkeypatch.setattr(dist, "_sum", _fail)
    monkeypatch.setattr(ProbDist, "__post_init__", _fail)
    monkeypatch.setattr(JointDist, "__post_init__", _fail)


def _assert_as_public(got, cls):
    field = cls._ARRAY
    arr = getattr(got, field)
    public = cls(arr.copy())
    assert type(got) is cls
    assert not arr.flags.writeable
    assert arr.shape == getattr(public, field).shape
    assert arr.tobytes() == getattr(public, field).tobytes()
    if cls is ProbDist:
        assert got == public
    assert got._lo.hex() == public._lo.hex()
    assert got._hi.hex() == public._hi.hex()


def _rows(seed):
    return verify._draw_rows(np.random.default_rng(seed), None, None)["rows"]


def _derived_results():
    rng = np.random.default_rng(11)
    w = rng.exponential(size=9)
    p = ProbDist(w / w.sum())
    cells = rng.exponential(size=(2, 3, 4))
    j = JointDist(cells / cells.sum())
    return j, [
        (lambda: coarsen(p, Partition(((0, 4), (1, 2, 3), (5, 6, 7, 8)))), ProbDist),
        (lambda: marginal(j, (0, 2)), JointDist),
        (lambda: marginal(j, (1,)), JointDist),
        (lambda: sample_simplex(7, np.random.default_rng(3)), ProbDist),
        (lambda: sample_simplex(1, np.random.default_rng(3)), ProbDist),
        (lambda: verify._joint(verify._draw_joint(np.random.default_rng(4), None, None)), JointDist),
        (lambda: verify._joint(verify._draw_joint2(np.random.default_rng(5), None, None)), JointDist),
        # a two-level refinement: the cells, and their sums over its blocks
        (lambda: verify._nested(_rows(6))[0], ProbDist),
        (lambda: coarsen(*verify._nested(_rows(6))), ProbDist),
    ]


@pytest.mark.parametrize("index", range(9))
def test_derived_equals_public_construction(index, monkeypatch):
    _, results = _derived_results()
    build, cls = results[index]
    _forbid_revalidation(monkeypatch)
    got = build()
    monkeypatch.undo()
    _assert_as_public(got, cls)


def test_marginal_over_every_axis_is_the_joint_itself(monkeypatch):
    j, _ = _derived_results()
    _forbid_revalidation(monkeypatch)
    assert marginal(j, (2, 0, 1)) is j


def test_derived_path_neither_copies_nor_sums(monkeypatch):
    arr = np.array([0.25, 0.75])
    _forbid_revalidation(monkeypatch)
    got = dist._derived(ProbDist, arr)
    assert got.weights is arr and not arr.flags.writeable
    assert (got._lo, got._hi) == (0.25, 0.75)


class _ZeroDraw:
    """A stub generator whose exponential draw holds an exact zero."""

    def exponential(self, size):
        return np.array([0.0, 1.0, 2.0])[:size]


def test_zero_mass_still_raises_positivity_error():
    with pytest.raises(PositivityError) as public:
        ProbDist(np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]))
    with pytest.raises(PositivityError) as derived:
        sample_simplex(3, _ZeroDraw(), min_mass=0.0)
    assert str(derived.value) == str(public.value)
    with pytest.raises(PositivityError) as public_joint:
        JointDist(np.array([[0.0, 0.5], [0.25, 0.25]]))
    with pytest.raises(PositivityError) as derived_joint:
        dist._derived(JointDist, np.array([[0.0, 0.5], [0.25, 0.25]]))
    assert str(derived_joint.value) == str(public_joint.value)
    for bad in (np.array([np.nan, 1.0]), np.array([np.inf, 1.0])):
        with pytest.raises(PositivityError):
            dist._derived(ProbDist, bad)


def test_public_constructors_still_copy_their_input():
    # the boundary copies, so a caller's array is never frozen or shared
    src = np.array([0.25, 0.75])
    assert ProbDist(src).weights is not src and src.flags.writeable
    cells = np.full((2, 2), 0.25)
    assert JointDist(cells).cells is not cells and cells.flags.writeable
