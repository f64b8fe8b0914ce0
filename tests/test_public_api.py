"""Each module's ``__all__`` is the one declaration of its public names.

The package re-exports the ``__all__`` of every library module, and nothing
else public; ``serialize`` and ``cli`` are not re-exported, but the
benchmark tracer wraps the names in their ``__all__`` too, so those must
resolve as well.

Every public function and class is reached by the registry or the CLI:
a name that neither runs is a second spelling of an idea the library
already has, or dead code, unless the allowlist says why it stays.
"""

import functools
import importlib
import json
import sys
import types

import pytest

import qentropy
from qentropy import QEntropyError, cli, run_registry

REEXPORTED = ("bounds", "dist", "divergence", "entropy", "errors", "joint", "qmath", "quasilinear", "verify")


def _module(name):
    return importlib.import_module(f"qentropy.{name}")


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_reexports_each_module_all(name):
    module = _module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert getattr(qentropy, attr) is getattr(module, attr)


def test_package_public_names_are_the_union_of_module_alls():
    public = {
        attr
        for attr, value in vars(qentropy).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = {attr for name in REEXPORTED for attr in _module(name).__all__}
    assert public == declared


@pytest.mark.parametrize("name", ["serialize", "cli"])
def test_unexported_module_all_resolves(name):
    module = _module(name)
    for attr in module.__all__:
        assert hasattr(module, attr)


# Public names no registry or CLI path reaches, each kept for a reason.
REACH_ALLOWLIST = {
    "make_dist": "the one-call constructor the demos and the benchmark build inputs with",
    "check_psi_convexity": "tests three bounds' convexity hypothesis on a grid the caller chooses",
    "CompatibleConvexity": "what check_psi_convexity returns",
}
PSI_LABELS = ("identity", "log", "lnq")
F_LABELS = ("tsallis", "xlogx", "neglog")


def _public_names():
    return sorted(
        attr
        for attr, value in vars(qentropy).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    )


def _codes(obj):
    """Ids of the code objects whose running reaches obj: a class's methods,
    or the function under any memoizing wrapper.

    Ids, because equal code compares equal: two dataclasses with the same
    fields get equal generated __init__ code.
    """
    if not isinstance(obj, type):
        return {id(getattr(obj, "__wrapped__", obj).__code__)}
    codes = set()
    for attr in vars(obj).values():
        for fn in (attr, getattr(attr, "fget", None), getattr(attr, "__func__", None), getattr(attr, "func", None)):
            code = getattr(fn, "__code__", None)
            if code is not None:
                codes.add(id(code))
    return codes


def _unreached(runs):
    """Public functions and classes whose code none of ``runs`` executes.

    The memoized factories' caches are emptied first, so each factory's body
    runs on its first call.  Exceptions, data and REACH_ALLOWLIST are exempt.
    """
    names = []
    for name in _public_names():
        obj = getattr(qentropy, name)
        error = isinstance(obj, type) and issubclass(obj, QEntropyError)
        if callable(obj) and not error and name not in REACH_ALLOWLIST:
            names.append(name)
            getattr(obj, "cache_clear", lambda: None)()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(id(frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(previous)
    return [name for name in names if not _codes(getattr(qentropy, name)) & seen]


def _cli_argvs():
    """One argv per spec-table entry and generator label."""
    argvs = []
    tables = (
        (["compute", "--entropy"], cli._ENTROPY_SPECS),
        (["compute", "--divergence"], cli._DIVERGENCE_SPECS),
        (["bounds", "--case"], cli._BOUND_SPECS),
    )
    for flags, table in tables:
        for key, spec in table.items():
            inputs = [
                "xs.json" if read is cli._load_points else name
                for read, name in zip(spec.reads, ("p.json", "r.json"))
            ]
            q = [] if spec.q_policy == "rejects" else ["--q", "2"]
            labels = {"psi": PSI_LABELS, "f": F_LABELS}.get(spec.gen, (None,))
            for label in labels:
                gen = [] if label is None else [f"--{spec.gen}", label]
                argvs.append([*flags, key, *q, *gen, *inputs])
    return argvs


def test_every_public_name_is_reached(tmp_path, monkeypatch):
    for name, doc in (
        ("p.json", {"weights": [0.1, 0.2, 0.3, 0.4]}),
        ("r.json", {"weights": [0.4, 0.3, 0.2, 0.1]}),
        ("xs.json", {"values": [1.0, 4.0, 2.0, 0.5]}),
    ):
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)

    def main(argv):
        def run():
            assert cli.main(argv) == 0, argv

        return run

    runs = [lambda: run_registry(trials=5)]
    runs += [main(argv) for argv in _cli_argvs()]
    runs += [
        main(["verify", "--list"]),
        main(["verify", "--case", "id14", "--trials", "20"]),
        main(["verify", "--all", "--q", "2", "--trials", "5"]),
    ]
    assert _unreached(runs) == []


class _Planted:
    def method(self):
        return self


@functools.lru_cache(maxsize=1)
def _planted_factory():
    return 1


def _planted(p):
    return p


# (planted object, whether the traced run calls it, whether the check names it)
PLANTS = {
    "function": (_planted, False, True),
    "class": (_Planted, False, True),
    # memoized and already cached: the check empties the cache, so the
    # factory's own body runs when the traced run calls it
    "memoized-called": (_planted_factory, True, False),
    "memoized-uncalled": (_planted_factory, False, True),
}


@pytest.mark.parametrize("kind", PLANTS)
def test_reach_check_follows_code_not_names(kind, monkeypatch):
    obj, called, named = PLANTS[kind]
    _planted_factory()
    monkeypatch.setattr(qentropy, "planted", obj, raising=False)

    def run():
        qentropy.tsallis_entropy(qentropy.ProbDist([0.5, 0.5]), 2.0)
        if called:
            qentropy.planted()

    unreached = _unreached([run])
    assert ("planted" in unreached) == named
    assert "tsallis_entropy" not in unreached
