"""The compiled user-name index against the dict it stands in for.

Instances keep their users' name -> position index as a compiled
`NameIndex` (`_core.name_index`) when the compiled backend is selected, and
as `model._name_index`'s dict under APEP_KERNEL=python.  The two must answer
every query alike and refuse the same names with the same errors.
"""
import json
import random
import tracemalloc

import pytest

import vapep
from vapep import Instance, WspInstance, load_instance, load_wsp
from vapep.model import AuthCost, _name_index

needs_index = pytest.mark.skipif(
    "cython" not in vapep.available_backends(), reason="the compiled kernel is not built"
)


class _Name(str):
    """A str subclass, which both indexes take as a name."""


class _Unequal(_Name):
    """A name equal to nothing, itself included: only the same object finds
    it, as in a dict."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return False


class _EqualToAll:
    """A key equal to everything, whose hash no name has: a dict compares
    only keys of equal hash, so it finds nothing."""

    def __hash__(self):
        return 12345

    def __eq__(self, other):
        return True


def _names(rng):
    """A random name list: mostly distinct non-empty strings, some with a
    fault (a repeat, an empty or a non-str name)."""
    pool = ["u", "é", "名", "ü1", "a b", "\x00", "u\\1", "x" * 40]
    names = [rng.choice(pool) + str(i) for i in range(rng.randint(0, 60))]
    if rng.random() < 0.2:
        names = [rng.choice([_Name, _Unequal])(nm) if rng.random() < 0.3 else nm
                 for nm in names]
    fault = rng.random()
    if names and fault < 0.1:
        names.insert(rng.randrange(len(names)), rng.choice(names))
    elif fault < 0.15:
        names.append("")
    elif fault < 0.2:
        names.insert(rng.randint(0, len(names)), rng.choice([7, None, b"u1", ("u1",)]))
    return tuple(names)


def _probes(rng, names):
    """Keys to look up: present, missing, non-str and non-ASCII ones."""
    keys = list(names) + [_Name(nm) for nm in names[:3]]
    keys += ["", "missing", "é", "u", 0, 1, -1, 2**70, 1.0, None, b"u1", ("u1",),
             frozenset(), True, object(), _EqualToAll()]
    keys += ["".join(rng.choice("ué名x0") for _ in range(rng.randint(1, 4)))
             for _ in range(20)]
    return keys


def _answer(call):
    try:
        return "ok", call()
    except (KeyError, TypeError) as exc:
        return type(exc).__name__, exc.args


@needs_index
def test_name_index_answers_as_the_dict_does():
    from vapep._kernels._core import NameIndex, name_index

    rng = random.Random(23)
    valid = 0
    for _ in range(600):
        names = _names(rng)
        want, got = _name_index(names), name_index(names)
        assert (got is None) == (not want and bool(names)), names
        if got is None:
            continue
        valid += bool(names)
        assert type(got) is NameIndex
        assert len(got) == len(want) and bool(got) == bool(want)
        assert list(got) == list(want) and got.keys() == names
        assert dict(got) == want
        for key in _probes(rng, names):
            for query in (lambda ix: key in ix, lambda ix: ix[key], lambda ix: ix.get(key),
                          lambda ix: ix.get(key, -5)):
                assert _answer(lambda: query(got)) == _answer(lambda: query(want)), key
        for key in ([], {}, set(), ["u1"]):  # unhashable
            for query in (lambda ix: key in ix, lambda ix: ix[key], lambda ix: ix.get(key)):
                assert _answer(lambda: query(got)) == _answer(lambda: query(want))
                assert _answer(lambda: query(got))[0] == "TypeError"
    assert valid > 300


@needs_index
def test_instances_keep_a_name_index_on_the_compiled_backend(monkeypatch, tmp_path):
    from vapep._kernels._core import NameIndex
    from vapep.generator import GeneratorConfig, generate

    auth = AuthCost({"u1": {"r1"}})
    for backend, kind in (("cython", NameIndex), ("python", dict)):
        monkeypatch.setenv("APEP_KERNEL", backend)
        inst = Instance(("r1",), ("u1", "u2"), (), auth)
        generated = generate(GeneratorConfig(n=50, k=3, seed=1))
        path = tmp_path / "inst.json"
        vapep.dump_instance(inst, str(path))
        loaded = load_instance(str(path))
        for x in (inst, generated, loaded):
            assert type(x._uindex) is kind
            assert dict(x._uindex) == {u: i for i, u in enumerate(x.users)}
        if kind is NameIndex:  # the reader's users are the index's own tuple
            assert loaded.users is loaded._uindex.keys()


_BAD_USERS = {
    "empty": ["u1", ""],
    "repeated": ["u1", "u2", "u1"],
    "not a str": ["u1", 7],
    "None": [None, "u1"],
    "repeated after a non-str": ["u1", 3, "u1"],
    "empty after a repeat": ["u1", "u1", ""],
}


def _outcome(call):
    try:
        call()
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", None


@needs_index
@pytest.mark.parametrize("case", sorted(_BAD_USERS))
def test_bad_users_fail_alike_on_both_backends(case, monkeypatch, tmp_path):
    users = _BAD_USERS[case]
    auth = AuthCost({"u1": {"r1"}})
    doc = {"resources": ["r1"], "users": users, "auth": {"pairs": [["u1", "r1"]]}}
    plan = {"steps": ["r1"], "users": users, "auth": {"pairs": [["u1", "r1"]]}}
    path, plan_path = tmp_path / "inst.json", tmp_path / "plan.json"
    path.write_text(json.dumps(doc, indent=2))
    plan_path.write_text(json.dumps(plan))
    calls = {
        "Instance": lambda: Instance(("r1",), users, (), auth),
        "WspInstance": lambda: WspInstance(("r1",), users, (), auth),
        "load_instance": lambda: load_instance(str(path)),
        "load_wsp": lambda: load_wsp(str(plan_path)),
    }
    seen = {}
    for backend in ("python", "cython"):
        monkeypatch.setenv("APEP_KERNEL", backend)
        seen[backend] = {name: _outcome(call) for name, call in calls.items()}
    assert seen["cython"] == seen["python"]
    assert all(out[0] == "ValueError" for out in seen["python"].values()), seen


@needs_index
def test_name_index_takes_at_most_16_bytes_a_user():
    from vapep._kernels._core import name_index

    n = 100_000
    users = tuple(map("u{}".format, range(1, n + 1)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = name_index(users)
        size = tracemalloc.get_traced_memory()[0] - before
        reference = _name_index(users)
        dict_size = tracemalloc.get_traced_memory()[0] - before - size
    finally:
        tracemalloc.stop()
    assert len(index) == len(reference) == n
    assert size <= 16 * n, size
    assert dict_size > 4 * size  # the dict and its ints, for scale


def _read_index(names):
    """The users' index the compiled reader builds for these users, or None
    when it declines them."""
    from vapep._kernels._core import read_head
    from vapep.model import _scan_once

    doc = {"resources": ["r1"], "users": list(names), "auth": {"pairs": []}}
    head = read_head(json.dumps(doc).encode(), "resources", _scan_once, 30)
    return head and head[1]


@needs_index
def test_reader_built_index_answers_as_the_dict_does():
    from vapep._kernels._core import NameIndex

    rng = random.Random(29)
    valid = 0
    for _ in range(400):
        names = tuple(nm for nm in map(str, _names(rng)) if nm.isascii() and "\\" not in nm
                      and nm.isprintable())
        want, got = _name_index(names), _read_index(names)
        assert (got is None) == (not want and bool(names)), names
        if got is None:
            continue
        valid += bool(names)
        assert type(got) is NameIndex
        assert len(got) == len(want) and bool(got) == bool(want)
        assert [got.name(p) for p in range(len(names))] == list(names)
        for p in (-1, len(names), 2**70, "0"):
            with pytest.raises((IndexError, TypeError)):
                got.name(p)
        for key in _probes(rng, names) + [_Unequal(nm) for nm in names[:3]]:
            for query in (lambda ix: key in ix, lambda ix: ix[key], lambda ix: ix.get(key),
                          lambda ix: ix.get(key, -5)):
                assert _answer(lambda: query(got)) == _answer(lambda: query(want)), key
        for key in ([], {}, set(), ["u1"]):  # unhashable
            for query in (lambda ix: key in ix, lambda ix: ix[key], lambda ix: ix.get(key)):
                assert _answer(lambda: query(got)) == _answer(lambda: query(want))
        # the tuple is built on the first call and kept
        keys = got.keys()
        assert keys == names and got.keys() is keys and list(got) == list(want)
        assert dict(got) == want
    assert valid > 200


def _blocks() -> int:
    """The number of memory blocks tracemalloc sees allocated."""
    return sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))


@needs_index
def test_compiled_solve_builds_no_name_per_user(monkeypatch, tmp_path):
    from vapep import dump_instance, solve
    from vapep.generator import GeneratorConfig, generate

    n = 20_000
    path = tmp_path / "inst.json"
    dump_instance(generate(GeneratorConfig(n=n, k=3, seed=1)), str(path))
    monkeypatch.setenv("APEP_KERNEL", "cython")
    tracemalloc.start()
    try:
        before = _blocks()
        inst = load_instance(str(path))
        grown = _blocks() - before
    finally:
        tracemalloc.stop()
    assert grown < n // 100, grown  # one str per user would be n blocks
    result = solve(inst)
    result.to_json(inst)
    assert "users" not in vars(inst)
    monkeypatch.setenv("APEP_KERNEL", "python")
    users = load_instance(str(path)).users
    assert inst.users == users and inst.users is inst._uindex.keys()
