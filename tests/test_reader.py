"""The compiled document reader against json.loads, file by file.

`load_instance` and `load_wsp` read a document with the compiled reader
(`_core.read_head`) when the compiled backend is selected; json.loads and
`_doc_head` read it under APEP_KERNEL=python and whatever the reader
declines.  Each document here is loaded both ways, which must give the same
instance fields or the same exception type and message.
"""
import json
import random

import pytest

import vapep
from vapep import dump_instance, dump_wsp, load_instance, load_wsp
from vapep.constraints import MAX_PENALTY
from vapep.model import MAX_RESOURCES, _scan_once
from vapep.wsp import MAX_STEPS

import helpers
from test_model import SCALE_CASES, _fault_docs, _random_doc, _scale_doc

needs_reader = pytest.mark.skipif(
    "cython" not in vapep.available_backends(), reason="the compiled kernel is not built"
)

LOADERS = {"resources": (load_instance, MAX_RESOURCES), "steps": (load_wsp, MAX_STEPS)}


def _fields(inst):
    """Every attribute of a loaded instance, and the order of its dicts.  The
    users' index, a compiled `NameIndex` on the compiled backend, is
    compared as the dict it maps, and the users as read, since the reader's
    instance builds them from its index on the first read."""
    fields = dict(vars(inst), users=inst.users)
    uindex = fields["_uindex"] = dict(inst._uindex)
    fields["order"] = (list(uindex.items()), list(inst.auth.base.items()),
                       repr(getattr(inst, "meta", None)))
    return fields


def _load(path, key, backend, monkeypatch):
    monkeypatch.setenv("APEP_KERNEL", backend)
    try:
        return "ok", _fields(LOADERS[key][0](str(path)))
    except (ValueError, TypeError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def _as_plan(doc):
    """doc with its resources as plan steps, and without the fields plan
    documents do not take."""
    return {("steps" if f == "resources" else f): v for f, v in doc.items()
            if f not in ("constraints", "meta")}


def _base_doc():
    """Users holding several resources, one holding none, pairs out of user
    order, constraints and meta."""
    users = [f"u{j}" for j in range(1, 8)]
    resources = [f"r{i}" for i in range(1, 5)]
    pairs = [["u1", "r1"], ["u1", "r3"], ["u2", "r2"], ["u4", "r1"], ["u3", "r4"],
             ["u3", "r1"], ["u5", "r2"], ["u5", "r3"], ["u5", "r4"], ["u7", "r2"],
             ["u1", "r1"]]
    return {
        "resources": resources,
        "users": users,
        "auth": {"pairs": pairs, "pair_penalty": 2},
        "constraints": [{"type": "sod_u", "scope": ["r1", "r2"], "slope": 3},
                        {"type": "card_lb", "scope": ["r3"], "t": 2}],
        "meta": {"note": "tab\there, quote \" and é", "seed": 5, "x": [1.5, None]},
    }


def _mutations(doc, key):
    """name -> text (a str, or bytes where a str cannot hold it) of
    documents made from doc, whose names sit under key; some valid, some
    not."""
    dumps = json.dumps
    users, names = doc["users"], doc[key]
    pairs = doc["auth"]["pairs"]

    def edit(**change):
        return dumps(dict(doc, **change), indent=2)

    def auth(**change):
        return edit(auth=dict(doc["auth"], **change))

    text = dumps(doc, indent=2)
    nested = 10**5
    return {
        "indented": text,
        "compact": dumps(doc, separators=(",", ":")),
        "CRLF and tabs": dumps(doc, indent="\t").replace("\n", "\r\n"),
        "space inside pairs": dumps(doc).replace('", "', '" ,\t "').replace('["', '[ "'),
        "trailing whitespace": text + " \r\n\t",
        "lone CR between tokens": text.replace("\n", "\r"),
        "CR inside a name": text.replace('"u4"', '"u\r4"'),
        "CR inside a meta string": text.replace("tab\\there", "tab\rhere"),
        "invalid UTF-8 in a name": text.encode().replace(b'"u5"', b'"u\xff5"'),
        "invalid UTF-8 in meta": text.encode().replace(b"tab", b"t\xc3b"),
        "compact, scalars before }": dumps(dict(doc, meta={"a": [1, {"b": 2}], "seed": 5}),
                                           separators=(",", ":")),
        "keys reversed": dumps({f: doc[f] for f in reversed(list(doc))}),
        "constraints first": dumps({"constraints": doc.get("constraints", []), **doc}),
        "auth keys reversed": edit(auth={"pair_penalty": 2, "pairs": pairs}),
        "escaped users": text.replace('"u1"', '"\\u00751"'),
        "escaped pair user": text.replace('[\n        "u2"', '[\n        "\\u00752"'),
        "escaped name": text.replace(f'"{names[0]}"', '"\\u0072' + names[0][1:] + '"'),
        "non-ASCII user": dumps(doc, indent=2, ensure_ascii=False).replace('"u3"', '"ü3"'),
        "non-ASCII meta": edit(meta={"who": "é"}).replace("\\u00e9", "é"),
        "control character": text.replace('"u4"', '"u\t4"'),
        "duplicate top-level key": text[:-1] + ', "users": ' + dumps(users[::-1]) + "}",
        "duplicate names key": text[:-1] + f', "{key}": ' + dumps(names) + "}",
        "duplicate auth": text[:-1] + ', "auth": {"pairs": []}}',
        "duplicate auth key": text.replace('"auth": {', '"auth": {"pair_penalty": 3, ', 1),
        "duplicate pairs key": text.replace('"auth": {', '"auth": {"pairs": [], ', 1),
        "trailing data": text + " x",
        "trailing document": text + " {}",
        "truncated": text[: len(text) // 2],
        "truncated in the pairs": text[: text.index('"pair_penalty"') - 20],
        "UTF-8 BOM": "\ufeff" + text,
        "not an object": dumps([doc]),
        "empty text": "",
        "empty user": edit(users=users + [""]),
        "empty name": edit(**{key: [""] + names}),
        "duplicate user": edit(users=users + [users[2]]),
        "duplicate name": edit(**{key: names + [names[1]]}),
        "no users": edit(users=[]),
        "no users and no pairs": edit(users=[], auth={"pairs": []}),
        "no names": edit(**{key: []}),
        "user not a string": edit(users=users + [7]),
        "users not a list": edit(users="u1"),
        "names not a list": edit(**{key: {"r1": 1}}),
        "31 names": edit(**{key: names + [f"x{i}" for i in range(27)]}),
        "64 names": edit(**{key: names + [f"x{i}" for i in range(60)]}),
        "65 names": edit(**{key: names + [f"x{i}" for i in range(61)]}),
        "three-item pair": auth(pairs=pairs + [[users[0], names[0], names[0]]]),
        "one-item pair": auth(pairs=[[users[0]]] + pairs),
        "pair not a list": auth(pairs=pairs + ["u1"]),
        "pair holding a number": auth(pairs=pairs + [[users[0], 1]]),
        "pair holding a list": auth(pairs=pairs + [[[users[0]], names[0]]]),
        "unknown pair user": auth(pairs=pairs + [["ghost", names[0]]]),
        "unknown pair name": auth(pairs=[[users[0], "ghost"]] + pairs),
        "pairs in user order": auth(pairs=sorted(pairs, key=lambda p: users.index(p[0]))),
        "pairs reversed": auth(pairs=pairs[::-1]),
        "one pair per user in order": auth(pairs=[[u, names[j % len(names)]]
                                                  for j, u in enumerate(users)]),
        "no pairs": auth(pairs=[]),
        "no pairs key": edit(auth={"pair_penalty": 2}),
        "no auth": dumps({f: v for f, v in doc.items() if f != "auth"}),
        "auth before users": dumps({"auth": doc["auth"], **doc}),
        "auth before the names": dumps({"users": users, "auth": doc["auth"], **doc}),
        "auth not an object": edit(auth=[pairs]),
        "pairs not a list": auth(pairs={"u1": "r1"}),
        "unknown field": edit(extra=1),
        "unknown auth field": auth(weights=[1, 2]),
        "penalty matrix": auth(pair_penalty=[[(i + j) % 4 for i in range(len(names))]
                                             for j in range(len(users))]),
        "bad penalty matrix": auth(pair_penalty=[[1]]),
        "penalty object": auth(pair_penalty={"u1": 1}),
        "float penalty": auth(pair_penalty=1.0),
        "NaN penalty": auth(pair_penalty=float("nan")),
        "huge penalty": auth(pair_penalty=10**40),
        "malformed constraints": text.replace('"constraints": [', '"constraints": [,', 1),
        "constraints nested too deep": text[:-1] + ', "x": ' + "[" * nested + "]" * nested + "}",
    }


def _cases():
    """(name, names key, text) of the corpus."""
    base = _base_doc()
    for key, doc in (("resources", base), ("steps", _as_plan(base))):
        for name, text in _mutations(doc, key).items():
            yield name, key, text
    rng = random.Random(31)  # the documents of the random-document loader test
    for i in range(400):
        doc = _random_doc(rng)
        text = json.dumps(doc, indent=2) if i % 2 else json.dumps(doc)
        yield f"random {i}", "resources", text
        if i % 4 == 0:
            yield f"random plan {i}", "steps", json.dumps(_as_plan(doc))
    for i, (faults, doc) in enumerate(_fault_docs()):
        yield f"fault {i}: {faults}", "resources", json.dumps(doc)
    for n, k in SCALE_CASES:
        doc = _scale_doc(n, k)
        yield f"at scale {n} {k}", "resources", json.dumps(doc, indent=2)
        if k == 3:
            yield f"at scale {n} {k} plan", "steps", json.dumps(_as_plan(doc))


@needs_reader
def test_reader_loads_files_as_json_loads_does(tmp_path, monkeypatch):
    from vapep._kernels import _core

    path = tmp_path / "doc.json"
    read = {}
    for name, key, text in _cases():
        data = text if isinstance(text, bytes) else text.encode()
        path.write_bytes(data)
        want = _load(path, key, "python", monkeypatch)
        got = _load(path, key, "cython", monkeypatch)
        assert got == want, name
        if data.isascii():
            accepted = _core.read_head(data, key, _scan_once, LOADERS[key][1]) is not None
            read[name, key] = (accepted, want[0] == "ok")
    # the corpus takes the reader's accept and decline paths, and declined
    # documents that load as well as ones that fail
    assert {(True, True), (False, True), (False, False)} <= set(read.values())
    assert read["indented", "steps"] == read["64 names", "steps"] == (True, True)
    assert read["65 names", "steps"] == (False, True)
    assert read["at scale 20000 3", "resources"] == (True, True)
    for name in ("CRLF and tabs", "lone CR between tokens", "compact, scalars before }"):
        assert read[name, "resources"] == (True, True), name
    assert read["CR inside a name", "resources"] == (False, False)
    assert read["CR inside a meta string", "resources"] == (False, False)


def _invalid_utf8_error(text):
    try:
        text.decode("utf-8")
    except UnicodeDecodeError as exc:
        return "UnicodeDecodeError", str(exc)


@needs_reader
def test_text_faults_fail_as_a_text_mode_read_does(tmp_path, monkeypatch):
    # a file read as bytes fails on both backends where a text-mode read
    # fails, with the same error
    path = tmp_path / "doc.json"
    mutations = _mutations(_base_doc(), "resources")
    for name in ("invalid UTF-8 in a name", "invalid UTF-8 in meta"):
        path.write_bytes(mutations[name])
        want = _invalid_utf8_error(mutations[name])
        for backend in ("python", "cython"):
            assert _load(path, "resources", backend, monkeypatch) == want, (name, backend)
    for name in ("UTF-8 BOM", "CR inside a name"):
        path.write_bytes(mutations[name].encode())
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            json.loads(text)
        except ValueError as exc:
            want = type(exc).__name__, str(exc)
        for backend in ("python", "cython"):
            assert _load(path, "resources", backend, monkeypatch) == want, (name, backend)


_BAD_MATRICES = {  # name -> an edit that spoils a valid matrix
    "bool": lambda rows: rows[1].__setitem__(2, True),
    "negative": lambda rows: rows[0].__setitem__(0, -1),
    "above the cap": lambda rows: rows[-1].__setitem__(-1, MAX_PENALTY + 1),
    "float": lambda rows: rows[3].__setitem__(1, 1.0),
    "string": lambda rows: rows[2].__setitem__(0, "1"),
    "null": lambda rows: rows[4].__setitem__(3, None),
    "ragged": lambda rows: rows[5].pop(),
    "a row too many": lambda rows: rows.append(list(rows[0])),
    "a row short": lambda rows: rows.pop(),
    "a row not a list": lambda rows: rows.__setitem__(1, 3),
}


@needs_reader
@pytest.mark.parametrize("case", sorted(_BAD_MATRICES))
def test_bad_penalty_matrices_fail_alike_on_both_backends(case, tmp_path, monkeypatch):
    doc = _base_doc()
    rows = [[(i + j) % 4 for i in range(len(doc["resources"]))] for j in range(len(doc["users"]))]
    _BAD_MATRICES[case](rows)
    doc["auth"]["pair_penalty"] = rows
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    want = _load(path, "resources", "python", monkeypatch)
    assert want[0] == "ValueError", want
    assert _load(path, "resources", "cython", monkeypatch) == want


@needs_reader
def test_penalty_matrix_dict_is_built_on_first_read(tmp_path, monkeypatch):
    doc = _base_doc()
    users, resources = doc["users"], doc["resources"]
    rows = [[(i + j) % 4 for i in range(len(resources))] for j in range(len(users))]
    doc["auth"]["pair_penalty"] = rows
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    want = {(u, r): rows[j][i] for j, u in enumerate(users) for i, r in enumerate(resources)}
    for backend in ("python", "cython"):
        monkeypatch.setenv("APEP_KERNEL", backend)
        inst = load_instance(str(path))
        assert "pair_penalty" not in vars(inst.auth)
        assert inst._pen == rows
        assert inst.auth.pair_penalty == want and list(inst.auth.pair_penalty) == list(want)
        assert "pair_penalty" in vars(inst.auth)


def _benchmark_doc(rng, k, n):
    """A document shaped like perfbench's own plan-solver instances: users
    holding one to k // 3 resources, pairs in user order."""
    resources = [f"r{i + 1}" for i in range(k)]
    users = [f"u{j + 1}" for j in range(n)]
    pairs = [[u, resources[i]] for u in users
             for i in sorted(rng.sample(range(k), rng.randint(1, max(1, k // 3))))]
    cons = [{"type": "sod_u", "scope": ["r1", "r2"], "slope": 2},
            {"type": "bod_e", "scope": ["r2", "r3"], "ell": 3}]
    return {"resources": resources, "users": users,
            "auth": {"pairs": pairs, "pair_penalty": 2}, "constraints": cons}


def _no_fallback(*args, **kwargs):
    raise AssertionError("the document went to json.loads")


@needs_reader
def test_reader_accepts_what_vapep_and_the_benchmark_write(tmp_path, monkeypatch):
    # a change that makes the reader decline these loses its speed on every
    # file vapep writes; this test fails instead
    from vapep.generator import GeneratorConfig, generate

    rng = random.Random(41)
    files = [("resources", dump_instance(generate(GeneratorConfig(n=3000, k=4, seed=2))))]
    files += [("resources", json.dumps(_benchmark_doc(rng, k, 24), indent=2) + "\n")
              for k in (3, 7, 10)]
    for _ in range(30):
        inst = helpers.rand_instance(rng, n_max=8, k_max=5, linear_only=True)
        files.append(("resources", dump_instance(inst)))
        files.append(("steps", dump_wsp(helpers.rand_wsp(rng, k_max=6, n_max=8,
                                                         linear_only=True))))
    path = tmp_path / "doc.json"
    for key, text in files:
        path.write_text(text, encoding="utf-8")
        want = _load(path, key, "python", monkeypatch)
        assert want[0] == "ok"
        with monkeypatch.context() as m:
            m.setattr(json, "loads", _no_fallback)
            assert _load(path, key, "cython", monkeypatch) == want
