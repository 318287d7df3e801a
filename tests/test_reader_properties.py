"""The compiled document reader against json.loads, on generated documents.

Property-based twin of `tests/test_reader.py`, whose helpers it uses:
instance and plan documents drawn by hypothesis, written with random
layouts and then mutated byte by byte, must load to the same fields, or
fail with the same exception type and message, through the compiled reader
(`_core.read_head`) and through the json route (`json.loads` and
`_doc_head`).  The examples are derandomized and bounded, so every run
checks the same documents.
"""
import json

import pytest

from vapep.model import _scan_once

from test_reader import LOADERS, _load, needs_reader

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# name characters: plain ASCII in most documents; in the rest, some that
# JSON escapes or that the reader declines (non-ASCII, control characters)
_PLAIN = "uvrs0123456789_-"
_CHARS = st.sampled_from([_PLAIN] * 3 + [_PLAIN * 8 + "é\"\\\t\r/ü"])
_ODD = st.sampled_from(["", 7, None, True, 1.5, ["u1"], {"a": 1}])
_BYTES = [bytes([b]) for b in b'[]{},:" \\\r\n\t0ae-.'] + [b"\xff", b"\xc3", b"null", b"[["]


@st.composite
def _documents(draw, key):
    """A document with its names under key: mostly valid, with the faults a
    loader reports drawn now and then."""
    name = st.text(draw(_CHARS), min_size=1, max_size=3)
    names = draw(st.lists(name, min_size=1, max_size=5, unique=True))
    users = draw(st.lists(name, min_size=1, max_size=8, unique=True))
    for seq in (names, users):
        if draw(st.integers(0, 9)) == 0:  # a duplicate or a name that is not one
            seq.insert(draw(st.integers(0, len(seq))), draw(st.sampled_from(seq) | _ODD))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(users) - 1),
                                    st.integers(0, len(names) - 1)), max_size=20))
    order = draw(st.sampled_from(["user", "name", "drawn"]))
    if order != "drawn":
        pairs.sort(key=lambda p: p if order == "user" else p[::-1])
    pairs = [[users[u], names[r]] for u, r in pairs]
    if pairs and draw(st.integers(0, 5)) == 0:  # a pair a loader rejects
        bad = draw(st.sampled_from([["ghost", names[0]], [users[0], "ghost"], [users[0]],
                                    [users[0], names[0], names[0]], "u1", [[users[0]], names[0]],
                                    [users[0], [names[0]]], ["ghost", [names[0]]]]))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    pp = draw(st.sampled_from([0, 1, 2, 3] * 3 + [True, 1.5, 10**40, -1, None, "1"]))
    if key == "resources" and draw(st.booleans()):
        pp = [[draw(st.integers(0, 3)) for _ in names] for _ in users]
    doc = {key: names, "users": users, "auth": {"pairs": pairs, "pair_penalty": pp}}
    if key == "resources" and len(names) >= 2 and draw(st.booleans()):
        doc["constraints"] = [{"type": "sod_u", "scope": names[:2], "slope": 2}]
        doc["meta"] = {"seed": draw(st.integers(0, 9)), "note": draw(name)}
    return doc


@st.composite
def _texts(draw, key):
    """The bytes of a drawn document, laid out as drawn, after up to two
    byte-level edits."""
    doc = draw(_documents(key))
    layout = draw(st.sampled_from([{}, {"indent": 2}, {"separators": (",", ":")},
                                   {"indent": "\t"}, {"ensure_ascii": False}]))
    data = bytearray(json.dumps(doc, **layout).encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        piece = draw(st.sampled_from(_BYTES))
        if edit == "delete":
            del data[at:at + 1]
        elif edit == "insert":
            data[at:at] = piece
        else:
            data[at:at + 1] = piece
    return bytes(data)


@needs_reader
@pytest.mark.parametrize("key", sorted(LOADERS))
def test_reader_loads_drawn_documents_as_json_loads_does(key, tmp_path):
    from vapep._kernels import _core

    path = tmp_path / "doc.json"
    seen = set()

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(_texts(key))
    def check(data):
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as m:
            want = _load(path, key, "python", m)
            assert _load(path, key, "cython", m) == want
        accepted = _core.read_head(data, key, _scan_once, LOADERS[key][1]) is not None
        seen.add((accepted, want[0] == "ok"))

    check()
    # the drawn documents take the reader's accept and decline paths, and
    # declined documents that load as well as ones that fail
    assert {(True, True), (False, True), (False, False)} <= seen
