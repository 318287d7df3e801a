"""Kernel selection.

The four hot loops (the profile search, the brute enumeration, the plan
walk and the generator's mask sampler) run compiled, in the hand-written C
extension ``_core``, when the extension built; otherwise the pure-Python
twins in ``_ref`` take over.  The compiled backend is named "cython" after
the tool that once generated it: the name is kept as the backend label in
solver output, which pinned outputs compare byte for byte.
APEP_KERNEL=python|cython forces a choice, and it is the only one: every
routine below follows it, so the label a solver writes names the backend
that read the file, searched and wrote.  Both implementations search and
draw in the same order and produce identical results.  Both read every
cost-table entry and callback value of the three searches clamped to
``_ref.INF`` = 2^62, and each search keeps one incumbent, starting there, so
the kernels alone decide how weights at or past it are read.

Two compiled routines have no twin in ``_ref``.  The document reader
``_core.read_head`` is what `model` uses to load instance and plan
documents from their bytes.  Its reference is ``json.loads`` followed by
`model._doc_head`, which runs on every document the reader declines.  It
declines rather than raises on malformed or non-ASCII input; only
MemoryError propagates.  The user-name index ``_core.name_index``, a
compact read-only name -> position mapping, is what instances keep as
their users' index; the reader builds one that holds the names as a byte
table.  Its reference is the dict of `model._name_index`, which instances
keep under the pure-Python backend.
"""
import os

from . import _ref

_BACKENDS = {"python": _ref}

try:
    from . import _core  # type: ignore[attr-defined]

    _BACKENDS["cython"] = _core
except ImportError:
    pass


def default_backend_name() -> str:
    env = os.environ.get("APEP_KERNEL")
    if env:
        return env
    return "cython" if "cython" in _BACKENDS else "python"


def get_backend(name=None):
    name = name or default_backend_name()
    if name not in _BACKENDS:
        raise ValueError(
            f"kernel backend {name!r} unavailable; built: {sorted(_BACKENDS)}"
        )
    return _BACKENDS[name]


def available_backends() -> list:
    return sorted(_BACKENDS)


def selected_backend():
    """The selected backend module (`default_backend_name`), or None when
    APEP_KERNEL names no built backend."""
    return _BACKENDS.get(default_backend_name())
