"""Spans and counters recorded around the public functions of vapep's modules.

`Tracer.install` replaces each traced function, wherever a vapep module
holds a reference to it, with a wrapper that records a span (name, start,
end, parent) or bumps a counter, and `uninstall` puts the originals back.
Spans stay in memory until `write` saves them at the end of a run.
Nothing inside the package is edited; the untraced run installs nothing.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute) for plain functions, patched in every
# vapep module that imported them by name.
FUNCTIONS = [
    ("model.load_instance", "vapep.model", "load_instance"),
    ("solver_profile.solve", "vapep.solver_profile", "solve"),
    ("solver_profile.best_relation_for_profile", "vapep.solver_profile",
     "best_relation_for_profile"),
    ("solver_brute.solve_exhaustive", "vapep.solver_brute", "solve_exhaustive"),
    ("matching.min_cost_assignment", "vapep.matching", "min_cost_assignment"),
    ("wsp.reduce_sodu_bodu", "vapep.wsp", "reduce_sodu_bodu"),
    ("wsp.reduce_bode_sodu", "vapep.wsp", "reduce_bode_sodu"),
    ("mipgen.build_naive", "vapep.mipgen", "build_naive"),
    ("mipgen.build_up", "vapep.mipgen", "build_up"),
    ("generator.generate", "vapep.generator", "generate"),
]


def set_partitions_at_most(K: int, n: int) -> int:
    """Set partitions of K steps into at most n blocks (Stirling numbers)."""
    row = [1] + [0] * K  # S(j, p) for the current j
    for j in range(1, K + 1):
        new = [0] * (K + 1)
        for p in range(1, j + 1):
            new[p] = p * row[p] + row[p - 1]
        row = new
    return sum(row[1:min(n, K) + 1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def spanned(self, name: str, fn, after=None):
        """Wrapper of fn that records a span; after(result, args) may count."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def counted(self, name: str, fn):
        """Wrapper of a hot method that only counts calls."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "vapep" and not name.startswith("vapep."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        """Wrap the traced functions of the imported vapep package."""
        from vapep import _kernels, matching, mipgen, wsp
        from vapep.matching import INF
        from vapep.model import Instance, SolveResult
        from vapep.wsp import WspInstance

        for span, module, attr in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            self._patch_everywhere(fn, self.spanned(span, fn))

        def count_cells(result, args):
            costs = args[0]
            self.add("matching.cost_cells", len(costs) * (len(costs[0]) if costs else 0))

        fn = matching.assignment_cost
        self._patch_everywhere(
            fn, self.spanned("matching.assignment_cost", fn, count_cells))

        def count_plan(result, args):
            self.add("wsp.partitions", set_partitions_at_most(args[0].k, args[0].n))

        fn = wsp.solve_wsp
        self._patch_everywhere(fn, self.spanned("wsp.solve_wsp", fn, count_plan))

        def count_bytes(result, args):
            self.add("mipgen.lp_bytes", len(result))

        fn = mipgen.export_lp
        self._patch_everywhere(fn, self.spanned("mipgen.export_lp", fn, count_bytes))

        build = SolveResult.__dict__["build"].__func__
        self._patch(SolveResult, "build",
                    classmethod(self.spanned("model.SolveResult.build", build)))
        self._patch(SolveResult, "to_json",
                    self.spanned("model.SolveResult.to_json", SolveResult.to_json))
        self._patch(Instance, "omega_mask",
                    self.counted("model.omega_mask_calls", Instance.omega_mask))
        self._patch(WspInstance, "cost",
                    self.counted("wsp.cost_calls", WspInstance.cost))

        kernel = _kernels.get_backend()
        self._patch(kernel, "profile_search",
                    self._profile_search(kernel.profile_search, INF))

        def count_leaves(result, args):
            self.add("kernels.relations", result[2])

        self._patch(kernel, "brute_search",
                    self.spanned("kernels.brute_search", kernel.brute_search,
                                 count_leaves))

    def _profile_search(self, fn, inf: int):
        """The kernel search, with its evaluate callback wrapped on the way in."""
        search = self.spanned("kernels.profile_search", fn,
                              lambda result, args: self.add("kernels.profiles", result[0]))

        @functools.wraps(fn)
        def wrapper(*args):
            args = list(args)
            evaluate = args[12]  # the callback argument of profile_search
            last = [inf]  # the incumbent the search starts from

            def traced_evaluate(pairs, cw):
                incumbent = self.call("solver_profile.evaluate", evaluate, pairs, cw)
                if incumbent < last[0]:
                    self.add("solver_profile.improvements")
                    last[0] = incumbent
                return incumbent

            args[12] = traced_evaluate
            return search(*args)
        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Total and self time per span name, and span counts per name."""
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] = total.get(name, 0.0) + d
            self_t[name] = self_t.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_t[pname] = self_t.get(pname, 0.0) - d
        return total, self_t, calls

    def child_calls(self, name: str, parent: str) -> int:
        """Spans called name whose direct parent is called parent."""
        return sum(
            1 for n, _, _, p in self.spans
            if n == name and p >= 0 and self.spans[p][0] == parent
        )

    def write(self, path: str) -> None:
        """Save the spans as JSON lines, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
