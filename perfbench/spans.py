"""Outside-in span recorder for the pbtfid modules.

``install()`` rebinds the public functions listed in ``WRAPPED`` to wrappers
that record one span per call: name, start, end and the span that was open
when the call began (its parent). A function is rebound in every pbtfid
module namespace that holds it, because ``pbtfid.fidelity`` and
``pbtfid.oracle`` bind the partitions functions by name and the package
``__init__`` re-exports everything. ``numpy.linalg.eigh`` / ``eigvalsh`` and
``scipy.sparse.linalg.eigsh`` are wrapped too; a call is attributed to the
pbtfid module that made it and ignored when no pbtfid module made it.

Spans live in flat arrays in memory. ``Recorder.finish(path)`` writes them
to an ``.npz`` file and returns the per-layer metrics of this process: call
counts, inclusive time (nested calls of the same layer counted once), self
time (span minus its direct children), cache counts taken from the original
functions' ``cache_info()``, and eigensolver counts, sizes and dtypes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np
import scipy.sparse.linalg

import pbtfid
from pbtfid import cli, fidelity, oracle, partitions

MODULES = (pbtfid, partitions, fidelity, oracle, cli)

# module -> {public function: the layer metric group its calls count in}
WRAPPED = {
    partitions: {
        "enumerate_partitions": "partitions.enumerate",
        "specht_dim": "partitions.exact_dim",
        "weyl_dim": "partitions.exact_dim",
        "add_box_successors": "partitions.successors",
        "log_specht_dim": "partitions.log_dim",
        "log_weyl_dim": "partitions.log_dim",
        "sn_character": "partitions.character",
    },
    fidelity: {
        "scan": "fidelity.scan",
        "fidelity_standard": "fidelity.standard",
        "fidelity_given_coefficients": "fidelity.given",
        "optimize_coefficients": "fidelity.optimize",
        "box_incidence": "fidelity.box_incidence",
        "block_spectrum": "fidelity.block_spectrum",
    },
    oracle: {
        "pbt_ensemble": "oracle.ensemble",
        "eta_ensemble": "oracle.ensemble",
        "young_projector": "oracle.projector",
        "pretty_good_measurement": "oracle.pgm",
        "certificate_X": "oracle.certificate",
        "certificate_Y": "oracle.certificate",
        "success_probability": "oracle.success_probability",
        "certify_optimality": "oracle.certify",
        "match_block_spectrum": "oracle.spectrum_match",
        "teleportation_fidelity_direct": "oracle.channel",
        "run_verification": "oracle.verification",
    },
    cli: {"main": "cli"},
}

# eigensolver calls count in the group of the pbtfid module that made them
EIG_GROUPS = {
    "pbtfid.fidelity": "fidelity.eigensolve",
    "pbtfid.oracle": "oracle.eig",
    "pbtfid.cli": "oracle.eig",  # spectrum --compare diagonalises an oracle operator
}
EIG_ROUTINES = (
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (scipy.sparse.linalg, "eigsh"),
)

# Computed floating-point operation counts per routine, times n^3: the
# textbook estimates for symmetric tridiagonal reduction with and without
# accumulating the eigenvectors (Golub & Van Loan, sec. 8.3), times four
# for complex Hermitian input. Labelled as computed, not measured.
FLOP_FACTORS = {
    ("eigvalsh", False): 4 / 3,
    ("eigh", False): 9.0,
    ("eigvalsh", True): 16 / 3,
    ("eigh", True): 36.0,
}
GROUPS = sorted({g for funcs in WRAPPED.values() for g in funcs.values()} | set(EIG_GROUPS.values()))


class Recorder:
    """Spans of one process, kept in flat arrays until ``finish``.

    ``cached`` maps the name of each ``lru_cache``'d partitions function to
    the original cached callable, so cache counts survive the rebinding.
    """

    def __init__(self, cached: dict):
        self.cached = cached
        self.names: list[str] = []
        self.group_of: list[int] = []  # index into GROUPS, per span name
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counters: Counter = Counter()

    def _id(self, name: str, group: str) -> int:
        self.names.append(name)
        self.group_of.append(GROUPS.index(group))
        return len(self.names) - 1

    def _enter(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, group: str, fn):
        nid = self._id(name, group)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def wrap_eig(self, routine: str, fn):
        ids = {group: self._id(f"{group}.{routine}", group) for group in set(EIG_GROUPS.values())}
        enter, leave, counters = self._enter, self._exit, self.counters

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            group = EIG_GROUPS.get(sys._getframe(1).f_globals.get("__name__"))
            if group is None:
                return fn(a, *args, **kwargs)
            n = int(a.shape[-1])
            is_complex = bool(np.issubdtype(a.dtype, np.complexfloating))
            key = f"{group}.{routine}"
            counters[f"{key}_calls"] += 1
            counters[f"{group}.complex_calls"] += is_complex
            counters[f"{group}.max_dim"] = max(counters[f"{group}.max_dim"], n)
            if (routine, is_complex) in FLOP_FACTORS:
                counters[f"{group}.flops_computed"] += round(
                    FLOP_FACTORS[routine, is_complex] * n**3
                )
            idx = enter(ids[group])
            try:
                return fn(a, *args, **kwargs)
            finally:
                leave(idx)

        return traced

    def finish(self, path: str) -> dict[str, float]:
        """Write the spans to ``path`` (.npz) and return this process's metrics."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        np.savez(
            path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end
        )
        return self._metrics(name_id, parent, end - start)

    def _metrics(self, name_id, parent, dur) -> dict[str, float]:
        gid = np.array(self.group_of, dtype=np.int64)[name_id]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        # a span nested inside a span of its own group adds no inclusive time
        nested = np.zeros(dur.size, dtype=bool)
        ancestor = parent.copy()
        while (live := ancestor >= 0).any():
            nested[live] |= gid[ancestor[live]] == gid[live]
            ancestor[live] = parent[ancestor[live]]
        out: dict[str, float] = {}
        for g, group in enumerate(GROUPS):
            mine = gid == g
            out[f"{group}.calls"] = int(mine.sum())
            out[f"{group}.s"] = float(dur[mine & ~nested].sum())
            out[f"{group}.self_s"] = float(self_time[mine].sum())
        c = self.counters
        out.update(c)
        for group in set(EIG_GROUPS.values()):
            out[f"{group}.dense_calls"] = c[f"{group}.eigh_calls"] + c[f"{group}.eigvalsh_calls"]
            out[f"{group}.iterative_calls"] = c[f"{group}.eigsh_calls"]
            for key in ("complex_calls", "max_dim", "flops_computed"):
                out[f"{group}.{key}"] = c[f"{group}.{key}"]
        out["partitions.enumerate.rows"] = c["partitions.enumerate.rows"]
        out["partitions.cache_entries"] = sum(
            fn.cache_info().currsize for fn in self.cached.values()
        )
        calls = dict(zip(self.names, np.bincount(name_id, minlength=len(self.names)).tolist()))
        out["partitions.enumerate.misses"] = self._misses(calls, "enumerate_partitions")
        out["partitions.exact_dim.misses"] = self._misses(calls, "specht_dim", "weyl_dim")
        out["cli.invocations"] = out["cli.calls"]
        return out

    def _misses(self, calls: dict[str, int], *names: str) -> int:
        """Cache misses of the named partitions functions; a function without
        a cache computes on every call."""
        return sum(
            self.cached[n].cache_info().misses if n in self.cached else calls.get(f"partitions.{n}", 0)
            for n in names
        )


def install() -> Recorder:
    """Wrap the functions in ``WRAPPED`` and the eigensolvers; return the recorder."""
    cached = {
        name: obj for name, obj in vars(partitions).items() if hasattr(obj, "cache_info")
    }
    rec = Recorder(cached)
    wrapper_of: dict[int, object] = {}
    for mod, functions in WRAPPED.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, group in functions.items():
            fn = getattr(mod, name, None)
            if fn is None:  # a later version may remove a function
                continue
            inner = _count_rows(fn, rec.counters) if name == "enumerate_partitions" else fn
            wrapper_of[id(fn)] = rec.wrap(f"{layer}.{name}", group, inner)  # keeps fn alive
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapper_of:
                setattr(mod, attr, wrapper_of[id(value)])
    for mod, routine in EIG_ROUTINES:
        setattr(mod, routine, rec.wrap_eig(routine, getattr(mod, routine)))
    return rec


def _count_rows(fn, counters: Counter):
    """Count the partitions ``fn`` produces on cache misses, or on every call
    when it has no cache."""
    info = getattr(fn, "cache_info", None)

    def counted(*args, **kwargs):
        before = info().misses if info else 0
        result = fn(*args, **kwargs)
        if info is None or info().misses != before:
            counters["partitions.enumerate.rows"] += len(result)
        return result

    return counted
