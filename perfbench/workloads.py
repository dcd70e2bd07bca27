"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Every workload is a sequence of rounds.  A round is a list of operations
generated from (workload seed, round index); an operation is one call a user
would make and wait on, with a check of its output.  ``replay_in_trace``
says whether generating a round again gives the same work.  The package's
public functions are looked up through their modules at call time, so the
traced run can wrap them from ``layers.py``.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bellscope import catalog as catalog_mod
from bellscope import cli, inequality


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    """One timed call.  ``check(result)`` raises CheckFailed on a wrong
    output and returns facts about a correct one (e.g. its error)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass(frozen=True)
class LayerCase:
    """An (inequality, d, alpha) case for the see-saw layer section."""

    label: str
    ineq: inequality.BellInequality
    d: int
    alpha: float


def _seeds(seed: int, index: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------------------
# threshold: the acceptance criterion 3 searches through the CLI

# (catalog name, d, bracket tol, reference alpha, accepted |error|).  The
# tolerances are those of acceptance criterion 3; references are table1.tsv
# at d=3 and the analytic 1/sqrt(2) for CHSH at d=2.  A round of both takes
# about 4 s on a 2-vCPU Xeon virtual machine, so a run holds several rounds
# with fresh seeds.
SEARCHES = (
    ("A2_CHSH", 2, 5e-5, 1 / math.sqrt(2), 5e-4),
    ("A3_I3322", 3, 1e-4, None, 1e-3),
)
SEARCH_RESTARTS = 200
# Criterion 3's third search, A27 d=3, takes 20-30 s there: one sample per run
# would leave its time to the seed and the host of that run.  Its see-saw is
# timed per iteration in the traced run's layer section instead.
LAYER_ONLY = (("A27", 3),)


class Threshold:
    name = "threshold"
    replay_in_trace = True

    def __init__(self, entries):
        by_name = {e.name: e for e in entries}
        self.searches = [(n, d, tol, ref if ref is not None else by_name[n].table_alpha_max, err)
                         for n, d, tol, ref, err in SEARCHES]
        self.entries = by_name

    def round(self, seed: int, index: int) -> list[Op]:
        ops = []
        for (name, d, tol, ref, err), s in zip(self.searches, _seeds(seed, index, len(self.searches))):
            argv = ["threshold", "--ineq", name, "--d", str(d), "--tol", str(tol),
                    "--restarts", str(SEARCH_RESTARTS), "--seed", str(s)]
            ops.append(Op(f"{name} d={d} seed={s}", functools.partial(_run_cli, argv),
                          functools.partial(_check_threshold, ref, err)))
        return ops

    def layer_cases(self) -> list[LayerCase]:
        return [LayerCase(f"{n} d={d}", self.entries[n].inequality, d, ref)
                for n, d, _, ref, _ in self.searches] + [
            LayerCase(f"{n} d={d}", self.entries[n].inequality, d, self.entries[n].table_alpha_max)
            for n, d in LAYER_ONLY]

    def properties(self) -> dict:
        return {"searches": [f"{n} d={d} tol={tol:g}" for n, d, tol, _, _ in self.searches],
                "restarts": SEARCH_RESTARTS,
                "layer_section_only": [f"{n} d={d}" for n, d in LAYER_ONLY]}


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_threshold(ref: float, accepted: float, result) -> dict:
    code, out = result
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    rows = [line for line in out.splitlines() if line and not line.startswith(("#", "alpha_upper"))]
    cells = rows[0].split("\t")
    upper, no_violation = float(cells[0]), cells[4] == "yes"
    err = abs(upper - ref)
    if no_violation or err >= accepted:
        raise CheckFailed(f"alpha_upper {upper} vs reference {ref} (accepted {accepted:g})")
    return {"alpha_err": err}


# ---------------------------------------------------------------------------
# exact: Collins-Gisin queries on seeded equivalents of the catalog entries

# The inclusion relation of the shipped catalog (a includes b, a != b), its
# transitive reduction, and the entries with an XOR-game form, as computed
# when this benchmark was defined.  Acceptance criterion 4 checks part of it.
REF_INCLUDES = frozenset({
    ("A2_CHSH", "A1"), ("A3_I3322", "A1"), ("A3_I3322", "A2_CHSH"),
    ("A5", "A1"), ("A5", "A2_CHSH"), ("A5", "A3_I3322"),
    ("A8", "A1"), ("A8", "A2_CHSH"), ("A8", "A3_I3322"),
    ("A27", "A1"), ("A27", "A2_CHSH"), ("A28", "A1"), ("A28", "A2_CHSH"),
    ("A56", "A1"), ("A56", "A2_CHSH"), ("I4422_1", "A1"), ("I4422_2", "A1"),
})
REF_ARCS = [
    ("A27", "A2_CHSH"), ("A28", "A2_CHSH"), ("A2_CHSH", "A1"), ("A3_I3322", "A2_CHSH"),
    ("A5", "A3_I3322"), ("A56", "A2_CHSH"), ("A8", "A3_I3322"), ("I4422_1", "A1"),
    ("I4422_2", "A1"),
]
REF_XOR = frozenset({"A2_CHSH", "A8"})


def random_transform(ineq, rng) -> inequality.Transform:
    swap = bool(rng.integers(2))
    m_a, m_b = (ineq.m_b, ineq.m_a) if swap else (ineq.m_a, ineq.m_b)
    return inequality.Transform(
        swap, tuple(rng.permutation(m_a).tolist()), tuple(rng.permutation(m_b).tolist()),
        tuple(bool(v) for v in rng.integers(2, size=m_a)),
        tuple(bool(v) for v in rng.integers(2, size=m_b)))


class Exact:
    """One fresh seeded equivalent per catalog entry per round.  canonical_form
    sits behind an lru_cache, so a variant seen before (small entries such as
    CHSH have few distinct variants) measures the cache; the share of such
    repeats is reported as a property of the run."""

    name = "exact"
    # Generating a round again would find its canonical forms in the cache,
    # so the traced run takes fresh rounds instead.
    replay_in_trace = False

    def __init__(self, entries):
        self.sources = [e.inequality for e in entries]
        self._canon: dict[str, inequality.BellInequality] = {}
        self._seen: set = set()
        self._repeats = 0

    def round(self, seed: int, index: int) -> list[Op]:
        rng = np.random.default_rng([seed, index])
        variants = [inequality.apply_transform(src, random_transform(src, rng)) for src in self.sources]
        for v in variants:
            self._repeats += v in self._seen
            self._seen.add(v)
        ops = []
        for src, v in zip(self.sources, variants):
            ops.append(Op(f"canonical_form {src.name}", functools.partial(_call, "canonical_form", v),
                          functools.partial(self._check_canonical, src)))
            ops.append(Op(f"are_equivalent {src.name}", functools.partial(_call, "are_equivalent", src, v),
                          functools.partial(_check_equivalent, src, v)))
            for other in self.sources:
                ops.append(Op(f"includes {src.name} {other.name}",
                              functools.partial(_call, "includes", v, other),
                              functools.partial(_check_includes, src, v, other)))
            ops.append(Op(f"classical_max {src.name}", functools.partial(_call, "classical_max", v),
                          functools.partial(_check_classical, v)))
            ops.append(Op(f"xor_game_form {src.name}", functools.partial(_call, "xor_game_form", v),
                          functools.partial(_check_xor, src, v)))
        ops.append(Op("inclusion_digraph", functools.partial(_call, "inclusion_digraph", self.sources),
                      _check_digraph))
        for name in catalog_mod.APPENDIX_NAMES:
            ops.append(Op(f"verify_appendix {name}",
                          functools.partial(_verify_appendix, name), _check_appendix))
        return ops

    def layer_cases(self) -> list[LayerCase]:
        return []

    def properties(self) -> dict:
        queried = self._repeats + len(self._seen)
        n = len(self.sources)
        return {"queries_per_round": n * (n + 4) + 1 + len(catalog_mod.APPENDIX_NAMES),
                "canonical_form_repeat_frac": self._repeats / queried if queried else 0.0}

    def _check_canonical(self, src, form) -> dict:
        if src.name not in self._canon:
            self._canon[src.name] = inequality.canonical_form(src)
        if form != self._canon[src.name]:
            raise CheckFailed(f"canonical form of a {src.name} variant differs from the source's")
        return {}


def _call(fn_name: str, *args):
    return getattr(inequality, fn_name)(*args)


def _verify_appendix(name):
    return catalog_mod.verify_appendix(name)


def _check_equivalent(src, v, result) -> dict:
    flag, witness = result
    if not flag or inequality.apply_transform(src, witness) != v:
        raise CheckFailed(f"{src.name}: equivalence not found or witness does not map source onto variant")
    return {}


def _check_includes(src, v, other, result) -> dict:
    flag, witness = result
    expected = src.name == other.name or (src.name, other.name) in REF_INCLUDES
    if flag != expected:
        raise CheckFailed(f"includes({src.name} variant, {other.name}) = {flag}, expected {expected}")
    if flag:
        x = inequality.apply_transform(v, witness.transform)
        ka, kb = witness.kept_a, witness.kept_b
        block = inequality.BellInequality(x.marg_a[:ka], x.marg_b[:kb],
                                          tuple(row[:kb] for row in x.joint[:ka]), x.bound)
        if block != other:
            raise CheckFailed(f"inclusion witness for {src.name} -> {other.name} does not restrict correctly")
    return {}


def _check_classical(v, value) -> dict:
    if value != v.bound:
        raise CheckFailed(f"{v.name}: classical_max {value} != bound {v.bound}")
    return {}


def _check_xor(src, v, c) -> dict:
    if (c is not None) != (src.name in REF_XOR):
        raise CheckFailed(f"{src.name}: XOR-game form {'found' if c is not None else 'missing'}")
    if c is not None:
        ok = (all(sum(c[i]) == v.marg_a[i] for i in range(v.m_a))
              and all(sum(c[i][j] for i in range(v.m_a)) == v.marg_b[j] for j in range(v.m_b))
              and all(-2 * c[i][j] == v.joint[i][j] for i in range(v.m_a) for j in range(v.m_b)))
        if not ok:
            raise CheckFailed(f"{src.name}: XOR-game form does not reproduce the coefficients")
    return {}


def _check_digraph(arcs) -> dict:
    if list(arcs) != REF_ARCS:
        raise CheckFailed(f"inclusion digraph arcs {arcs} differ from the reference")
    return {}


def _check_appendix(rep) -> dict:
    if rep.delta is None or rep.delta >= 1e-4:
        raise CheckFailed(f"{rep.name}: crossing {rep.crossing} is {rep.delta} from the table value")
    return {}


WORKLOADS = {w.name: w for w in (Threshold, Exact)}
