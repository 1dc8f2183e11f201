"""Span tracing of the solver layers, applied from outside the package.

``instrument(tracer)`` replaces, for the duration of a ``with`` block, the
public functions each layer calls by timing wrappers, at the name the
calling module binds them (``krylov.norm``, ``pgd.enrich_rank_one``,
``TruncationOperator.apply``, ``MeanPreconditioner.solve``, ...).  Nothing
under ``src/`` is edited; the originals are restored on exit.

Each wrapper records a span (name, start, end, parent span).  A layer's
self time is the duration of its spans minus the part of each interval
that child spans cover.  The ``lowrank`` wrappers also add flop and byte
counts computed from the argument shapes ("computed": they follow the
textbook cost of each dense kernel, not a hardware counter):

- ``norm``: Householder QR (R only) of both factors, 2 b^2 (a - b/3) for an
  a x b or b x a factor with a >= b, plus the small R_Y R_Z^T product;
- ``inner``: 2 r_u r_v (n_x + n_xi);
- ``apply``: 2 nnz r for every spatial and stochastic matrix of the operator;
- ``truncate``: for projection 2 r k (n_x + n_xi) plus the 2 n_xi k^2
  orthonormality check; for SVD two thin QRs with Q formed (3x the R-only
  cost), the R_Y R_Z^T product, a full SVD (4 m^2 n + 8 m n^2 + 9 n^3) and
  the two reconstructions.

Bytes are the float64 operands read and results written (CSR data and
indices for sparse matrices).
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict

F8 = 8


class Tracer:
    """Spans of one traced pipeline call, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        # krylov.basis_bytes bookkeeping: basis vectors are the outputs of
        # krylov.scale fed to a matvec; any other matvec input is the
        # residual matvec that opens a cycle
        self._basis_refs: dict[int, weakref.ref] = {}
        self._cycle_bytes = 0
        self.peak_basis_bytes = 0

    def wrap(self, name, fn, meter=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        counters = self.counters[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if meter is not None:
                meter(counters, out, *args, **kwargs)
            return out

        return traced

    # ---- krylov.basis_bytes ----------------------------------------------
    def note_scaled(self, out):
        self._basis_refs[id(out)] = weakref.ref(out)

    def note_matvec(self, u, out):
        n_x, n_xi = u.shape
        ref = self._basis_refs.get(id(u))
        if ref is not None and ref() is u:
            self._cycle_bytes += F8 * (n_x + n_xi) * (u.rank + out.rank)
        else:
            self.close_cycle()

    def close_cycle(self):
        self.peak_basis_bytes = max(self.peak_basis_bytes, self._cycle_bytes)
        self._cycle_bytes = 0
        self._basis_refs.clear()

    # ---- analysis --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the union of child intervals."""
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append((self.starts[i], self.ends[i]))
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(i, ())):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[name] += (self.ends[i] - self.starts[i]) - covered
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return out

    def top_level_coverage(self, root: int = 0) -> float:
        """Share of the root span's duration covered by its direct children."""
        covered = sum(
            self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p == root
        )
        return covered / (self.ends[root] - self.starts[root])

    def records(self):
        for i, name in enumerate(self.names):
            yield {"id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                   "parent": self.parents[i]}


def span_cost(n: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    t1 = clock()
    for _ in range(n):
        traced()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


# ---- computed flop and byte counts -------------------------------------


def _qr_r_flops(rows: int, cols: int) -> int:
    a, b = max(rows, cols), min(rows, cols)
    return 2 * b * b * a - (2 * b**3) // 3


def _svd_flops(rows: int, cols: int) -> int:
    m, n = max(rows, cols), min(rows, cols)
    return 4 * m * m * n + 8 * m * n * n + 9 * n**3


def _sparse_bytes(mat) -> int:
    return (F8 + 4) * mat.nnz


def _meter_norm(c, out, u):
    n_x, n_xi = u.shape
    r = u.rank
    c["bytes"] += F8 * (n_x + n_xi) * r
    if r == 1:
        c["flops"] += 2 * (n_x + n_xi)
    elif r > 1:
        c["flops"] += (
            _qr_r_flops(n_x, r) + _qr_r_flops(n_xi, r) + 2 * min(n_x, r) * min(n_xi, r) * r
        )


def _meter_inner(c, out, u, v):
    n_x, n_xi = u.shape
    if u.rank and v.rank:
        c["flops"] += 2 * u.rank * v.rank * (n_x + n_xi)
        c["bytes"] += F8 * (n_x + n_xi) * (u.rank + v.rank)


def _meter_apply(c, out, A, u):
    r = u.rank
    n_x, n_xi = u.shape
    if r:
        for G, K in A.terms:
            c["flops"] += 2 * (K.nnz + G.nnz) * r
            c["bytes"] += _sparse_bytes(K) + _sparse_bytes(G)
        c["bytes"] += F8 * (n_x + n_xi) * (r + out.rank)


def _meter_truncate_svd(c, u, out):
    n_x, n_xi = u.shape
    r, keep = u.rank, out.rank
    if r == 0:
        return
    by, bz = min(n_x, r), min(n_xi, r)
    c["flops"] += (
        3 * (_qr_r_flops(n_x, r) + _qr_r_flops(n_xi, r))
        + 2 * by * bz * r
        + _svd_flops(by, bz)
        + 2 * (n_x * by + n_xi * bz) * keep
    )
    c["bytes"] += F8 * ((n_x + n_xi) * (r + keep) + n_x * by + n_xi * bz)


def _meter_truncate_projection(c, u, out, basis):
    n_x, n_xi = u.shape
    r, k = u.rank, basis.shape[1]
    c["flops"] += 2 * n_xi * k * k + 2 * r * k * (n_x + n_xi)
    c["bytes"] += F8 * ((n_x + n_xi) * r + n_xi * k + (n_x + n_xi) * k)


def _meter_truncate_common(c, u, out):
    c["rank_in"] += u.rank
    c["rank_out"] += out.rank
    c["rank_in_max"] = max(c["rank_in_max"], u.rank)


def _meter_trunc_op(c, out, op, u):
    _meter_truncate_common(c, u, out)
    if op.kind == "projection":
        _meter_truncate_projection(c, u, out, op.basis)
    else:
        _meter_truncate_svd(c, u, out)


def _meter_truncate_fn(c, out, u, *args, **kwargs):
    _meter_truncate_common(c, u, out)
    _meter_truncate_svd(c, u, out)


class _SplaProxy:
    """scipy.sparse.linalg as pgd sees it, with ``spsolve`` traced."""

    def __init__(self, spla, spsolve):
        self._spla = spla
        self.spsolve = spsolve

    def __getattr__(self, attr):
        return getattr(self._spla, attr)


class instrument:
    """Context manager that installs the tracing wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, name, meter=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.tracer.wrap(name, original, meter))

    def __enter__(self):
        from sglowrank import fem, krylov, lowrank, pgd

        t = self.tracer

        def meter_scale(c, out, u, alpha):
            t.note_scaled(out)

        def meter_matvec(c, out, A, P, u):
            t.note_matvec(u, out)

        try:
            self._patch(krylov, "build_kl", "randfield.build_kl")
            self._patch(krylov, "build_spectral_basis", "chaos.build")
            self._patch(krylov, "build_stochastic_matrices", "chaos.build")
            for attr in ("make_grid", "stretch_for_boundary_layer", "recommend_coarse_level",
                         "assemble_diffusion", "assemble_convection_diffusion"):
                self._patch(fem, attr, "fem.assemble")
            self._patch(krylov, "build_operator", "lowrank.build_operator")
            self._patch(krylov, "handle_nonhomogeneous_bc", "pgd.bc_lift")
            self._patch(krylov, "solve_pgd", "pgd.solve")
            self._patch(krylov, "solve", "krylov.solve")
            self._patch(krylov, "apply_preconditioned", "krylov.matvec", meter_matvec)
            self._patch(krylov.MeanPreconditioner, "__init__", "krylov.precond_setup")
            self._patch(krylov.MeanPreconditioner, "solve", "krylov.precond")
            self._patch(krylov, "apply_operator", "lowrank.apply", _meter_apply)
            self._patch(krylov, "norm", "lowrank.norm", _meter_norm)
            self._patch(krylov, "inner", "lowrank.inner", _meter_inner)
            self._patch(krylov, "add", "lowrank.add")
            self._patch(krylov, "scale", "lowrank.scale", meter_scale)
            self._patch(lowrank.TruncationOperator, "apply", "lowrank.truncate", _meter_trunc_op)
            # lowrank.residual_norm reaches these through its own module globals
            self._patch(lowrank, "apply_operator", "lowrank.apply", _meter_apply)
            self._patch(lowrank, "norm", "lowrank.norm", _meter_norm)
            self._patch(pgd, "enrich_rank_one", "pgd.enrich")
            self._patch(pgd, "update_stochastic", "pgd.update")
            self._patch(pgd, "residual_norm", "pgd.residual")
            self._patch(pgd, "norm", "lowrank.norm", _meter_norm)
            self._patch(pgd, "add", "lowrank.add")
            self._patch(pgd, "truncate_svd", "lowrank.truncate", _meter_truncate_fn)
            spla = pgd.spla
            self._saved.append((pgd, "spla", spla))
            pgd.spla = _SplaProxy(spla, t.wrap("pgd.condensed_solve", spla.spsolve))
        except BaseException:
            self._restore()
            raise
        return t

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self._restore()
        self.tracer.close_cycle()
        return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, call counts and computed work of one traced call."""
    st = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters
    out = {
        "randfield.build_kl_s": st["randfield.build_kl"],
        "chaos.build_s": st["chaos.build"],
        "fem.assemble_s": st["fem.assemble"],
        "lowrank.build_operator_s": st["lowrank.build_operator"],
        "pgd.solve_s": st["pgd.solve"],
        "pgd.enrich_s": st["pgd.enrich"],
        "pgd.enrichments": calls["pgd.enrich"],
        "pgd.condensed_solves": calls["pgd.condensed_solve"],
        "pgd.condensed_solve_s": st["pgd.condensed_solve"],
        "pgd.update_s": st["pgd.update"],
        "pgd.updates": calls["pgd.update"],
        "pgd.residual_checks": calls["pgd.residual"],
        "pgd.residual_s": st["pgd.residual"],
        "krylov.solve_s": st["krylov.solve"],
        "krylov.precond_setup_s": st["krylov.precond_setup"],
        "krylov.precond_s": st["krylov.precond"],
        "krylov.precond_calls": calls["krylov.precond"],
        "krylov.basis_bytes": tracer.peak_basis_bytes,
    }
    for op in ("apply", "inner", "norm", "truncate"):
        name = f"lowrank.{op}"
        out[f"{name}_s"] = st[name]
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_flops"] = c[name]["flops"]
        out[f"{name}_bytes"] = c[name]["bytes"]
    trunc = c["lowrank.truncate"]
    out["lowrank.truncate_rank_in_max"] = trunc["rank_in_max"]
    out["lowrank.truncate_keep_ratio"] = (
        trunc["rank_out"] / trunc["rank_in"] if trunc["rank_in"] else 1.0
    )
    out["trace.top_level_coverage"] = tracer.top_level_coverage()
    out["trace.spans"] = len(tracer.names)
    return out
