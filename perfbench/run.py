#!/usr/bin/env python3
"""Coarse-to-fine solve benchmark: time to solution on four paper cells.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload diffusion-l6 --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop: one ``pipeline`` call at a
time, each followed (outside the timed span) by an independent dense
residual check.  Calls continue while the next one is expected to finish
within ``--seconds``; at least one call is always made.

``--trace 0`` reports the end-to-end metrics from untraced calls:
time_to_solution_s (median over the run's calls), setup_s (median over
fresh processes that import the package and finish a warm-up solve),
peak_rss_mb (this process) and solved_ratio.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of the traced
calls (see ``spans.py``) with the measured tracing overhead.

The BLAS thread count is pinned to 1 before numpy loads.  Per-call
records, the environment and the spans go to ``perfbench/out/``.  Counts
(kappa, cycles, matvecs and traced call counts) are compared with every
earlier run of the same source tree and workload; differences are flagged
on stderr.  The last line of stdout is the JSON result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

import numpy  # noqa: E402
import scipy  # noqa: E402
from cells import WORKLOADS, spec_kwargs, warmup_kwargs  # noqa: E402
from check import dense_relative_residual  # noqa: E402
from spans import Tracer, instrument, layer_metrics, span_cost  # noqa: E402

# warning texts of sglowrank, counted per solve
WARNING_KINDS = {
    "gram_rank_deficient": "Gram system is numerically rank deficient",
    "residual_increases": "increased the relative residual",
    "pgd_nonconverged": "PGD stopped at rank",
    "solver_stopped": "projection solver stopped after",
    "basis_vanished": "truncated residual vanished",
}
REPRO_KEYS = ("kappa", "cycles", "matvecs", "final_rank", "n_xi", "n_x")


def import_package():
    """Import sglowrank from the checkout's ``src``, never from elsewhere."""
    pkg = SRC / "sglowrank"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: package source {pkg} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import sglowrank

    if Path(sglowrank.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported sglowrank from {sglowrank.__file__}, not {pkg}")
    return sglowrank


def warm_up(sg, workload):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sg.pipeline(sg.PipelineSpec(**warmup_kwargs(workload)))
    # Freeing one 30 MB block raises glibc's adaptive mmap threshold to its
    # steady value.  Without this the first timed solve alone takes ~65k
    # extra page faults (diffusion-l6: 94k against 30k) and peak RSS varies
    # by 5%.
    block = numpy.ones(30 * 2**20 // 8)
    del block


def environment() -> dict:
    def blas(cfg):
        info = cfg["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_numpy": blas(numpy.show_config(mode="dicts")),
        "blas_scipy": blas(scipy.show_config(mode="dicts")),
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(workload: str) -> list[float]:
    """Import-plus-warm-up seconds in fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def classify(caught) -> dict:
    counts = dict.fromkeys(WARNING_KINDS, 0)
    counts["other"] = 0
    for w in caught:
        text = str(w.message)
        kind = next((k for k, frag in WARNING_KINDS.items() if frag in text), "other")
        counts[kind] += 1
    return counts


def solve_once(sg, spec, traced: bool) -> dict:
    """One timed pipeline call, then the independent check outside the timing."""
    tracer = Tracer() if traced else None
    result = error = None
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            if traced:
                with instrument(tracer):
                    result = tracer.wrap("pipeline", sg.pipeline)(spec)
            else:
                result = sg.pipeline(spec)
        except Exception as exc:  # a raising solve is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    rec = {"traced": traced, "seconds": seconds, "warnings": classify(caught)}
    if result is None:
        rec.update(ok=False, error=error)
        return rec
    t1 = time.perf_counter()
    dense_rel = dense_relative_residual(result.fine_operator, result.solution)
    rep = result.report
    rec.update(
        check_s=time.perf_counter() - t1,
        dense_rel=dense_rel,
        solver_rel=rep.residual_history[-1],
        converged=rep.converged,
        ok=bool(rep.converged and dense_rel < spec.eps),
        kappa=result.pgd.kappa,
        cycles=rep.cycles,
        matvecs=rep.matvecs,
        final_rank=rep.final_rank,
        n_xi=result.n_xi,
        n_x=result.fine_operator.shape[0],
    )
    if traced:
        layers = layer_metrics(tracer)
        w = rec["warnings"]
        layers.update({
            "chaos.n_xi": rec["n_xi"],
            "fem.n_x": rec["n_x"],
            "pgd.kappa": rec["kappa"],
            "pgd.nonconverged": w["pgd_nonconverged"],
            "krylov.cycles": rec["cycles"],
            "krylov.matvecs": rec["matvecs"],
            "krylov.final_rank": rec["final_rank"],
            "krylov.gram_rank_deficient": w["gram_rank_deficient"],
            "krylov.residual_increases": w["residual_increases"],
        })
        rec["layers"] = layers
        rec["spans"] = list(tracer.records())
    return rec


def repro_flags(calls, state_key) -> list[str]:
    """Counts that differ between calls of this run or from earlier runs."""
    flags = []
    solved = [c for c in calls if c["ok"]]
    for key in REPRO_KEYS:
        values = {c[key] for c in solved}
        if len(values) > 1:
            flags.append(f"{key} differs between calls: {sorted(values)}")
    traced = [c["layers"] for c in solved if c["traced"]]
    for name, value in (traced[0].items() if traced else ()):
        if isinstance(value, int) and any(t[name] != value for t in traced[1:]):
            flags.append(f"{name} differs between traced calls")

    record = {}
    if solved:
        record["solve"] = {k: solved[0][k] for k in REPRO_KEYS}
    if traced:
        record["layers"] = {k: v for k, v in traced[0].items() if isinstance(v, int)}
    path = OUT / "counts.json"
    state = json.loads(path.read_text()) if path.is_file() else {}
    earlier = state.setdefault(state_key, {})
    for part, values in record.items():
        ref = earlier.setdefault(part, values)
        for k, v in values.items():
            if k in ref and ref[k] != v:
                flags.append(f"{k}={v} differs from an earlier run of this source ({ref[k]})")
            ref.setdefault(k, v)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return flags


def median_layers(traced_calls) -> dict:
    """Median of measured values, first call's value for exact counts."""
    first = traced_calls[0]["layers"]
    return {
        name: value if isinstance(value, int)
        else statistics.median(c["layers"][name] for c in traced_calls)
        for name, value in first.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coarse-to-fine solve benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        warm_up(import_package(), args.setup_probe)
        print(time.perf_counter() - _T0)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    sg = import_package()
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setup = measure_setup(args.workload) if args.trace == 0 else []
    warm_up(sg, args.workload)
    spec = sg.PipelineSpec(**spec_kwargs(args.workload, args.seed))

    calls = []
    steps = []
    t_start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(calls) % 2 == 1
        t_step = time.perf_counter()
        rec = solve_once(sg, spec, traced)
        steps.append(time.perf_counter() - t_step)
        calls.append(rec)
        print("call " + json.dumps(
            {k: v for k, v in rec.items() if k not in ("layers", "spans")}), flush=True)
        if args.trace == 1 and len(calls) < 2:
            continue
        if time.perf_counter() - t_start + statistics.median(steps) > args.seconds:
            break

    attempted = len(calls)
    failed = sum(not c["ok"] for c in calls)
    plain = [c["seconds"] for c in calls if not c["traced"] and c["ok"]]
    flags = repro_flags(calls, f"{source_digest()}:{args.workload}")
    for flag in flags:
        print(f"perfbench: FLAG {args.workload} seed {args.seed}: {flag}", file=sys.stderr)

    if args.trace == 0:
        metrics = {
            "time_to_solution_s": (statistics.median(plain) if plain
                                   else statistics.median(c["seconds"] for c in calls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "solved_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        traced_ok = [c for c in calls if c["traced"] and c["ok"]]
        if not traced_ok or not plain:
            print("perfbench: no traced and untraced pair of solves succeeded", file=sys.stderr)
            return 1
        layers = median_layers(traced_ok)
        traced_s = statistics.median(c["seconds"] for c in traced_ok)
        plain_s = statistics.median(plain)
        layers["trace.overhead_ratio"] = traced_s / plain_s
        layers["trace.overhead_est_ratio"] = span_cost() * layers["trace.spans"] / plain_s
        layers["trace.count_mismatches"] = len(flags)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "setup_samples": setup,
        "calls": [{k: v for k, v in c.items() if k != "spans"} for c in calls],
        "flags": flags,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if args.trace == 1:
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for call_id, c in enumerate(calls):
                for span in c.get("spans", ()):
                    fh.write(json.dumps(dict(span, call=call_id)) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio") or name == "trace.top_level_coverage":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
