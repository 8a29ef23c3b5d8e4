"""Command-line front end: analyze | sweep | check | simulate | ctmc | bounds.

Exit codes: 0 success, 1 certificate failure or numerical error (such as
a reducible kernel), 2 parameter error, 3 capability (dimension cap)
error; each error prints one line to stderr. Every CSV has a fixed header
and deterministic row order; identical manifests and seeds give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, analysis, ctmc, kernels, simulate
from .errors import CapabilityError, NumericalError, ParameterError
from .kernels import SAMPLER_IDS, SCORE_FREE, STEP_SAMPLERS
from .models import (BitsMixture, CurieWeiss, IndependentBits, IsingGrid, TargetModel,
                     exact_target)
from .scores import SCORE_KINDS, ScoreField
from .statespace import BitState

ANALYZE_COLUMNS = [
    "eta", "sampler", "score", "dim", "w_to_target", "tv_to_target", "lambda2",
    "t_rel", "db_residual", "kappa", "stationary_residual", "beta1", "beta2",
    *(claim.column for claim in analysis._CLAIMS),
]

CHECK_COLUMNS = ["status", "certificate", "sampler", "score", "eta", "observed",
                 "bound", "reason"]


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(float(v)) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(float(value))
    return value


# each `--model` choice: the family of that name
_MODELS = {cls.name: cls for cls in (IndependentBits, BitsMixture, IsingGrid, CurieWeiss)}


def build_model(args) -> TargetModel:
    """The target `args.model` names, built from the flags named after its
    dataclass fields, in field order; ParameterError names every one of
    them left unset."""
    cls = _MODELS[args.model]
    flags = [f.name for f in dataclasses.fields(cls)]
    missing = [f for f in flags if getattr(args, f, None) is None]
    if missing:
        raise ParameterError(f"model {args.model!r} requires --" + ", --".join(missing))
    return cls(*(getattr(args, f) for f in flags))


def parse_eta_grid(grid: str) -> list[float]:
    """Grid syntax min:max:count[:log|:linear]; defaults to linear spacing."""
    parts = grid.split(":")
    if len(parts) not in (3, 4):
        raise ParameterError(f"bad eta grid {grid!r}, expected min:max:count[:log]")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"bad eta grid {grid!r}: {exc}") from exc
    scale = parts[3] if len(parts) == 4 else "linear"
    if scale not in ("log", "linear"):
        raise ParameterError(f"bad eta grid scale {scale!r}")
    kernels._check_eta(lo)
    kernels._check_eta(hi)
    if count < 1 or hi < lo:
        raise ParameterError(f"bad eta grid {grid!r}: need 0 < min <= max, count >= 1")
    if count == 1:
        return [lo]
    values = np.geomspace(lo, hi, count) if scale == "log" else np.linspace(lo, hi, count)
    return [float(e) for e in values]


def _etas(args) -> list[float]:
    if getattr(args, "eta_grid", None):
        return parse_eta_grid(args.eta_grid)
    if getattr(args, "eta", None) is None:
        raise ParameterError("provide --eta or --eta-grid")
    kernels._check_eta(args.eta)
    return [args.eta]


def _report_columns(report: analysis.BoundReport) -> dict:
    """A bound report as flat columns, in the order of the `bounds` CSV."""
    row = {"beta1": report.beta1, "beta2": report.beta2,
           "min_alignment": report.min_alignment}
    row.update({f"flag_{k}": v for k, v in report.flags.items()})
    row.update({column: e.value for column, e in report.entries.items()})
    return row


def analyze_row(model: TargetModel, sampler: str, score_kind: str | None,
                eta: float, with_kappa: bool = True) -> tuple[dict, np.ndarray]:
    """All exact diagnostics for one (sampler, score, eta) configuration,
    and the stationary law they were computed from. That law and its W1 to
    the target are solved on the orbits of `model.symmetries()`.

    The contraction factor costs one transport solve per orbit of hypercube
    edges under `model.symmetries()` (every edge of a target that declares
    none) and dominates everything else; `with_kappa=False` leaves its
    column empty. A score-free row reports its bounds for the glauber
    score.
    """
    if sampler in SCORE_FREE:
        score_kind = None
    field = ScoreField(model, score_kind) if score_kind else None
    kernel = kernels.kernel_matrix(model, sampler, field, eta)
    target = exact_target(model)
    pi = analysis.stationary(kernel)
    spectrum = analysis.spectral_summary(kernel, pi)
    row = {
        "eta": eta,
        "sampler": sampler,
        "score": score_kind or "",
        "dim": model.dim,
        "w_to_target": analysis.wasserstein_hamming(pi, target, kernel.symmetries),
        "tv_to_target": analysis.tv_distance(pi, target),
        "lambda2": spectrum.lambda2,
        "t_rel": spectrum.t_rel,
        "db_residual": analysis.detailed_balance_residual(kernel, target),
        "kappa": (analysis._sampler_certificate(model, kernel).kappa
                  if with_kappa and model.dim <= analysis.CONTRACTION_DIM_CAP
                  else ""),
        "stationary_residual": float(np.abs(pi @ kernel.probs - pi).sum()),
    }
    row.update(_report_columns(analysis.bounds_report(model, score_kind or "glauber", eta)))
    return {c: row[c] for c in ANALYZE_COLUMNS}, pi


def _manifest(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if v is not None}


def _versions() -> dict:
    import scipy

    return {"cubelab": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3]))}


def _emit(args, rows, columns, payload: dict):
    """CSV of `rows` by `columns`, or JSON of the manifest, the `payload`
    entries and the versions, to `--out` or stdout. `rows` may be any
    iterable, of dicts or of CSV text already formatted: the CSV writes
    each as it comes."""
    out = getattr(args, "out", None)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if getattr(args, "format", "csv") == "json":
            doc = {"manifest": _jsonable(_manifest(args)),
                   **{k: _jsonable(v) for k, v in payload.items()},
                   "versions": _versions()}
            fh.write(json.dumps(doc, indent=2) + "\n")
            return
        fh.write(",".join(columns) + "\n")
        fh.writelines(r if isinstance(r, str) else ",".join(_fmt(r.get(c, "")) for c in columns)
                      + "\n" for r in rows)


def _sweep_task(task):
    model, sampler, score_kind, eta, with_kappa = task
    return analyze_row(model, sampler, score_kind, eta, with_kappa)[0]


def cmd_analyze(args) -> int:
    model = build_model(args)
    etas = _etas(args)
    if len(etas) != 1:
        raise ParameterError("analyze takes a single --eta; use sweep for grids")
    row, pi = analyze_row(model, args.sampler, args.score, etas[0])
    payload = {"results": row}
    if getattr(args, "format", "csv") == "json":
        payload.update(stationary=pi, target=exact_target(model))
    _emit(args, [row], ANALYZE_COLUMNS, payload)
    return 0


def _split(value: str, allowed, what: str) -> list[str]:
    if value.strip() == "all":
        return list(allowed)
    names = [v.strip() for v in value.split(",") if v.strip()]
    if not names:
        raise ParameterError(f"empty {what} list, expected names from {allowed} or 'all'")
    for name in names:
        if name not in allowed:
            raise ParameterError(f"unknown {what} {name!r}, expected one of {allowed}")
    return names


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {args.jobs}")
    model = build_model(args)
    etas = _etas(args)
    samplers = _split(args.sampler, SAMPLER_IDS, "sampler")
    scores = _split(args.score, SCORE_KINDS, "score")
    with_kappa = not args.skip_kappa
    tasks = [(model, sampler, kind, eta, with_kappa)
             for eta in etas for sampler in samplers
             for kind in ([None] if sampler in SCORE_FREE else scores)]
    if args.jobs > 1:
        # with the fork start method the pool starts every worker at its first
        # submit, so it gets no more workers than there are rows
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    rows.sort(key=lambda r: (r["eta"], r["sampler"], r["score"]))
    _emit(args, rows, ANALYZE_COLUMNS, {"results": rows})
    return 0


def cmd_check(args) -> int:
    model = build_model(args)
    etas = _etas(args)
    scores = _split(args.score, SCORE_KINDS, "score")
    rows = [{**vars(cert), "status": cert.status.upper(), "score": cert.score or ""}
            for eta in etas for kind in scores
            for cert in analysis.run_certificates(model, kind, eta)]
    for row in rows:
        obs = "" if row["observed"] is None else f" observed={_fmt(row['observed'])}"
        bnd = "" if row["bound"] is None else f" bound={_fmt(row['bound'])}"
        why = f" ({row['reason']})" if row["reason"] else ""
        print(f"[{row['status']}] {row['certificate']} sampler={row['sampler']}"
              f" score={row['score']} eta={row['eta']:g}{obs}{bnd}{why}")
    if args.out:
        with open(args.out, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CHECK_COLUMNS)
            writer.writerows([_fmt(row[c]) for c in CHECK_COLUMNS] for row in rows)
    return 1 if any(row["status"] == "FAIL" for row in rows) else 0


def cmd_bounds(args) -> int:
    model = build_model(args)
    etas = _etas(args)
    scores = _split(args.score, SCORE_KINDS, "score")
    rows = [{"eta": eta, "score": kind, "dim": model.dim,
             **_report_columns(analysis.bounds_report(model, kind, eta))}
            for eta in etas for kind in scores]
    _emit(args, rows, list(rows[0]), {"bounds": rows})
    return 0


def cmd_simulate(args) -> int:
    model = build_model(args)
    etas = _etas(args)
    if len(etas) != 1:
        raise ParameterError("simulate takes a single --eta")
    cfg = simulate.ChainConfig(
        sampler=args.sampler, model=model, score=args.score, eta=etas[0],
        steps=args.steps, burn_in=args.burn_in, thinning=args.thin,
        chains=args.chains, seed=args.seed)
    result = simulate.run_chain(cfg, dump_path=args.dump)
    d = model.dim
    columns = (["chain", "retained", "mean_magnetization", "acceptance_fraction"]
               + [f"marginal_{i}" for i in range(d)]
               + [f"hist_{u}" for u in range(d + 1)])
    rows = []
    for c in range(cfg.chains):
        row = {"chain": c, "retained": result.retained,
               "mean_magnetization": float(result.mean_magnetization[c]),
               "acceptance_fraction": float(result.acceptance_fraction[c])}
        row.update({f"marginal_{i}": float(result.marginals[c, i]) for i in range(d)})
        row.update({f"hist_{u}": int(result.magnetization_histogram[c, u])
                    for u in range(d + 1)})
        rows.append(row)
    _emit(args, rows, columns, {"chains": rows})
    return 0


def cmd_ctmc(args) -> int:
    if args.seed < 0:
        raise ParameterError(f"seed must be >= 0, got {args.seed}")
    model = build_model(args)
    # the rates check the dimension cap before anything is drawn
    rates = ctmc.glauber_rates(model)
    rng = np.random.default_rng(args.seed)
    x0 = BitState(int(rng.integers(0, 1 << model.dim)), model.dim)
    traj = ctmc.ctmc_simulate(rates, x0, args.horizon, rng)
    if getattr(args, "format", "csv") == "json":
        rows = list(_trajectory_rows(traj))
        _emit(args, rows, _TRAJECTORY_COLUMNS, {"trajectory": rows})
    else:
        _emit(args, _trajectory_lines(traj), _TRAJECTORY_COLUMNS, {})
    return 0


_TRAJECTORY_COLUMNS = ["time", "state", "magnetization"]
# trajectory rows converted to Python objects at a time by `_trajectory_blocks`
_ROW_BLOCK = 4096


def _trajectory_blocks(traj: ctmc.Trajectory):
    """Per block of `_ROW_BLOCK` jumps: the times, the state words and the
    +1 counts of the states entered, as Python lists, so that a long run is
    written without holding a Python object per jump."""
    times = np.concatenate([[0.0], traj.times])
    for a in range(0, len(times), _ROW_BLOCK):
        words = traj.states[a:a + _ROW_BLOCK]
        yield (times[a:a + _ROW_BLOCK].tolist(), words.tolist(),
               np.bitwise_count(words).tolist())


def _trajectory_rows(traj: ctmc.Trajectory):
    """The rows of a jump trajectory as dicts, one block at a time."""
    d = traj.dim
    for times, words, plus in _trajectory_blocks(traj):
        for t, k, p in zip(times, words, plus):
            yield {"time": t, "state": f"{k:x}", "magnetization": (2 * p - d) / d}


def _trajectory_lines(traj: ctmc.Trajectory):
    """The CSV lines of `_trajectory_rows`, the same text as `_fmt` gives
    per cell, with each of the d + 1 magnetizations formatted once."""
    d = traj.dim
    mags = [_fmt((2 * p - d) / d) for p in range(d + 1)]
    for times, words, plus in _trajectory_blocks(traj):
        yield "".join([f"{t:.17g},{k:x},{mags[p]}\n" for t, k, p in zip(times, words, plus)])


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=list(_MODELS))
    p.add_argument("--beta", type=float, help="bits/mixture/curieweiss strength")
    p.add_argument("--dim", type=int, help="dimension for bits/mixture/curieweiss")
    p.add_argument("--rows", type=int, help="ising grid rows")
    p.add_argument("--cols", type=int, help="ising grid columns")
    p.add_argument("--J", type=float, help="ising interaction")
    p.add_argument("--h", type=float, default=0.0, help="ising external field")
    p.add_argument("--periodic", action="store_true", help="ising wrap-around edges")
    p.add_argument("--b", type=float, default=0.0, help="curieweiss magnetization shift")


def _add_eta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, help="step size")
    p.add_argument("--eta-grid", help="min:max:count[:log|:linear]")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubelab",
        description="samplers on the sign hypercube with exact verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exact diagnostics for one configuration")
    _add_model_flags(p)
    _add_eta_flags(p)
    p.add_argument("--sampler", required=True, choices=SAMPLER_IDS)
    p.add_argument("--score", choices=SCORE_KINDS, default="glauber")
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="diagnostics over a step-size grid")
    _add_model_flags(p)
    _add_eta_flags(p)
    p.add_argument("--sampler", default="all",
                   help="comma list of samplers, or 'all'")
    p.add_argument("--score", default="all", help="comma list of scores, or 'all'")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
    p.add_argument("--skip-kappa", action="store_true",
                   help="leave the contraction column empty (much faster)")
    _add_output_flags(p)

    p = sub.add_parser("check", help="evaluate every applicable certificate")
    _add_model_flags(p)
    _add_eta_flags(p)
    p.add_argument("--score", default="all", help="comma list of scores, or 'all'")
    p.add_argument("--out", help="also write results as CSV")

    p = sub.add_parser("bounds", help="closed-form bound report")
    _add_model_flags(p)
    _add_eta_flags(p)
    p.add_argument("--score", default="all", help="comma list of scores, or 'all'")
    _add_output_flags(p)

    p = sub.add_parser("simulate", help="seeded Monte Carlo chains")
    _add_model_flags(p)
    _add_eta_flags(p)
    p.add_argument("--sampler", required=True, choices=STEP_SAMPLERS)
    p.add_argument("--score", choices=SCORE_KINDS, default="glauber")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", help="per-sample dump CSV (small runs)")
    _add_output_flags(p)

    p = sub.add_parser("ctmc", help="continuous-time jump trajectory")
    _add_model_flags(p)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    return parser


def _check_output_paths(args) -> None:
    """Raise ParameterError for an output path (`--out`, `--dump`) that
    cannot be written, before any work is done and without creating it:
    one whose directory is missing or not writable, or that names a
    directory or an existing file that is not writable."""
    for flag in ("out", "dump"):
        path = getattr(args, flag, None)
        if not path:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            problem = "is a directory"
        elif not os.path.exists(folder):
            problem = f"is in {folder!r}, which does not exist"
        elif not os.path.isdir(folder):
            problem = f"is in {folder!r}, which is not a directory"
        elif not os.access(folder, os.W_OK | os.X_OK):
            problem = f"is in {folder!r}, which is not writable"
        elif os.path.exists(path) and not os.access(path, os.W_OK):
            problem = "is not writable"
        else:
            continue
        raise ParameterError(f"--{flag} {path!r} {problem}")


# one parser per process: building the tree costs milliseconds per call
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output_paths(args)
        # looked up per call, so that a command replaced at run time (by a
        # tracer or a test) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
