"""The benchmark's workloads: operations, warm-ups and output checks.

One operation is one `cubelab.cli.main(argv)` invocation or one call of a
public function. Every operation carries a check that compares its output
with the independent computations in `oracles`; checks run after the timed
passes. A workload's parameters are drawn from the run's seed inside narrow
bands, so the seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles
from cubelab import cli
from cubelab.models import CurieWeiss
from cubelab.simulate import sample_transitions
from cubelab.statespace import BitState

REVERSIBLE = ("gibbs", "dmala", "dmaps", "prox")  # the target is their stationary law
ADJUSTED = ("dmala", "dmaps")
# A certificate's inequality is an equality in real arithmetic for constant
# scores; the program absorbs last-ulp noise with this guard.
FLOAT_GUARD = 1e-12
# Statistical checks: largest |z| accepted for a chain's acceptance rate and
# for the jump counts of the continuous-time process.
ACCEPT_Z = 5.0
JUMP_Z = 5.0


@dataclass
class CliOutput:
    rc: int
    text: str
    stderr: str


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    chain_key: str | None = None  # "<sampler>.<table|vector>" or "single.table"
    meta: dict = field(default_factory=dict)


def model_flags(spec: dict) -> list[str]:
    if spec["model"] == "ising":
        return ["--model", "ising", "--rows", str(spec["rows"]), "--cols", str(spec["cols"]),
                "--J", repr(spec["J"]), "--h", repr(spec["h"])]
    flags = ["--model", spec["model"], "--beta", repr(spec["beta"]), "--dim", str(spec["dim"])]
    if spec["model"] == "curieweiss":
        flags += ["--b", repr(spec["b"])]
    return flags


def cli_call(argv: list[str], out_path: str | None) -> Callable[[], CliOutput]:
    """An operation that runs the CLI in-process and returns its exit code and output."""
    full = argv + (["--out", out_path] if out_path else [])

    def run() -> CliOutput:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(full)
        text = stdout.getvalue()
        if out_path and os.path.exists(out_path):
            with open(out_path) as fh:
                text = fh.read()
            os.remove(out_path)
        return CliOutput(rc, text, stderr.getvalue())

    return run


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Checker:
    """Reference values shared by the checks of one run, cached per configuration."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 7])
        self._cache: dict = {}

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def kernel(self, spec, sampler, kind, eta):
        key = ("K", tuple(sorted(spec.items())), sampler, kind, eta)
        return self._memo(key, lambda: oracles.kernel(spec, sampler, kind, eta))

    def stationary(self, spec, sampler, kind, eta):
        key = ("pi", tuple(sorted(spec.items())), sampler, kind, eta)
        return self._memo(key, lambda: oracles.stationary(self.kernel(spec, sampler, kind, eta)))

    def target(self, spec):
        return self._memo(("t", tuple(sorted(spec.items()))), lambda: oracles.target(spec))

    # -- transport -----------------------------------------------------------

    def kappa_problems(self, spec, sampler, kind, eta, kappa: float) -> list[str]:
        """Check an adjacent-pair contraction factor against the rebuilt kernel.

        For product-law rows (dula on any model, dula and dups on bits) the
        per-coordinate sum is exact for every pair. Otherwise it is a lower
        bound, TV <= W1 <= d TV brackets kappa, and the Kantorovich dual is
        solved on sampled pairs: the pairs with the largest lower bounds and
        TV, and random ones.
        """
        k = self.kernel(spec, sampler, kind, eta)
        d = oracles.dim(spec)
        tag = f"{sampler}/{kind} eta={eta} kappa={kappa:.17g}"
        lower = oracles.product_law_values(k)
        product = sampler == "dula" or (spec["model"] == "bits" and sampler == "dups")
        problems = []
        if product:
            if abs(kappa - lower.max()) > 1e-9:
                problems.append(f"{tag}: product-law value {lower.max():.17g}")
            if (spec["model"] == "bits" and sampler == "dups" and kind in ("stein", "glauber")
                    and abs(kappa - oracles.bits_dups_kappa(spec["beta"], eta)) > 1e-9):
                problems.append(f"{tag}: closed form "
                                f"{oracles.bits_dups_kappa(spec['beta'], eta):.17g}")
            return problems
        pairs = oracles.adjacent_pairs(d)
        tv = 0.5 * np.abs(k[pairs[:, 0]] - k[pairs[:, 1]]).sum(axis=1)
        if kappa < max(lower.max(), tv.max()) - 1e-9 or kappa > d * tv.max() + 1e-9:
            problems.append(f"{tag}: outside [{max(lower.max(), tv.max()):.17g}, "
                            f"{d * tv.max():.17g}]")
        picks = set(np.argsort(lower)[-4:]) | set(np.argsort(tv)[-4:])
        picks |= set(self.rng.choice(len(pairs), size=8, replace=False))
        for j in sorted(picks):
            w = oracles.w1_dual(k[pairs[j, 0]], k[pairs[j, 1]])
            if w > kappa + 1e-9:
                problems.append(f"{tag}: pair {tuple(pairs[j])} has W1 {w:.17g} by the dual")
        return problems

    # -- certificates --------------------------------------------------------

    def certificate_problems(self, spec, kinds, eta, out: CliOutput) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(out.text)))
        expected = [(kind, entry) for kind in kinds
                    for entry in oracles.certificate_plan(spec, kind, eta)]
        if len(rows) != len(expected):
            return [f"{len(rows)} certificate rows, expected {len(expected)}"]
        problems = []
        any_fail = False
        for row, (kind, entry) in zip(rows, expected):
            tag = f"{entry['certificate']}/{kind} eta={eta}"
            if (row["certificate"], row["sampler"], row["score"]) != (
                    entry["certificate"], entry["sampler"], kind) or float(row["eta"]) != eta:
                problems.append(f"{tag}: row reads {row}")
                continue
            if not _close(float(row["bound"]), entry["bound"], 1e-12):
                problems.append(f"{tag}: bound {row['bound']} vs formula {entry['bound']:.17g}")
            if entry["skip"] is not None:
                why, detail = entry["skip"]
                words = {"score": [detail], "flags": list(detail), "cap": [str(detail)]}[why]
                if row["status"] != "SKIP" or not all(w in row["reason"] for w in words):
                    problems.append(f"{tag}: expected a skip for {why} {detail}, got "
                                    f"{row['status']} ({row['reason']})")
                continue
            if row["status"] not in ("PASS", "FAIL") or row["observed"] == "":
                problems.append(f"{tag}: expected an evaluated certificate, got {row}")
                continue
            observed = float(row["observed"])
            problems += self._observed_problems(spec, kind, eta, entry, observed)
            verdict = "PASS" if observed <= entry["bound"] + FLOAT_GUARD else "FAIL"
            any_fail |= verdict == "FAIL"
            if row["status"] != verdict:
                problems.append(f"{tag}: status {row['status']}, expected {verdict}")
        if out.rc != (1 if any_fail else 0):
            problems.append(f"exit code {out.rc}, expected {1 if any_fail else 0}")
        return problems

    def _observed_problems(self, spec, kind, eta, entry, observed) -> list[str]:
        name, sampler = entry["certificate"], entry["sampler"]
        if name.endswith("_contraction") or name.endswith("_contraction_small_step"):
            return self.kappa_problems(spec, sampler, kind, eta, observed)
        if name.endswith("_stationary_error"):
            w = oracles.w1_dual(self.stationary(spec, sampler, kind, eta), self.target(spec))
            ok = abs(observed - w) <= 1e-8
            return [] if ok else [f"{name}/{kind}: observed {observed:.17g}, dual W1 {w:.17g}"]
        delta = 1.0 - oracles.dmaps_accept_mass(spec, kind, eta).min()
        ok = abs(observed - delta) <= 1e-10 and -1e-12 <= observed <= 1.0
        return [] if ok else [f"{name}/{kind}: observed {observed:.17g}, flux gives {delta:.17g}"]

    # -- analyze and sweep rows ----------------------------------------------

    def row_problems(self, spec, row: dict, with_kappa: bool) -> list[str]:
        sampler, eta = row["sampler"], float(row["eta"])
        kind = row["score"] or None
        tag = f"{sampler}/{kind} eta={eta}"
        d = oracles.dim(spec)
        problems = []
        if int(row["dim"]) != d:
            problems.append(f"{tag}: dim {row['dim']}")
        k = self.kernel(spec, sampler, kind, eta)
        pi, t = self.stationary(spec, sampler, kind, eta), self.target(spec)
        w, tv = float(row["w_to_target"]), float(row["tv_to_target"])
        w_ref = oracles.w1_dual(pi, t)
        tv_ref = 0.5 * float(np.abs(pi - t).sum())
        if abs(w - w_ref) > 1e-8 or abs(tv - tv_ref) > 1e-9:
            problems.append(f"{tag}: w={w:.17g} tv={tv:.17g}, reference {w_ref:.17g} {tv_ref:.17g}")
        if not tv - 1e-12 <= w <= d * tv + 1e-12:
            problems.append(f"{tag}: TV <= W1 <= d TV fails: tv={tv:.17g} w={w:.17g}")
        lam, t_rel = float(row["lambda2"]), float(row["t_rel"])
        if not 0.0 <= lam <= 1.0 or abs(lam - oracles.second_eigen_modulus(k)) > 1e-7:
            problems.append(f"{tag}: lambda2={lam:.17g}, eigensolve gives "
                            f"{oracles.second_eigen_modulus(k):.17g}")
        rel_ok = (math.isinf(t_rel) if lam >= 1.0 - 1e-15
                  else _close(t_rel, 1.0 / (1.0 - lam), 1e-9))
        if not rel_ok:
            problems.append(f"{tag}: t_rel={t_rel:.17g} is not 1/(1-lambda2)")
        db = float(row["db_residual"])
        if abs(db - oracles.detailed_balance_residual(k, t)) > 1e-12:
            problems.append(f"{tag}: db_residual={db:.17g}, reference "
                            f"{oracles.detailed_balance_residual(k, t):.17g}")
        if sampler in REVERSIBLE and max(w, tv, db) > 1e-9:
            problems.append(f"{tag}: reversible sampler with w={w:.17g} tv={tv:.17g} db={db:.17g}")
        if not 0.0 <= float(row["stationary_residual"]) <= 1e-10:
            problems.append(f"{tag}: stationary_residual={row['stationary_residual']}")
        if with_kappa:
            problems += self.kappa_problems(spec, sampler, kind, eta, float(row["kappa"]))
        elif row["kappa"] != "":
            problems.append(f"{tag}: kappa column should be empty, reads {row['kappa']}")
        for col, ref in oracles.bound_columns(spec, kind or "glauber", eta).items():
            if not _close(float(row[col]), ref, 1e-12):
                problems.append(f"{tag}: {col}={row[col]} vs formula {ref:.17g}")
        return problems

    def csv_rows_problems(self, spec, out: CliOutput, expected: list[tuple],
                          with_kappa: bool) -> list[str]:
        if out.rc != 0:
            return [f"exit code {out.rc}: {out.stderr.strip()}"]
        rows = list(csv.DictReader(io.StringIO(out.text)))
        keys = [(float(r["eta"]), r["sampler"], r["score"]) for r in rows]
        if keys != expected:
            return [f"rows {keys}, expected {expected}"]
        return [p for r in rows for p in self.row_problems(spec, r, with_kappa)]

    def json_problems(self, spec, sampler, kind, eta, out: CliOutput) -> list[str]:
        if out.rc != 0:
            return [f"exit code {out.rc}: {out.stderr.strip()}"]
        doc = json.loads(out.text)
        row = {k: ("" if v is None else str(v)) for k, v in doc["results"].items()}
        problems = self.row_problems(spec, row, with_kappa=oracles.dim(spec) <= 8)
        pi = np.asarray(doc["stationary"], dtype=float)
        if np.abs(pi - self.stationary(spec, sampler, kind, eta)).sum() > 1e-9:
            problems.append("stationary vector differs from the dense solve")
        if np.abs(np.asarray(doc["target"]) - self.target(spec)).sum() > 1e-12:
            problems.append("target vector differs from the rebuilt target")
        return problems

    # -- chains --------------------------------------------------------------

    def chain_law(self, spec, sampler, kind, eta) -> np.ndarray:
        """Law of the number of +1 coordinates that a long chain should show."""
        if sampler in ("gibbs",) + ADJUSTED:
            return oracles.magnetization_law(spec)
        return oracles.bin_by_plus_count(self.stationary(spec, sampler, kind, eta))

    def simulate_problems(self, spec, cfg: dict, out: CliOutput, tv_tol: float) -> list[str]:
        if out.rc != 0:
            return [f"exit code {out.rc}: {out.stderr.strip()}"]
        d = oracles.dim(spec)
        rows = list(csv.DictReader(io.StringIO(out.text)))
        retained = 1 + (cfg["steps"] - cfg["burn_in"] - 1) // cfg["thin"]
        problems = []
        if len(rows) != cfg["chains"]:
            return [f"{len(rows)} chain rows, expected {cfg['chains']}"]
        pooled = np.zeros(d + 1)
        u = np.arange(d + 1)
        for row in rows:
            hist = np.array([int(row[f"hist_{j}"]) for j in u])
            marg = np.array([float(row[f"marginal_{i}"]) for i in range(d)])
            acc = float(row["acceptance_fraction"])
            tag = f"chain {row['chain']}"
            if int(row["retained"]) != retained or hist.sum() != retained:
                problems.append(f"{tag}: retained {row['retained']}, histogram {hist.sum()}")
            mean = ((2 * u - d) @ hist) / (retained * d)
            if abs(float(row["mean_magnetization"]) - mean) > 1e-12:
                problems.append(f"{tag}: mean magnetization disagrees with its histogram")
            if marg.min() < 0.0 or marg.max() > 1.0 or abs(marg.sum() - u @ hist / retained) > 1e-9:
                problems.append(f"{tag}: marginals disagree with the histogram")
            if (cfg["sampler"] in ADJUSTED and not 0.0 < acc <= 1.0) or (
                    cfg["sampler"] not in ADJUSTED and acc != 1.0):
                problems.append(f"{tag}: acceptance fraction {acc:.17g}")
            pooled += hist
        law = self.chain_law(spec, cfg["sampler"], cfg.get("score"), cfg["eta"])
        tv = 0.5 * float(np.abs(pooled / pooled.sum() - law).sum())
        if tv > tv_tol:
            problems.append(f"magnetization law off by TV {tv:.4f} > {tv_tol}")
        if cfg["sampler"] in ADJUSTED:
            acc = np.mean([float(row["acceptance_fraction"]) for row in rows])
            if cfg["sampler"] == "dmala":
                expected = oracles.dmala_acceptance(spec, cfg["eta"])
            else:
                expected = float(self.target(spec) @ oracles.dmaps_accept_mass(
                    spec, cfg["score"], cfg["eta"]))
            n = cfg["steps"] * cfg["chains"]
            z = (acc - expected) / math.sqrt(expected * (1.0 - expected) / n)
            if abs(z) > ACCEPT_Z:
                problems.append(f"acceptance {acc:.6f} vs stationary rate {expected:.6f}: "
                                f"z={z:.2f}")
        return problems

    def transitions_problems(self, spec, sampler, kind, eta, x: int, draws) -> list[str]:
        """Draws against the kernel row: support, and three means within 4 sigma."""
        d = oracles.dim(spec)
        row = self.kernel(spec, sampler, kind, eta)[x]
        draws = np.asarray(draws)
        n = draws.size
        if row[draws].min() <= 0.0:
            return ["a draw landed outside the kernel row's support"]
        ks = np.arange(1 << d)
        problems = []
        stats = {"stay": (ks == x).astype(float),
                 "hamming": np.array([bin(k ^ x).count("1") for k in ks], dtype=float),
                 "plus": np.array([bin(k).count("1") for k in ks], dtype=float)}
        for name, f in stats.items():
            mean = row @ f
            sd = math.sqrt(max(row @ (f * f) - mean * mean, 0.0) / n)
            z = (f[draws].mean() - mean) / sd
            if abs(z) > 4.0:
                problems.append(f"{name} mean {f[draws].mean():.6f} vs {mean:.6f}: z={z:.2f}")
        return problems

    def ctmc_problems(self, spec, horizon: float, out: CliOutput, tv_tol: float) -> list[str]:
        if out.rc != 0:
            return [f"exit code {out.rc}: {out.stderr.strip()}"]
        d = oracles.dim(spec)
        rows = list(csv.DictReader(io.StringIO(out.text)))
        times = np.array([float(r["time"]) for r in rows])
        states = np.array([int(r["state"], 16) for r in rows])
        mags = np.array([float(r["magnetization"]) for r in rows])
        plus = np.array([bin(s).count("1") for s in states])
        problems = []
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0) or times[-1] > horizon:
            problems.append("jump times are not increasing within the horizon")
        steps = states[1:] ^ states[:-1]
        if np.any(steps == 0) or np.any(steps & (steps - 1)):
            problems.append("a jump changes other than exactly one coordinate")
        if np.any(mags != (2 * plus - d) / d):
            problems.append("magnetization column disagrees with the states")
        jumps = np.bincount(np.log2(steps).astype(int), minlength=d)
        expected = horizon * oracles.glauber_jump_rates(spec)
        z = (jumps - expected) / np.sqrt(expected)
        if np.abs(z).max() > JUMP_Z:
            problems.append(f"jump counts per coordinate {jumps.tolist()} vs "
                            f"{np.round(expected, 1).tolist()}: max |z|={np.abs(z).max():.2f}")
        held = np.diff(np.append(times, horizon))
        occupancy = np.bincount(plus, weights=held, minlength=d + 1) / horizon
        tv = 0.5 * float(np.abs(occupancy - oracles.magnetization_law(spec)).sum())
        if tv > tv_tol:
            problems.append(f"occupation law off by TV {tv:.4f} > {tv_tol}")
        return problems


# ---------------------------------------------------------------------------
# operation builders


def _check_op(chk, tmp, label, spec, eta, kinds):
    argv = ["check", *model_flags(spec), "--eta", repr(eta), "--score", ",".join(kinds)]
    return Op(label, cli_call(argv, os.path.join(tmp, label + ".csv")),
              lambda out: chk.certificate_problems(spec, kinds, eta, out))


def _analyze_op(chk, tmp, label, spec, sampler, kind, eta, fmt="csv"):
    argv = ["analyze", *model_flags(spec), "--sampler", sampler, "--score", kind,
            "--eta", repr(eta), "--format", fmt]
    if fmt == "json":
        check = lambda out: chk.json_problems(spec, sampler, kind, eta, out)  # noqa: E731
    else:
        expected = [(eta, sampler, "" if sampler in ("gibbs", "prox") else kind)]
        check = lambda out: chk.csv_rows_problems(  # noqa: E731
            spec, out, expected, with_kappa=oracles.dim(spec) <= 8)
    return Op(label, cli_call(argv, os.path.join(tmp, f"{label}.{fmt}")), check)


def _simulate_op(chk, tmp, label, spec, sampler, kind, eta, steps, chains, seed,
                 burn_in, tv_tol, chain_key=None):
    cfg = {"sampler": sampler, "score": None if sampler == "gibbs" else kind, "eta": eta,
           "steps": steps, "burn_in": burn_in, "thin": 1, "chains": chains}
    argv = ["simulate", *model_flags(spec), "--sampler", sampler, "--score", kind,
            "--eta", repr(eta), "--steps", str(steps), "--burn-in", str(burn_in),
            "--chains", str(chains), "--seed", str(seed)]
    mode = "table" if oracles.dim(spec) <= 12 else "vector"
    return Op(label, cli_call(argv, os.path.join(tmp, label + ".csv")),
              lambda out: chk.simulate_problems(spec, cfg, out, tv_tol),
              chain_key=chain_key or f"{sampler}.{mode}")


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def build(name: str, seed: int, tmp: str) -> list[Op]:
    """The timed operations of a workload; their checks share one Checker."""
    rng = np.random.default_rng(seed)
    chk = Checker(seed)
    if name == "certify":
        bits = {"model": "bits", "beta": rng.uniform(0.46, 0.54), "dim": 6}
        mix = {"model": "mixture", "beta": rng.uniform(0.095, 0.105), "dim": 5}
        cw = {"model": "curieweiss", "beta": rng.uniform(0.018, 0.022), "b": 0.0, "dim": 5}
        ising = {"model": "ising", "rows": 2, "cols": 3, "J": rng.uniform(0.38, 0.42),
                 "h": rng.uniform(0.08, 0.12)}
        bits_vec = {"model": "bits", "beta": bits["beta"], "dim": 24}
        ops = [
            _check_op(chk, tmp, "check-bits-0.4", bits, 0.4, oracles.SCORE_KINDS),
            _check_op(chk, tmp, "check-bits-0.8", bits, 0.8, ("stein", "gibbs")),
            _check_op(chk, tmp, "check-mixture", mix, 0.8, ("glauber",)),
            _check_op(chk, tmp, "check-curieweiss", cw, 0.8, ("glauber",)),
            _analyze_op(chk, tmp, "analyze-ising-dups", ising, "dups", "stein", 0.8),
            _analyze_op(chk, tmp, "analyze-ising-dmaps", ising, "dmaps", "glauber", 0.8),
            _simulate_op(chk, tmp, "simulate-bits-dups", bits, "dups", "glauber", 0.8,
                         40_000, 2, _seed(rng), 500, 0.05),
            _simulate_op(chk, tmp, "simulate-bits-dmala-vector", bits_vec, "dmala", "glauber",
                         0.8, 16_000, 2, _seed(rng), 200, 0.15),
        ]
    elif name == "diagnose":
        beta = rng.uniform(0.48, 0.52)
        mix8 = {"model": "mixture", "beta": beta, "dim": 8}
        mix9 = {"model": "mixture", "beta": beta, "dim": 9}
        mix_vec = {"model": "mixture", "beta": rng.uniform(0.045, 0.055), "dim": 32}
        etas = (0.3, 0.6)
        samplers = ("dmala", "dmaps", "dula", "dups", "gibbs", "prox")
        expected = sorted((eta, s, "" if s in ("gibbs", "prox") else kind)
                          for eta in etas for s in samplers
                          for kind in (("",) if s in ("gibbs", "prox") else ("glauber", "stein")))
        sweep_argv = ["sweep", *model_flags(mix8), "--eta-grid", f"{etas[0]}:{etas[1]}:2",
                      "--sampler", "all", "--score", "stein,glauber", "--skip-kappa"]
        ops = [
            Op("sweep-mixture", cli_call(sweep_argv, os.path.join(tmp, "sweep.csv")),
               lambda out: chk.csv_rows_problems(mix8, out, expected, with_kappa=False)),
            _analyze_op(chk, tmp, "analyze-mixture-dmaps-json", mix9, "dmaps", "glauber", 0.4,
                        fmt="json"),
            _simulate_op(chk, tmp, "simulate-mixture-dmaps", mix8, "dmaps", "glauber", 0.8,
                         50_000, 2, _seed(rng), 500, 0.08),
            _simulate_op(chk, tmp, "simulate-mixture-dmala-vector", mix_vec, "dmala",
                         "glauber", 0.8, 8_000, 2, _seed(rng), 200, 0.15),
        ]
    elif name == "chains":
        cw = {"model": "curieweiss", "beta": rng.uniform(0.018, 0.022), "b": 0.0, "dim": 10}
        cw_vec = {"model": "curieweiss", "beta": rng.uniform(0.0045, 0.0055), "b": 0.0,
                  "dim": 64}
        eta = 0.8
        ops = [_simulate_op(chk, tmp, f"simulate-{s}", cw, s, "glauber", eta, 25_000, 4,
                            _seed(rng), 1_000, 0.05)
               for s in ("gibbs", "dula", "dmala", "dups", "dmaps")]
        ops.append(_simulate_op(chk, tmp, "simulate-dmaps-single", cw, "dmaps", "glauber", eta,
                                100_000, 1, _seed(rng), 1_000, 0.05, chain_key="single.table"))
        ops.append(_simulate_op(chk, tmp, "simulate-dmala-vector", cw_vec, "dmala", "glauber",
                                eta, 10_000, 4, _seed(rng), 500, 0.1))
        x0, draws_seed, draws = int(rng.integers(0, 1 << 10)), _seed(rng), 1_000_000
        model = CurieWeiss(cw["beta"], cw["b"], cw["dim"])
        ops.append(Op(
            "sample-transitions",
            lambda: sample_transitions(model, "dmala", "glauber", eta, BitState(x0, 10), draws,
                                       np.random.default_rng(draws_seed)),
            lambda out: chk.transitions_problems(cw, "dmala", "glauber", eta, x0, out),
            meta={"draws": draws}))
        horizon = 2e4
        ctmc_argv = ["ctmc", *model_flags(cw), "--horizon", repr(horizon),
                     "--seed", str(_seed(rng))]
        ops.append(Op("ctmc", cli_call(ctmc_argv, os.path.join(tmp, "ctmc.csv")),
                      lambda out: chk.ctmc_problems(cw, horizon, out, 0.05)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


def warmup(name: str, tmp: str) -> list[Callable[[], object]]:
    """Small untimed calls that load every code path a workload's pass uses."""
    bits = {"model": "bits", "beta": 0.5, "dim": 3}
    if name == "certify":
        argvs = [["check", *model_flags(bits), "--eta", "0.4"],
                 ["analyze", "--model", "ising", "--rows", "1", "--cols", "3", "--J", "0.4",
                  "--sampler", "dmaps", "--eta", "0.8"]]
    elif name == "diagnose":
        argvs = [["sweep", *model_flags(bits), "--eta", "0.4", "--skip-kappa"],
                 ["analyze", *model_flags(bits), "--sampler", "dmaps", "--eta", "0.4",
                  "--format", "json"]]
    else:
        argvs = [["ctmc", *model_flags(bits), "--horizon", "10"]]
    argvs += [["simulate", *model_flags(bits), "--sampler", s, "--eta", "0.8", "--steps", "50"]
              for s in ("gibbs", "dula", "dmala", "dups", "dmaps")]
    argvs += [["simulate", *model_flags({**bits, "dim": 16}), "--sampler", "dmala",
               "--eta", "0.8", "--steps", "50"]]
    return [cli_call(argv, os.path.join(tmp, "warmup.out")) for argv in argvs]
