"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports cubelab: targets, score tables, dense kernels, bound
formulas and transport values are rebuilt from their definitions with numpy
and scipy, so a check compares the program against a second derivation
rather than against itself or a stored copy of its output.

A model is described by a plain dict ("spec"), the same one the benchmark
turns into command-line flags:

    {"model": "bits", "beta": b, "dim": d}
    {"model": "mixture", "beta": b, "dim": d}
    {"model": "curieweiss", "beta": b, "b": shift, "dim": d}
    {"model": "ising", "rows": r, "cols": c, "J": j, "h": h}   (free boundary)
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import expit

SCORE_KINDS = ("stein", "gibbs", "glauber")


def dim(spec: dict) -> int:
    if spec["model"] == "ising":
        return spec["rows"] * spec["cols"]
    return spec["dim"]


def sign_table(d: int) -> np.ndarray:
    """(2^d, d) float array of +-1 coordinates; bit i of row k is coordinate i."""
    ks = np.arange(1 << d)
    return (((ks[:, None] >> np.arange(d)) & 1) * 2 - 1).astype(np.float64)


def _ising_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return edges


def log_weight(spec: dict, x: np.ndarray) -> np.ndarray:
    """Unnormalized log density of (..., d) sign arrays."""
    kind = spec["model"]
    s = x.sum(axis=-1)
    if kind == "bits":
        return spec["beta"] * s
    if kind == "mixture":
        b = spec["beta"]
        return np.logaddexp(b * s, -b * s) - math.log(2.0)
    if kind == "curieweiss":
        return spec["beta"] * (s - spec["b"]) ** 2
    if kind == "ising":
        pair = sum(x[..., i] * x[..., j] for i, j in _ising_edges(spec["rows"], spec["cols"]))
        return spec["J"] * pair + spec["h"] * s
    raise ValueError(f"unknown model {kind!r}")


def target(spec: dict) -> np.ndarray:
    lw = log_weight(spec, sign_table(dim(spec)))
    p = np.exp(lw - lw.max())
    return p / p.sum()


def score_table(spec: dict, kind: str) -> np.ndarray:
    """Score of every state, by definition (glauber, gibbs) or closed form (stein)."""
    d = dim(spec)
    x = sign_table(d)
    if kind == "stein":
        s = x.sum(axis=1, keepdims=True)
        if spec["model"] == "bits":
            return np.full(x.shape, spec["beta"])
        if spec["model"] == "mixture":
            return np.broadcast_to(spec["beta"] * np.tanh(spec["beta"] * s), x.shape).copy()
        if spec["model"] == "curieweiss":
            return np.broadcast_to(2.0 * spec["beta"] * (s - spec["b"]), x.shape).copy()
        return score_table(spec, "glauber")  # ising: quadratic, zero diagonal
    g = np.empty(x.shape)
    for i in range(d):
        up, down = x.copy(), x.copy()
        up[:, i], down[:, i] = 1.0, -1.0
        g[:, i] = 0.5 * (log_weight(spec, up) - log_weight(spec, down))
    if kind == "gibbs":
        return x * np.logaddexp(0.0, 2.0 * x * g)
    return g


# ---------------------------------------------------------------------------
# dense kernels, rebuilt from the sampler definitions


def _product_kernel(flip: np.ndarray) -> np.ndarray:
    """Row k: independent flips, coordinate i flipping with probability flip[k, i]."""
    n, d = flip.shape
    ks = np.arange(n)
    out = np.ones((n, n))
    for i in range(d):
        differs = ((ks[None, :] ^ ks[:, None]) >> i) & 1
        out *= np.where(differs == 1, flip[:, i:i + 1], 1.0 - flip[:, i:i + 1])
    return out


def _fold_rejections(flux: np.ndarray) -> np.ndarray:
    np.fill_diagonal(flux, 0.0)
    flux[np.diag_indices_from(flux)] = 1.0 - flux.sum(axis=1)
    return flux


def dmaps_flux(spec: dict, kind: str, eta: float) -> np.ndarray:
    """Accepted flux of the adjusted two-stage kernel, summed over every z."""
    d = dim(spec)
    x = sign_table(d)
    lw = log_weight(spec, x)
    tab = score_table(spec, kind)
    stage1 = _product_kernel(np.full((1 << d, d), expit(-2.0 / eta)))
    stage2 = _product_kernel(expit(-2.0 / eta - 2.0 * x * tab))
    flux = np.zeros((1 << d, 1 << d))
    for z in range(1 << d):
        phi = lw - x @ tab[z]
        accept = np.minimum(1.0, np.exp(phi[None, :] - phi[:, None]))
        flux += stage1[:, z:z + 1] * stage2[z:z + 1, :] * accept
    return flux


def kernel(spec: dict, sampler: str, kind: str | None, eta: float) -> np.ndarray:
    """The sampler's one-step transition matrix."""
    d = dim(spec)
    x = sign_table(d)
    if sampler == "gibbs":
        h = math.exp(-2.0 / eta)
        return np.eye(1 << d) + h * generator(spec)
    if sampler == "prox":
        log_v = log_weight(spec, x)[None, :] + (x @ x.T) / eta
        v = np.exp(log_v - log_v.max(axis=1, keepdims=True))
        v /= v.sum(axis=1, keepdims=True)
        return _product_kernel(np.full((1 << d, d), expit(-2.0 / eta))) @ v
    tab = score_table(spec, kind)
    if sampler in ("dula", "dmala"):
        proposal = _product_kernel(expit(-2.0 / eta - x * tab))
        if sampler == "dula":
            return proposal
        lw = log_weight(spec, x)
        w = np.exp(lw - lw.max())
        ratio = (w[None, :] * proposal.T) / (w[:, None] * proposal)
        return _fold_rejections(proposal * np.minimum(1.0, ratio))
    if sampler == "dups":
        stage1 = _product_kernel(np.full((1 << d, d), expit(-2.0 / eta)))
        return stage1 @ _product_kernel(expit(-2.0 / eta - 2.0 * x * tab))
    if sampler == "dmaps":
        return _fold_rejections(dmaps_flux(spec, kind, eta))
    raise ValueError(f"unknown sampler {sampler!r}")


def generator(spec: dict) -> np.ndarray:
    """Single-flip rate matrix with glauber rates sigma(-2 x_i g_i)."""
    d = dim(spec)
    x = sign_table(d)
    rates = expit(-2.0 * x * score_table(spec, "glauber"))
    n = 1 << d
    ks = np.arange(n)
    q = np.zeros((n, n))
    for i in range(d):
        q[ks, ks ^ (1 << i)] = rates[:, i]
    q[ks, ks] = -q.sum(axis=1)
    return q


def stationary(k: np.ndarray) -> np.ndarray:
    """Left null vector of K - I by a dense solve with one normalization row."""
    n = k.shape[0]
    a = k.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    return pi / pi.sum()


def second_eigen_modulus(k: np.ndarray) -> float:
    mods = np.sort(np.abs(np.linalg.eigvals(k)))
    return float(mods[-2])


def detailed_balance_residual(k: np.ndarray, p: np.ndarray) -> float:
    flux = p[:, None] * k
    return float(np.abs(flux - flux.T).max())


# ---------------------------------------------------------------------------
# transport


@lru_cache(maxsize=None)
def _edge_constraints(d: int) -> sparse.csr_matrix:
    """|f(k) - f(k ^ e_i)| <= 1 on every hypercube edge, as two inequalities."""
    ks = np.arange(1 << d)
    lo = np.concatenate([ks[(ks >> i) & 1 == 0] for i in range(d)])
    hi = np.concatenate([ks[(ks >> i) & 1 == 0] | (1 << i) for i in range(d)])
    m = lo.size
    rows = np.arange(m)
    one_way = sparse.csr_matrix(
        (np.r_[np.ones(m), -np.ones(m)], (np.r_[rows, rows], np.r_[lo, hi])),
        shape=(m, 1 << d))
    return sparse.vstack([one_way, -one_way]).tocsr()


def w1_dual(p: np.ndarray, q: np.ndarray) -> float:
    """Hamming W1 as the Kantorovich dual: max <f, p - q> over 1-Lipschitz f.

    Hamming distance is the graph metric of the cube, so Lipschitz on edges
    is Lipschitz everywhere. Solved by HiGHS at 1e-10 feasibility tolerances.
    """
    d = p.shape[0].bit_length() - 1
    a = _edge_constraints(d)
    res = linprog(-(p - q), A_ub=a, b_ub=np.ones(a.shape[0]), bounds=(None, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"dual transport LP failed: {res.message}")
    return float(-res.fun)


def plus_marginals(rows: np.ndarray) -> np.ndarray:
    """P(x'_i = +1) for each row of a kernel (or each distribution)."""
    d = rows.shape[-1].bit_length() - 1
    return rows @ ((sign_table(d) + 1.0) / 2.0)


def adjacent_pairs(d: int) -> np.ndarray:
    ks = np.arange(1 << d)
    return np.concatenate([np.stack([ks[(ks >> i) & 1 == 0], ks[(ks >> i) & 1 == 0] | (1 << i)],
                                    axis=1) for i in range(d)])


def product_law_values(k: np.ndarray) -> np.ndarray:
    """sum_i |P_i - Q_i| for every adjacent row pair, in `adjacent_pairs` order.

    A lower bound on W1 for any rows, and equal to it when both rows are
    product laws over coordinates.
    """
    marg = plus_marginals(k)
    pairs = adjacent_pairs(k.shape[0].bit_length() - 1)
    return np.abs(marg[pairs[:, 0]] - marg[pairs[:, 1]]).sum(axis=1)


def bits_dups_kappa(beta: float, eta: float) -> float:
    """Closed form of the dups adjacent-pair W1 on bits under a constant score."""
    return ((1.0 - 2.0 * expit(-2.0 / eta))
            * (1.0 - expit(-2.0 / eta - 2.0 * beta) - expit(-2.0 / eta + 2.0 * beta)))


# ---------------------------------------------------------------------------
# magnetization laws


def magnetization_law(spec: dict) -> np.ndarray:
    """Law of the number u of +1 coordinates under the target, u = 0..d."""
    d = dim(spec)
    u = np.arange(d + 1)
    s = 2.0 * u - d
    log_binom = np.array([math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)
                          for k in u])
    kind = spec["model"]
    if kind == "bits":
        lw = spec["beta"] * s
    elif kind == "mixture":
        lw = np.logaddexp(spec["beta"] * s, -spec["beta"] * s)
    elif kind == "curieweiss":
        lw = spec["beta"] * (s - spec["b"]) ** 2
    else:
        raise ValueError("magnetization law needs an exchangeable model")
    logp = log_binom + lw
    p = np.exp(logp - logp.max())
    return p / p.sum()


def bin_by_plus_count(p: np.ndarray) -> np.ndarray:
    d = p.shape[0].bit_length() - 1
    counts = ((sign_table(d) + 1.0) / 2.0).sum(axis=1).astype(int)
    return np.bincount(counts, weights=p, minlength=d + 1)


# ---------------------------------------------------------------------------
# the paper's closed-form bounds and the flags that gate them


def smooth_constants(tab: np.ndarray) -> tuple[float, float]:
    """beta1 = max |s|; beta2 = half the largest change of s_j when x_i flips, j != i."""
    n, d = tab.shape
    ks = np.arange(n)
    beta2 = 0.0
    for i in range(d):
        diff = np.abs(tab - tab[ks ^ (1 << i)])
        diff[:, i] = 0.0
        beta2 = max(beta2, float(diff.max()) / 2.0)
    return float(np.abs(tab).max()), beta2


def bounds(spec: dict, kind: str, eta: float) -> dict:
    """Every rate and error bound with its gating flags, for one configuration."""
    d = dim(spec)
    tab = score_table(spec, kind)
    beta1, beta2 = smooth_constants(tab)
    alignment = float((sign_table(d) * tab).min())
    h = math.exp(-2.0 / eta)
    s0 = float(expit(-2.0 / eta))
    s1 = float(expit(-2.0 / eta + beta1))
    flags = {
        "d_beta2_le_1": d * beta2 <= 1.0,
        "4d_beta2_le_1": 4.0 * d * beta2 <= 1.0,
        "8d_beta2_le_1": 8.0 * d * beta2 <= 1.0,
        "2d_beta2_le_exp_neg_beta1": 2.0 * d * beta2 <= math.exp(-beta1),
        "4d_beta2_exp4beta1_le_1": 4.0 * d * beta2 * math.exp(4.0 * beta1) <= 1.0,
        "step_le_inv_d": h <= 1.0 / d,
        "alignment_ge_neg_half_inv_eta": alignment >= -1.0 / (2.0 * eta),
        "shifted_step_le_inv_d": math.exp(-2.0 / eta - 2.0 * beta1) <= 1.0 / d,
    }
    g = d * beta1 * math.exp(2.0 * beta1)
    r = math.exp(-1.0 / eta)
    lipschitz = 6.0 * beta1 + 4.0 * d ** 1.5 * math.sqrt(s0 + s1) * beta2
    rejection = 1.0 - math.exp(-2.0 * beta2 * d * d * (s0 + s1)
                               - 4.0 * beta2 * d * d * math.sqrt(s0 * s0 + s0 * s1))
    # (value, gating flags, score the bound was proven for)
    rates = {
        "gibbs": (1.0 - h * (1.0 - d * beta2), ("d_beta2_le_1", "step_le_inv_d"), "glauber"),
        "dula": (1.0 - 0.5 * math.exp(-2.0 / eta - beta1), ("2d_beta2_le_exp_neg_beta1",), None),
        "dula_small_step": (1.0 - 0.25 * h, ("4d_beta2_le_1",), "gibbs"),
        "dups": (1.0 - 2.0 * s0, ("4d_beta2_exp4beta1_le_1",), None),
        "dups_small_step": (1.0 - 0.5 * r, ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"),
                            None),
    }
    errors = {
        "dula_small_step": (4.0 * d * s0, ("4d_beta2_le_1", "step_le_inv_d"), "gibbs"),
        "dups_small_step": (0.5 * d ** 3 * (1.0 + r) ** (d - 1) * r,
                            ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"), "glauber"),
        "dula_static": (2.0 * d * (2.0 * g + math.sqrt(g)), ("2d_beta2_le_exp_neg_beta1",), None),
        "dups_static": (12.0 * d * math.sqrt(beta2 * d),
                        ("4d_beta2_exp4beta1_le_1", "shifted_step_le_inv_d"), None),
    }
    return {
        "beta1": beta1, "beta2": beta2, "flags": flags, "rates": rates, "errors": errors,
        "dmaps_lipschitz": lipschitz, "dmaps_rejection": rejection,
        "dmaps_rate": 1.0 - 2.0 * s0 + rejection + d * lipschitz,
    }


def bound_columns(spec: dict, kind: str, eta: float) -> dict:
    """The bound columns of an analyze or sweep row."""
    b = bounds(spec, kind, eta)
    cols = {"beta1": b["beta1"], "beta2": b["beta2"]}
    cols.update({f"rate_{k}": v[0] for k, v in b["rates"].items()})
    cols.update({f"err_{k}": v[0] for k, v in b["errors"].items()
                 if k in ("dula_small_step", "dups_small_step", "dula_static", "dups_static")})
    cols.update({k: b[k] for k in ("dmaps_lipschitz", "dmaps_rejection", "dmaps_rate")})
    return cols


# certificate name -> (sampler, bound group, bound key, dimension cap)
CERTIFICATES = (
    ("gibbs_contraction", "gibbs", "rates", "gibbs", 8),
    ("dula_contraction", "dula", "rates", "dula", 8),
    ("dula_contraction_small_step", "dula", "rates", "dula_small_step", 8),
    ("dups_contraction", "dups", "rates", "dups", 8),
    ("dups_contraction_small_step", "dups", "rates", "dups_small_step", 8),
    ("dula_stationary_error", "dula", "errors", "dula_small_step", 12),
    ("dups_stationary_error", "dups", "errors", "dups_small_step", 12),
    ("dmaps_acceptance_mass", "dmaps", None, None, 12),
)


def certificate_plan(spec: dict, kind: str, eta: float) -> list[dict]:
    """Which certificates run or skip, and against which bound."""
    b = bounds(spec, kind, eta)
    d = dim(spec)
    plan = []
    for name, sampler, group, key, cap in CERTIFICATES:
        if group is None:
            value, conditions, required = b["dmaps_rejection"], (), "stein"
        else:
            value, conditions, required = b[group][key]
        unmet = [c for c in conditions if not b["flags"][c]]
        if required is not None and required != kind:
            skip = ("score", required)
        elif unmet:
            skip = ("flags", tuple(unmet))
        elif d > cap:
            skip = ("cap", cap)
        else:
            skip = None
        plan.append({"certificate": name, "sampler": sampler, "bound": value, "skip": skip})
    return plan


# ---------------------------------------------------------------------------
# acceptance and jump rates


def _log_weight_of_sum(spec: dict, s: np.ndarray) -> np.ndarray:
    """Log weight as a function of S = sum_i x_i, for the exchangeable models."""
    kind = spec["model"]
    if kind == "bits":
        return spec["beta"] * s
    if kind == "mixture":
        return np.logaddexp(spec["beta"] * s, -spec["beta"] * s)
    if kind == "curieweiss":
        return spec["beta"] * (s - spec["b"]) ** 2
    raise ValueError("needs an exchangeable model")


def dmala_acceptance(spec: dict, eta: float) -> float:
    """Stationary acceptance rate of dmala with the glauber score, at any d.

    On an exchangeable model the flip probability of a coordinate depends
    only on its sign and the number u of +1 coordinates, so a move is fixed
    in law by how many +1 (kp) and -1 (km) coordinates flip. Summing the
    Metropolis acceptance over u ~ target, kp ~ Bin(u, q+) and
    km ~ Bin(d - u, q-) gives the exact rate; a proposal that flips nothing
    counts as accepted.
    """
    from scipy.stats import binom

    d = dim(spec)
    law = magnetization_law(spec)

    def flip_probs(u):
        s = 2.0 * u - d
        # glauber score of a +1 and of a -1 coordinate, from the rest's sum
        g_plus = 0.5 * (_log_weight_of_sum(spec, s) - _log_weight_of_sum(spec, s - 2.0))
        g_minus = 0.5 * (_log_weight_of_sum(spec, s + 2.0) - _log_weight_of_sum(spec, s))
        return expit(-2.0 / eta - g_plus), expit(-2.0 / eta + g_minus)

    total = 0.0
    for u in range(d + 1):
        qp, qm = flip_probs(u)
        kp = np.arange(u + 1)[:, None]
        km = np.arange(d - u + 1)[None, :]
        v = u - kp + km
        rp, rm = flip_probs(v)
        log_fwd = (kp * np.log(qp) + (u - kp) * np.log1p(-qp)
                   + km * np.log(qm) + (d - u - km) * np.log1p(-qm))
        log_rev = (km * np.log(rp) + (v - km) * np.log1p(-rp)
                   + kp * np.log(rm) + (d - v - kp) * np.log1p(-rm))
        log_a = (_log_weight_of_sum(spec, 2.0 * v - d) - _log_weight_of_sum(spec, 2.0 * u - d)
                 + log_rev - log_fwd)
        accept = np.where((kp == 0) & (km == 0), 1.0, np.exp(np.minimum(log_a, 0.0)))
        weight = binom.pmf(kp, u, qp) * binom.pmf(km, d - u, qm)
        total += law[u] * float((weight * accept).sum())
    return total


def glauber_jump_rates(spec: dict) -> np.ndarray:
    """Stationary flip rate of each coordinate of the glauber jump process."""
    x = sign_table(dim(spec))
    rates = expit(-2.0 * x * score_table(spec, "glauber"))
    return target(spec) @ rates


def dmaps_accept_mass(spec: dict, kind: str, eta: float) -> np.ndarray:
    """Probability that a dmaps step from each state is accepted.

    Equals the row sums of `dmaps_flux` without forming the flux: for each
    auxiliary state z, sorting phi_z splits the sum over x' into moves
    accepted outright and moves accepted with probability
    exp(phi_z(x') - phi_z(x)), both read off cumulative sums.
    """
    d = dim(spec)
    x = sign_table(d)
    lw = log_weight(spec, x)
    tab = score_table(spec, kind)
    stage1 = _product_kernel(np.full((1 << d, d), expit(-2.0 / eta)))
    stage2 = _product_kernel(expit(-2.0 / eta - 2.0 * x * tab))
    mass = np.zeros(1 << d)
    for z in range(1 << d):
        phi = lw - x @ tab[z]
        order = np.argsort(phi)
        ranked = phi[order]
        top = ranked[-1]
        up = np.concatenate(([0.0], np.cumsum(stage2[z, order])))
        down = np.concatenate(([0.0], np.cumsum(stage2[z, order] * np.exp(ranked - top))))
        below = np.searchsorted(ranked, phi, side="left")
        mass += stage1[:, z] * (up[-1] - up[below] + np.exp(top - phi) * down[below])
    return mass
