"""Check benchmark outputs against the stored reference outputs.

Every column is compared row by row.  The correlators carry the gate,
|got - ref| <= CORR_TOL = 1e-10.  Each detector tolerance is derived from
that gate:

* An X-state parameter a, b, c, d, e is a linear combination of the
  correlators with coefficients summing to at most 1 in magnitude, so it
  moves by at most PARAM_TOL = CORR_TOL.
* A coherence eigenvalue alpha is quadratic in the parameters; its
  parameter derivatives sum to less than 20, so it moves by at most
  ALPHA_TOL = 20 PARAM_TOL.
* f(x) = x ln x moves by at most dx (1 - ln dx) on [0, 1] when x moves by
  dx.  The discord is a sum of 12 such terms whose arguments (eigenvalues
  of 2x2 blocks) move by at most 4 PARAM_TOL; the minimum over theta of a
  function moves no more than the function.  The coherence entropy is a
  sum of 4 such terms in |alpha|.
* The log spectrum sums -ln max(|alpha|, EPS_DIVERGENCE), so a row whose
  smallest |alpha| is m may move by 4 ALPHA_TOL / max(m - ALPHA_TOL,
  EPS_DIVERGENCE).  Near a divergence the value is ill-conditioned and the
  divergence flag carries the check.
* F_ext and D_int are maxima and minima of expressions whose parameter
  derivatives sum to at most 2 and 32.

Every numeric comparison also allows for the 12 significant digits of the
CSV format.  Discrete outputs must match exactly, with these tie
exemptions, judged with the independent formulas below at the reference
correlators:

* theta_star may move by more than THETA_TOL (the discord's refinement
  tolerance) only where S~ is flat: S~ at both angles agrees to QD_TOL.
* A divergence flag may flip only where the smallest |alpha| lies within
  ALPHA_TOL of EPS_DIVERGENCE.
* A branch label may change only where the two branches' candidate values
  agree to the branch's tolerance.

The oracles outputs are compared to rounding, ROUND_TOL: the closed forms
and the brute-force oracles must keep their grids and refinement, so a
change that coarsens an oracle's grid shows even where it stays within the
criterion-3 tolerances.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

CORR_TOL = 1e-10
THETA_TOL = 1e-9
EPS_DIVERGENCE = 1e-12
CSV_REL_ROUNDING = 1e-11
ROUND_TOL = 1e-12

PARAM_TOL = CORR_TOL
ALPHA_TOL = 20.0 * PARAM_TOL
FMAX_TOL = 2.0 * PARAM_TOL
DMIN_TOL = 32.0 * PARAM_TOL


def _xlogx_shift(dx: float) -> float:
    """Largest change of x ln x on [0, 1] when x moves by dx < 1."""
    return dx * (1.0 - math.log(dx))


QD_TOL = 12.0 * _xlogx_shift(4.0 * PARAM_TOL)
SQC_TOL = 4.0 * _xlogx_shift(ALPHA_TOL)

CORRELATORS = ("z", "xx", "yy", "zz")
AXES = ("x", "y", "z")


def _xlogx(p: float) -> float:
    p = min(max(p, 0.0), 1.0)
    return p * math.log(p) if p > 0.0 else 0.0


def xstate_params(z: float, xx: float, yy: float, zz: float) -> tuple[float, ...]:
    """(a, b, c, d, e) of the nearest-neighbour X state."""
    return (
        0.25 * (1.0 + 2.0 * z + zz),
        0.25 * (1.0 - zz),
        0.25 * (xx + yy),
        0.25 * (1.0 - 2.0 * z + zz),
        0.25 * (xx - yy),
    )


def min_abs_alpha(p: tuple[float, ...], axis: str) -> float:
    """Smallest |alpha| of the coherence spectrum on one axis."""
    a, b, c, d, e = p
    if axis == "z":
        return min(4.0 * c * c, 4.0 * e * e)
    off = c - (1.0 if axis == "x" else -1.0) * e
    root = math.sqrt((a - d) ** 2 + 4.0 * off**2)
    base = (a - b) ** 2 + (b - d) ** 2 + 2.0 * off**2
    tilt = (a - 2.0 * b + d) * root
    return min(abs(min(-0.5 * (base + s * tilt), 0.0)) for s in (1.0, -1.0))


def s_tilde(p: tuple[float, ...], theta: float) -> float:
    """Measured conditional entropy S~(theta) of the discord."""
    a, b, c, d, e = p
    ct, st = math.cos(theta), math.sin(theta)
    zdiff, zmid, off = a - d, a - 2.0 * b + d, abs(c) + abs(e)
    r12 = math.sqrt((zdiff + zmid * ct) ** 2 + 4.0 * off**2 * st**2)
    r34 = math.sqrt((zdiff - zmid * ct) ** 2 + 4.0 * off**2 * st**2)
    outer = _xlogx(0.5 * (1.0 + zdiff * ct)) + _xlogx(0.5 * (1.0 - zdiff * ct))
    inner = sum(
        _xlogx(0.25 * (1.0 + sign * zdiff * ct + pm * r))
        for sign, r in ((1.0, r12), (-1.0, r34))
        for pm in (1.0, -1.0)
    )
    return outer - inner


def fmax_candidates(p: tuple[float, ...]) -> dict[str, float]:
    a, b, c, d, e = p
    return {"xx": 0.5 + abs(c + e), "yy": 0.5 + abs(c - e), "zz": max(2 * b, 1 - 2 * b)}


def dmin_candidates(p: tuple[float, ...]) -> dict[str, float]:
    a, b, c, d, e = p
    bd = b + d
    base = 2.0 * b + d - bd * bd
    gap = abs(bd * bd - d)
    return {"1-D-": 1.0 - (base - gap), "D+": base + gap}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, ref: str, tol: float) -> bool:
    g, r = float(got), float(ref)
    if math.isnan(g) or math.isnan(r):
        return math.isnan(g) and math.isnan(r)
    return abs(g - r) <= tol + CSV_REL_ROUNDING * max(abs(g), abs(r))


def row_mismatches(got: dict[str, str], ref: dict[str, str]) -> list[str]:
    """Columns of one sweep row that differ from the reference beyond tolerance."""
    bad = [k for k in ("param", "kT") if got[k] != ref[k]]
    if any(math.isnan(float(ref[k])) for k in CORRELATORS):
        # A failed point in the reference: every column must match exactly.
        return bad + [k for k in ref if got[k] != ref[k]]
    bad += [k for k in CORRELATORS if not _close(got[k], ref[k], CORR_TOL)]
    p = xstate_params(*(float(ref[k]) for k in CORRELATORS))

    if not _close(got["qd"], ref["qd"], QD_TOL):
        bad.append("qd")
    if not _close(got["theta_star"], ref["theta_star"], THETA_TOL):
        flat = abs(
            s_tilde(p, float(got["theta_star"])) - s_tilde(p, float(ref["theta_star"]))
        )
        if not flat <= QD_TOL:
            bad.append("theta_star")
    for axis in AXES:
        m = min_abs_alpha(p, axis)
        if not _close(got[f"sqc_{axis}"], ref[f"sqc_{axis}"], SQC_TOL):
            bad.append(f"sqc_{axis}")
        lqc_tol = 4.0 * ALPHA_TOL / max(m - ALPHA_TOL, EPS_DIVERGENCE)
        if not _close(got[f"lqc_{axis}"], ref[f"lqc_{axis}"], lqc_tol):
            bad.append(f"lqc_{axis}")
        flag = f"lqc_{axis}_divergent"
        if got[flag] != ref[flag] and abs(m - EPS_DIVERGENCE) > ALPHA_TOL:
            bad.append(flag)
    for value, branch, tol, candidates in (
        ("fmax_ext", "fmax_branch", FMAX_TOL, fmax_candidates(p)),
        ("dmin_int", "dmin_branch", DMIN_TOL, dmin_candidates(p)),
    ):
        if not _close(got[value], ref[value], tol):
            bad.append(value)
        g, r = got[branch], ref[branch]
        if g != r and not (
            g in candidates and abs(candidates[g] - candidates[r]) <= tol
        ):
            bad.append(branch)
    return bad


def compare_sweep_csv(got_path: Path, ref_path: Path) -> tuple[int, int, list[str]]:
    """(rows compared, rows failing, messages) for one sweep CSV.

    A row fails when it marks a failed grid point or a column differs from
    the reference beyond tolerance; a missing or extra row fails too.
    """
    got, ref = read_csv(got_path), read_csv(ref_path)
    messages = []
    failing = abs(len(got) - len(ref))
    if failing:
        messages.append(f"{got_path.name}: {len(got)} rows, reference has {len(ref)}")
    for g, r in zip(got, ref):
        bad = row_mismatches(g, r)
        if bad:
            failing += 1
            messages.append(f"{got_path.name} param={r['param']}: {', '.join(bad)}")
    return max(len(got), len(ref)), failing, messages


def oracle_mismatches(got, ref) -> list[str]:
    """Outputs of one oracles state that differ from the reference beyond ROUND_TOL.

    A random state's outputs are a dict of numbers and lists; a product
    state's output is its bare qd.
    """
    if not isinstance(ref, dict):
        got, ref = {"qd": got}, {"qd": ref}
    return [key for key, r in ref.items() if not _round_equal(got[key], r)]


def _round_equal(got, ref) -> bool:
    gs, rs = (got, ref) if isinstance(ref, list) else ([got], [ref])
    return len(gs) == len(rs) and all(abs(g - r) <= ROUND_TOL for g, r in zip(gs, rs))
