"""Spin-1/2 chain models: exact thermal correlators and critical couplings.

Three periodic chains (sigma are Pauli matrices, site L+1 = site 1):

  xxz        H = sum_j (sx_j sx_j+1 + sy_j sy_j+1 + Delta sz_j sz_j+1)
  xxz_field  H = xxz  -  (h/2) sum_j sz_j
  xy         H = -(lam/4) sum_j [(1+gamma) sx_j sx_j+1 + (1-gamma) sy_j sy_j+1]
                 - (1/2) sum_j sz_j

The canonical ensemble rho = exp(-H/kT)/Z yields the one-site magnetization
z = <sz> and the nearest-neighbour correlators xx, yy, zz that parameterize
the pair X state.  ``thermal_solution(spec, **column)`` picks the one exact
solver for a spec, at its point or over a column of one coupling; each
answers ``table(kts)`` at every kT at once and ``correlators(kT)`` at one.
``solve_grid`` solves a sweep's grid through ``table``, a column block at a
time, and records each point's failure:

  * finite xy rings, L <= ``_COLUMN_MODES``: the Jordan-Wigner free
    fermions (``FreeFermionSolution``), two boundary-condition sectors
    projected onto their fermion parity as two Gaussian traces (Lieb,
    Schultz and Mattis, Ann. Phys. 16, 407 (1961); Katsura, Phys. Rev. 127,
    1508 (1962)), in O(L) per point and temperature;
  * finite xxz chains, L <= ``DEFAULT_L_MAX``: exact diagonalization
    (``diagonalize``) per symmetry sector, since H conserves the total
    magnetization.  ``build_hamiltonian``
    stacks each sector's dense blocks, one per point, on its basis states,
    from the sz diagonals and the bond flips of sum_j sx sx and sum_j sy sy
    (``_bond_flips``); the measured correlators are the same translation
    sums per eigenstate;
  * L = None: the xy thermodynamic limit, closed k-integrals of the same
    free fermions (``ThermoLimitSolution``), also an oracle for the finite-L
    pipeline.

``diagonalize`` also solves an xy ring of L <= ``DEFAULT_L_MAX``, in its two
spin-flip parity sectors; the tests and ``qcpdetect verify symmetry`` check
it and the free fermions against each other.

Critical couplings for the field-carrying xxz chain:

  Delta_1 = h/4 - 1                      (saturation line, coupling J = 1)
  h(Delta_2) = 4 sinh(eta) sum_j (-1)^j / cosh(j eta),   eta = arccosh(Delta_2)

(des Cloizeaux and Gaudin, J. Math. Phys. 7, 1384 (1966)); the sum is
theta_4(e^-eta)^2, and bisection inverts the field for Delta_2(h).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .xstate import Correlators

# The couplings each family's Hamiltonian reads.  A ModelSpec keeps every
# other coupling at its default.
FAMILY_COUPLINGS = {
    "xxz": ("delta",),
    "xxz_field": ("delta", "h"),
    "xy": ("lam", "gamma"),
}
FAMILIES = tuple(FAMILY_COUPLINGS)
COUPLINGS = tuple(dict.fromkeys(c for read in FAMILY_COUPLINGS.values() for c in read))

# Largest L exact diagonalization takes (2^L-dimensional ED stays
# affordable), and so the largest L of an xxz chain.
DEFAULT_L_MAX = 12

# Degeneracy window for the kT = 0 ground-space average, relative to
# max(1, |E0|).
GROUND_STATE_WINDOW = 1e-10

# Most (kT, point, mode) entries a finite xy ring solves in one pass of its
# free fermions, and its largest L, so that one row always fits; its arrays
# are (3, rows, 2 sectors, L) at most, about a megabyte, and a failed block
# loses no more than these rows.  256 rows at L = 12.
_COLUMN_MODES = 256 * 12
# Most points the L = None xy chain solves in one pass of its k-integrals;
# its node arrays are (points, 968), a fraction of a megabyte.
_LIMIT_POINTS = 16
# Most entries an xxz block stacks per sector: the largest (half-filled)
# sector of one L = DEFAULT_L_MAX chain, about 7 MB.
_SECTOR_ENTRIES = math.comb(DEFAULT_L_MAX, DEFAULT_L_MAX // 2) ** 2


@dataclass(frozen=True)
class ModelSpec:
    """A chain family with its couplings, length, and temperature.

    ``L = None`` selects the thermodynamic limit, available only for the xy
    family (free-fermion solution).  Finite ``L`` must be even and at least
    4: odd rings frustrate the antiferromagnet and a 2-site ring
    double-counts its single bond.  Its largest value is the solver's:
    ``_COLUMN_MODES`` for an xy ring (free fermions, one row of a block) and
    ``DEFAULT_L_MAX`` for the xxz families (exact diagonalization).  The
    couplings must be finite; kT may be inf.  A coupling the family does not
    read (``FAMILY_COUPLINGS``) must keep its default.
    """

    family: str
    L: int | None
    kT: float
    delta: float = 0.0  # xxz anisotropy
    h: float = 0.0  # xxz_field longitudinal field
    lam: float = 0.0  # xy coupling strength
    gamma: float = 1.0  # xy anisotropy, any finite value; -gamma swaps xx and yy

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        defaults = {f.name: f.default for f in fields(self)}
        for name in COUPLINGS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name not in FAMILY_COUPLINGS[self.family] and value != defaults[name]:
                raise ValueError(
                    f"family {self.family!r} does not read {name} "
                    f"(got {name} = {value}, its default is {defaults[name]})"
                )
        temperatures((self.kT,))
        if self.L is None:
            if self.family != "xy":
                raise ValueError("L = None (thermodynamic limit) requires family 'xy'")
        else:
            if isinstance(self.L, bool) or not isinstance(self.L, numbers.Integral):
                raise ValueError(f"L must be an integer or None, got {self.L!r}")
            l_max = _COLUMN_MODES if self.family == "xy" else DEFAULT_L_MAX
            if self.L % 2 != 0 or not (4 <= self.L <= l_max):
                raise ValueError(
                    f"L must be even with 4 <= L <= {l_max} for family "
                    f"{self.family!r}, got {self.L}"
                )


def _couplings(spec: ModelSpec, column: dict) -> dict:
    """The couplings ``spec``'s family reads (``FAMILY_COUPLINGS``), any of
    them replaced by a column of values: floats for a spec alone, 1-d arrays
    otherwise."""
    couplings = {name: float(getattr(spec, name)) for name in FAMILY_COUPLINGS[spec.family]}
    for name, values in column.items():
        if name not in couplings:
            raise TypeError(f"a column replaces one of {tuple(couplings)}, not {name!r}")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or not np.isfinite(values).all():
            raise ValueError(f"{name} must be a 1-d array of finite values")
        couplings[name] = values
    return couplings


def temperatures(kts) -> tuple[float, ...]:
    """The temperatures ``kts`` as floats, inf allowed.  Raises ValueError
    for a negative or NaN kT and for a kT given twice (0 and -0 are one)."""
    kts = tuple(float(k) for k in kts)
    for i, k in enumerate(kts):
        if not (k >= 0.0):
            raise ValueError(f"kT must be >= 0, got {k}")
        if k in kts[:i]:
            raise ValueError(f"kT = {k} appears more than once in {kts}")
    return kts


def xxz_delta1(h: float) -> float:
    """Saturation-line critical anisotropy: h = 4 (1 + Delta_1)."""
    return h / 4.0 - 1.0


def _field_of_eta(eta: float) -> float:
    """The critical field h(eta) = 4 sinh(eta) theta_4(e^-eta)^2 on
    Delta = cosh(eta) > 1.

    theta_4^2 is the series sum_j (-1)^j / cosh(j eta) (Jacobi's dn series
    at the quarter period; Whittaker and Watson, ch. 21).  From eta = 1 up,
    theta_4 = 1 + 2 sum_n (-1)^n e^(-eta n^2); below, that sum cancels, and
    Jacobi's imaginary transformation theta_4 = 2 sqrt(pi/eta)
    sum_{n>=0} e^(-pi^2 (n+1/2)^2 / eta) is used.  Both fall as Gaussians:
    the seven and three terms kept reach rounding at every eta > 0.
    """
    if eta >= 1.0:
        theta4 = 1.0 + 2.0 * sum((-1) ** n * math.exp(-eta * n * n) for n in range(1, 8))
    else:
        gauss = sum(math.exp(-((math.pi * (n + 0.5)) ** 2) / eta) for n in range(3))
        theta4 = 2.0 * math.sqrt(math.pi / eta) * gauss
    return 4.0 * math.sinh(eta) * theta4 * theta4


def xxz_delta2(h: float) -> float:
    """Invert h(Delta_2) = 4 sinh(eta) theta_4(e^-eta)^2 for the upper
    critical anisotropy Delta_2 = cosh(eta), h > 0, by bisection on eta in
    [1e-8, 60] until the midpoint no longer lies strictly inside the
    bracket.  Raises ValueError if h does not bracket.
    """
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h}")
    lo, hi = 1e-8, 60.0
    if not (_field_of_eta(lo) < h < _field_of_eta(hi)):
        raise ValueError(f"h = {h} not bracketed by eta in [{lo}, {hi}]")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _field_of_eta(mid) < h:
            lo = mid
        else:
            hi = mid
    return math.cosh(mid)


# ---------------------------------------------------------------------------
# Exact diagonalization
# ---------------------------------------------------------------------------


def _bond_flips(basis: np.ndarray, L: int, pairs: bool):
    """(rows, cols, sy) of the two-bit flip on each bond (j, j+1) of the
    ring, one bond at a time, within one sector: rows and cols are positions
    in its sorted ``basis`` of states, and flips of two equal bond bits are
    listed only if ``pairs``.

    sx sx flips with amplitude 1, sy sy with sy = 1 where the bits differ
    and -1 where they agree.  The flip is symmetric, so only the states with
    bit j = 0 are sources: each pair of states appears once, and (cols,
    rows) is the other half.
    """
    for j in range(L):
        k = (j + 1) % L
        bit_j, bit_k = (basis >> j) & 1, (basis >> k) & 1
        hop = bit_j != bit_k
        cols = np.flatnonzero((hop | pairs) & (bit_j == 0))
        rows = np.searchsorted(basis, basis[cols] ^ ((1 << j) | (1 << k)))
        yield rows, cols, np.where(hop[cols], 1.0, -1.0)


def _diagonals(states: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_j sz_j and sum_j sz_j sz_j+1 of each basis state.

    Bit j of a basis state is site j+1, and bit value 0 encodes sz = +1.
    """
    sz = 1.0 - 2.0 * ((states[:, None] >> np.arange(L)) & 1)
    return sz.sum(axis=1), (sz * np.roll(sz, -1, axis=1)).sum(axis=1)


def _sector_bases(spec: ModelSpec) -> list[np.ndarray]:
    """The sorted basis states of each block of H: total magnetization for
    the xxz families, global spin-flip parity for xy.  The 2^L states bound
    exact diagonalization to L <= DEFAULT_L_MAX."""
    if spec.L > DEFAULT_L_MAX:
        raise ValueError(f"exact diagonalization needs L <= {DEFAULT_L_MAX}, got {spec.L}")
    z, _ = _diagonals(np.arange(1 << spec.L, dtype=np.int64), spec.L)
    down = (spec.L - z.astype(np.int64)) // 2  # number of sz = -1 sites
    if spec.family in ("xxz", "xxz_field"):
        return [np.flatnonzero(down == m) for m in range(spec.L + 1)]
    return [np.flatnonzero(down % 2 == r) for r in (0, 1)]


def build_hamiltonian(spec: ModelSpec, **column) -> list[tuple[np.ndarray, np.ndarray]]:
    """H as its symmetry-sector blocks: (basis states, dense blocks) pairs.

    H = c_xx sum_j sx sx + c_yy sum_j sy sy + c_zz zz + c_z z, the
    diagonals from ``_diagonals``, with one row of Pauli couplings per
    family, as the module docstring writes H; an ``xxz`` spec has h = 0.
    Flips of equal bits have c_xx - c_yy = 0 in an xxz sector, which lists
    none.  A spec alone gives (d, d) blocks, a column of a coupling the
    family reads (say ``delta=values``) (points, d, d).
    """
    if spec.L is None:
        raise ValueError("build_hamiltonian needs a finite L")
    c = _couplings(spec, column)
    if spec.family == "xy":
        lam, gamma = c["lam"], c["gamma"]
        pauli = (-lam * (1 + gamma) / 4, -lam * (1 - gamma) / 4, 0.0, -0.5)
    else:
        pauli = (1.0, 1.0, c["delta"], -c.get("h", 0.0) / 2)
    c_xx, c_yy, c_zz, c_z = (x[..., None] for x in np.broadcast_arrays(*pauli))
    blocks = []
    for basis in _sector_bases(spec):
        z, zz = _diagonals(basis, spec.L)
        d = basis.size
        block = np.zeros((*c_xx.shape[:-1], d, d))
        block[..., np.arange(d), np.arange(d)] = c_zz * zz + c_z * z
        for rows, cols, sy in _bond_flips(basis, spec.L, spec.family == "xy"):
            block[..., rows, cols] = block[..., cols, rows] = c_xx + c_yy * sy
        blocks.append((basis, block))
    return blocks


def _thermal_weights(gap, kts, e0) -> np.ndarray:
    """The weights (len(kts), *gap.shape) of levels ``gap`` >= 0 above the
    ground level ``e0``: exp(-gap/kT), and at kT = 0 the equal-weight
    indicator of the ground window, gap <= GROUND_STATE_WINDOW max(1, |e0|).
    Nothing above zero is exponentiated; gap/kT may overflow to inf at a
    subnormal kT, where exp(-inf) = 0 is the limit wanted."""
    kts = temperatures(kts)
    window = GROUND_STATE_WINDOW * np.maximum(1.0, np.abs(e0))
    weights = np.empty((len(kts), *gap.shape))
    with np.errstate(over="ignore"):
        for row, kT in zip(weights, kts):
            row[...] = np.exp(-gap / kT) if kT > 0.0 else gap <= window
    return weights


def _correlators(solution, kT: float) -> Correlators:
    """The one-kT row of ``solution.table``; over a column, lists of values."""
    return Correlators(*solution.table((kT,))[0].tolist())


@dataclass
class ThermalSolution:
    """Eigendecomposition of a finite chain plus per-eigenstate observables.

    ``energies`` (..., states) concatenates all symmetry sectors, with ...
    empty at one point and (points,) over a column; ``expectations``
    (4, ..., states) holds the rows z, xx, yy, zz of <n|O|n> aligned with
    them, where O is the correlator's bond sum divided by L (see
    ``diagonalize``), and ``e0`` (...) the ground energies.
    """

    energies: np.ndarray
    expectations: np.ndarray
    e0: np.ndarray

    def table(self, kts) -> np.ndarray:
        """The (len(kts), 4[, points]) z, xx, yy, zz at every kT in ``kts``."""
        e0 = np.expand_dims(self.e0, -1)
        weights = _thermal_weights(self.energies - e0, kts, e0)
        rows = [(self.expectations * w).sum(axis=-1) / w.sum(axis=-1) for w in weights]
        return np.array(rows).reshape(len(rows), 4, *self.e0.shape)

    correlators = _correlators


def diagonalize(spec: ModelSpec, **column) -> ThermalSolution:
    """Exactly diagonalize the blocks of ``build_hamiltonian(spec, **column)``,
    one batched eigh per sector, and cache per-eigenstate observables.

    Each eigenstate stores the ring's bond sums divided by L, not the
    operators of one pair: z, zz, and xx and yy gathered along the flips of
    ``_bond_flips``, where a pair of states counts twice.  Every thermal
    average, the kT = 0 average over the ground window included, is a trace
    of f(H) O, and H commutes with translation, so each bond contributes the
    same trace and the bond average equals the pair (1, 2) exactly.
    """
    if spec.L is None:
        raise ValueError("diagonalize needs a finite L; use xy_thermo_correlators")
    L = spec.L
    energies, expectations = [], []
    for basis, block in build_hamiltonian(spec, **column):
        evals, evecs = np.linalg.eigh(block)
        energies.append(evals)
        density = evecs * evecs
        z, zz = _diagonals(basis, L)
        flips = np.zeros((*evals.shape[:-1], 2, basis.size))
        for rows, cols, sy in _bond_flips(basis, L, spec.family == "xy"):
            amplitudes = np.stack([np.ones(sy.size), sy])  # sx sx, sy sy
            flips += 2.0 * amplitudes @ (evecs[..., rows, :] * evecs[..., cols, :])
        xx, yy = np.moveaxis(flips, -2, 0) / L
        expectations.append(np.stack([z @ density / L, xx, yy, zz @ density / L]))
    energies = np.concatenate(energies, axis=-1)
    return ThermalSolution(energies, np.concatenate(expectations, axis=-1), energies.min(axis=-1))


def thermal_solution(
    spec: ModelSpec, **column
) -> ThermalSolution | FreeFermionSolution | ThermoLimitSolution:
    """The exact solver for ``spec``, at its point or over a ``column`` of
    one coupling its family reads; its ``table(kts)`` serves every kT.

    L = None is the xy thermodynamic limit, a finite xy ring gets the free
    fermions, and an xxz chain is diagonalized per sector.  ``spec.kT`` is
    not read.
    """
    if spec.L is None:
        return ThermoLimitSolution(spec, **column)
    if spec.family == "xy":
        return FreeFermionSolution(spec, **column)
    return diagonalize(spec, **column)


def thermal_correlators(spec: ModelSpec) -> Correlators:
    """Canonical-ensemble correlators (z, xx, yy, zz) of a nearest-neighbour
    pair; by translation invariance every pair gives the same ones."""
    return thermal_solution(spec).correlators(spec.kT)


def solve_grid(
    template: ModelSpec, field: str, values, kts
) -> tuple[np.ndarray, list[Exception | None]]:
    """The (len(kts), 4, points) z, xx, yy, zz of ``template`` with its
    coupling ``field`` set to each of ``values``, and each point's exception
    or None; a point that fails at any kT is NaN at all.

    Each column block is one ``thermal_solution(template, field=block)``,
    whose ``table`` answers every kT; only the block size, which bounds
    memory on long grids, depends on the solver: the (kT, point) rows of a
    finite xy ring that hold ``_COLUMN_MODES`` modes (at least one point),
    ``_LIMIT_POINTS`` points at L = None, and the
    points an xxz sector stacks in ``_SECTOR_ENTRIES`` (one at L =
    ``DEFAULT_L_MAX``).  A block that raises is solved again a point at a
    time, each with the bits it has in a column, so each keeps its own
    exception.
    """
    kts = tuple(kts)
    points = np.asarray(values, dtype=float)
    if template.L is None:
        step = _LIMIT_POINTS
    elif template.family == "xy":
        step = max(1, _COLUMN_MODES // (max(1, len(kts)) * template.L))
    else:
        step = _SECTOR_ENTRIES // math.comb(template.L, template.L // 2) ** 2
    out = np.full((len(kts), 4, points.size), math.nan)

    def solve(lo: int, hi: int) -> Exception | None:
        try:
            out[..., lo:hi] = thermal_solution(template, **{field: points[lo:hi]}).table(kts)
        except Exception as exc:
            return exc

    errors = [None] * points.size
    for i in range(0, points.size, step):
        if solve(i, i + step) is not None:
            for j in range(i, min(i + step, points.size)):
                errors[j] = solve(j, j + 1)
    return out, errors


# ---------------------------------------------------------------------------
# xy ring at finite L (free fermions)
# ---------------------------------------------------------------------------


class FreeFermionSolution:
    """Exact thermal correlators of a finite xy ring from its free fermions,
    at one coupling point or over a column of them (a spec alone is a column
    of one), every point and temperature in one pass.

    The Jordan-Wigner fermions have two boundary-condition sectors, stacked
    on a leading axis: Neveu-Schwarz at 0, Ramond at 1.  With sz = 1 - 2n
    the ring's even-fermion-parity states are those of antiperiodic
    fermions (NS, k = (2m+1) pi / L) and its odd ones those of periodic
    fermions (R, k = 2 pi m / L).  Each sector is H = sum_k eps_k (n_k - 1/2) over
    Bogoliubov modes: with xi = 1 - lam cos k and D = lam gamma sin k, the
    paired modes have eps = sqrt(xi^2 + D^2) >= 0, while k = 0, k = pi and,
    at gamma = 0, every mode keep the signed eps = xi, so a mode with
    eps < 0 is filled in the sector vacuum.  A Fock state of the modes with
    tau_k = 1 - 2 n_k has, with u_k = (xi - iD) / eps (1 for unpaired modes)
    and h(r) = (1/L) sum_k u_k e^{ikr} tau_k,

      z = h(0),  xx = -h(-1),  yy = -h(1),
      zz = (1/L^2) sum_{k != k'} u_k u_k' (1 - e^{i(k-k')}) tau_k tau_k'

    (Wick's theorem; the k = k' terms vanish identically).  ``amplitudes``
    (3, 2, ..., L) holds the mode amplitudes of z, xx and yy, u_k,
    -u_k e^{-ik} and -u_k e^{ik}, and zz's coefficient is
    z_k z_k' - yy_k xx_k' in them: two rank-one terms.  ``eps`` is
    (2, ..., L), with ... the column's shape.

    The thermal trace runs over each sector's Fock states of its own
    parity p, so it is (1/2)[Tr e^{-H/kT} + (-1)^p Tr (-1)^F e^{-H/kT}],
    and both traces factorize over the modes.  Per mode, the empty and
    filled states carry Boltzmann weights e, f relative to the sector vacuum
    (1 and exp(-|eps|/kT), swapped for a mode filled in the vacuum); with
    P = e + f and m = (e - f) / P, each trace is prod P times:

      plain trace      1,         with tau_k: m_k,  tau_k tau_k': m_k m_k'
      parity trace     prod m_j,  with tau_k: prod_{j != k} m_j,
                                  tau_k tau_k': prod_{j not in {k, k'}} m_j

    The plain zz sum over k != k' is z^2 - xx yy of the plain one-body sums,
    since its coefficient is two rank-one terms with a zero diagonal.  The
    parity products come from prefix and suffix products and, for the
    pairs, one running sum over the modes, so no mode factor is ever
    divided out: the exact zero modes (m = 0: the Ramond k = 0 mode at
    lam = 1, gamma = 0 modes at cos k = 1/lam) stay exact.  A row costs O(L)
    time and memory.  Sectors add with the weights exp(-(E_vac - E_min)/kT)
    of their vacuum energies times their prod P, carried as a sum of logs,
    relative to the larger sector's, so nothing overflows at any L.

    kT = 0 averages the ground space with equal weights, as ED does
    (``_thermal_weights``): modes with |eps| within the window
    ``GROUND_STATE_WINDOW * max(1, |E_min|)`` are zero modes, free to be
    empty or filled, and a sector counts when its vacuum energy lies within
    the window of E_min.  The NS vacuum is always even (L is even, so the NS
    modes come in +-k pairs of equal eps); the R vacuum is odd, as its
    sector needs, for |lam| > 1 and even for |lam| < 1, where its energy
    never lies below the NS vacuum (tests/test_models.py checks this on a
    grid).  A wrong-parity sector without zero modes that counts has every
    m = +-1 and prod m = -(-1)^p, so it adds zero to the norm and the
    one-body sums exactly and to rounding in zz: the sectors' vacua are all
    a kT = 0 average needs.

    Memory grows as (temperatures x points) x L, so a caller with a long
    column hands it over in blocks (``solve_grid`` does, of at most
    ``_COLUMN_MODES`` modes).
    """

    def __init__(self, spec: ModelSpec, **column):
        if spec.family != "xy" or spec.L is None:
            raise ValueError("FreeFermionSolution needs a finite xy ring")
        L = spec.L
        lam, gamma = np.broadcast_arrays(*_couplings(spec, column).values())
        parity = np.arange(2).reshape(2, 1)
        k = ((2 * np.arange(L) + 1 - parity) * math.pi / L).reshape(2, *[1] * lam.ndim, L)
        xi = 1.0 - lam[..., None] * np.cos(k)
        delta = np.multiply(lam, gamma)[..., None] * np.sin(k)
        unpaired = np.broadcast_to((gamma == 0.0)[..., None], xi.shape).copy()
        unpaired[1, ..., [0, L // 2]] = True  # the Ramond k = 0 and k = pi
        delta = np.where(unpaired, 0.0, delta)
        self.eps = np.where(unpaired, xi, np.hypot(xi, delta))
        u = np.where(unpaired, 1.0, (xi - 1j * delta) / np.where(unpaired, 1.0, self.eps))
        phase = np.exp(1j * k)
        self.amplitudes = np.stack([u, -u / phase, -u * phase])

    def table(self, kts) -> np.ndarray:
        """The (len(kts), 4[, points]) z, xx, yy, zz at every kT in ``kts``."""
        kts = tuple(kts)
        L = self.eps.shape[-1]
        # (-1)^parity of each sector, broadcast over the column
        sign = np.array([1.0, -1.0]).reshape(2, *[1] * (self.eps.ndim - 2))
        vacuum = -0.5 * np.abs(self.eps).sum(axis=-1)
        e_min = np.minimum(*vacuum)
        scale = _thermal_weights(vacuum - e_min, kts, e_min)
        excited = _thermal_weights(np.abs(self.eps), kts, e_min[..., None])
        # P = e + f and m = (e - f) / P of the empty and filled weights, 1 and
        # excited, swapped for a mode filled in the vacuum
        weight = 1.0 + excited
        m = np.where(self.eps < 0.0, -1.0, 1.0) * ((1.0 - excited) / weight)
        # prod_{j<k} m_j and prod_{j>k} m_j, by products only
        before = np.ones_like(m)
        np.cumprod(m[..., :-1], axis=-1, out=before[..., 1:])
        after = np.ones_like(m)
        after[..., :-1] = np.cumprod(m[..., :0:-1], axis=-1)[..., ::-1]
        # tau_k in the plain trace gives m_k; in the parity trace every other
        # mode gives m_j.  Each one-body sum is real: the k grid is symmetric.
        amplitudes = self.amplitudes[:, None]
        plain = (amplitudes.real * m).sum(axis=-1)
        one_body = plain + sign * (amplitudes.real * (before * after)).sum(axis=-1)
        # A pair k < k' in the parity trace gives prod m_j over j not in
        # {k, k'}: scanned[..., k'] sums amplitude_k prod_{j < k', j != k} m_j
        # over k < k' as one running sum, and `after` adds the j > k'.
        reach = amplitudes * before
        scanned = np.empty_like(reach)
        running = np.zeros(reach.shape[:-1], dtype=complex)
        for q in range(L):
            scanned[..., q] = running
            running = running * m[..., q] + reach[..., q]
        # The plain pairs are z^2 - xx yy of the plain sums; each parity pair
        # k < k' carries both orders of its coefficient.
        z, xx, yy = amplitudes
        pairs = (2.0 * z * scanned[0] - yy * scanned[1] - xx * scanned[2]) * after
        zz = plain[0] ** 2 - plain[1] * plain[2] + sign * pairs.sum(axis=-1).real
        # Each sector's product of P relative to the larger one, by logs:
        # 2^L overflows a float at L = 1024.
        log_weight = np.log(weight).sum(axis=-1)
        share = scale * np.exp(log_weight - log_weight.max(axis=1, keepdims=True))
        norm = (share * (1.0 + sign * (before[..., -1] * m[..., -1]))).sum(axis=1)
        moments = np.concatenate([one_body / L, zz[None] / L**2])
        return np.moveaxis((share * moments).sum(axis=2) / norm, 0, 1)

    correlators = _correlators


# ---------------------------------------------------------------------------
# xy chain in the thermodynamic limit (free fermions)
# ---------------------------------------------------------------------------


def _fermi_point(lam: float) -> float | None:
    """k0 = acos(1/lam), where xi(k) = 1 - lam cos k changes sign, for
    |lam| > 1; None for |lam| <= 1, where xi keeps its sign on [0, pi]."""
    return math.acos(1.0 / lam) if abs(lam) > 1.0 else None


def _z_integral(lam: float, gamma: float, k0: float | None, kT: float) -> float:
    """z = (1/pi) int_0^pi (xi/E) t dk by adaptive quadrature (QUADPACK
    ``quad``), asked for epsabs = epsrel = 1e-10 with the breakpoint
    ``k0 = _fermi_point(lam)``; see ``ThermoLimitSolution`` for xi, E and t.
    The tolerance is a request, not a bound: at lam = 0.961, gamma = 1,
    kT = 0.05, z is off by 2.7e-10.
    """
    cos, sin, hypot, tanh = math.cos, math.sin, math.hypot, math.tanh
    lam_gamma = lam * gamma

    def node(k: float) -> float:
        cos_k = cos(k)
        sin_k = sin(k)
        xi = 1.0 - lam * cos_k
        dd = lam_gamma * sin_k
        en = hypot(xi, dd)
        if en < 1e-300:
            return 0.0
        t = tanh(0.5 * en / kT) if kT else 1.0
        return xi / en * t

    # Interior zero of xi (a gap closing when gamma = 0, a near-kink
    # otherwise): hand it to the quadrature as a breakpoint.
    points = [k0] if k0 is not None and 1e-12 < k0 < math.pi - 1e-12 else None

    import scipy.integrate  # the package's only scipy use; loaded on demand

    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=200, points=points)
    return scipy.integrate.quad(node, 0.0, math.pi, **opts)[0] / math.pi


def _gauss_legendre(order: int) -> list[tuple[float, float]]:
    """Gauss-Legendre (node, weight) pairs on [0, 1].

    Newton's method on the Legendre polynomial P_n from the nodes
    cos(pi (i - 1/4) / (n + 1/2)) (Press et al., Numerical Recipes, 3rd ed.,
    2007, section 4.6) for the nodes x > 0 of [-1, 1], each standing for the
    pair +-x; four steps reach rounding for n <= 16.  Plain floats, since the
    rule is built on import: numpy's leggauss or eigh would load LAPACK,
    about 1 MB of resident memory, into every process that imports the
    package.
    """

    def legendre(x: float) -> tuple[float, float]:
        # P_n(x) and P_n'(x) by the three-term recurrence
        prev, p = 1.0, x
        for k in range(2, order + 1):
            prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
        return p, order * (x * p - prev) / (x * x - 1.0)

    pairs = [(0.5, 1.0 / legendre(0.0)[1] ** 2)] if order % 2 else []
    for i in range(1, order // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (order + 0.5))
        for _ in range(4):
            p, slope = legendre(x)
            x -= p / slope
        weight = 1.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)
        pairs += [(0.5 * (1.0 - x), weight), (0.5 * (1.0 + x), weight)]
    return pairs


def _graded_rule(ratio: float, orders) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [0, 1] whose
    panels shrink geometrically toward both ends (Davis and Rabinowitz,
    Methods of Numerical Integration, 2nd ed., 1984, ch. 2).

    Each half is cut at ratio^j / 2 from its end, j = 1 .. len(orders) - 1,
    and the j-th panel from the middle gets ``orders[j]`` nodes.  A panel is
    then ratio / (1 - ratio) times as far from the end as it is wide, so a
    singularity off the real axis near an end costs the same few panels at
    every scale down to the innermost width, ratio^(len(orders) - 1) / 2.
    """
    rules = {order: _gauss_legendre(order) for order in set(orders)}
    edges = [0.5 * ratio**j for j in range(len(orders))] + [0.0]  # middle to end
    near, weights = [], []
    for a, b, order in zip(edges[1:], edges, orders):
        for x, w in rules[order]:
            near.append(a + (b - a) * x)
            weights.append((b - a) * w)
    return np.array(near + [1.0 - x for x in near]), np.array(weights + weights)


# The rule of ThermoLimitSolution's Ic and Is, on each half of [0, pi]:
# ratio 0.3 over 27 panels per end, the innermost 1.3e-14 of the half.
# A panel 0.3^j as wide as the middle one needs about 0.6 j fewer nodes for
# the same absolute error, so the orders fall from 16 to 4: 484 nodes per
# half, 968 per point.
_LIMIT_RULE = _graded_rule(0.3, [max(4, 16 - 3 * j // 5) for j in range(27)])


class ThermoLimitSolution:
    """Thermal correlators of the L = None xy ring, at one coupling point or
    over a column of them, shaped like ``FreeFermionSolution``.

    With xi(k) = 1 - lam cos k, D(k) = lam gamma sin k, E = sqrt(xi^2 + D^2)
    and t(k) = tanh(E / (2 kT)) (t = 1 at kT = 0, t = 0 at kT = inf; a node
    with E = 0 adds 0), the free fermions give (Pfeuty, Ann. Phys. 57, 79
    (1970))

      z  = (1/pi) int_0^pi (xi/E) t dk
      Ic = (1/pi) int_0^pi cos(k) (xi/E) t dk
      Is = (1/pi) int_0^pi sin(k) (D /E) t dk

    and xx = Is - Ic, yy = -Is - Ic, zz = z^2 - xx yy.

    z is one adaptive quadrature per point and kT (``_z_integral``).  Ic
    and Is are one fixed rule over the whole column: [0, pi] is cut at
    k0 = ``_fermi_point(lam)`` (at pi/2 for |lam| <= 1), and each half gets
    the ``_graded_rule``, graded toward both its ends, where every sharp
    feature sits: the gap closings at k = 0 and pi and the sign change of
    xi at k0.  A node reads u, the nearer of k and pi - k, and
    q = sin^2(u/2), which is sin^2(k/2) below pi/2 and cos^2(k/2) above;
    cos k, sin k and

      xi = (1 - lam) + 2 lam sin^2(k/2) = (1 + lam) - 2 lam cos^2(k/2)

    follow from q with no cancellation near k = 0 or near k = pi.  The
    nodes, xi, D and E of a column are computed once; each kT then costs
    one tanh and two weighted sums over the column's nodes.  Memory grows
    as (points) x 968 nodes, so a caller with a long column hands it over
    in blocks (``solve_grid`` does, of ``_LIMIT_POINTS`` points).
    """

    def __init__(self, spec: ModelSpec, **column):
        if spec.family != "xy" or spec.L is not None:
            raise ValueError("ThermoLimitSolution needs the L = None xy chain")
        lam, gamma = np.broadcast_arrays(*_couplings(spec, column).values())
        self._shape = lam.shape
        pairs = zip(lam.ravel().tolist(), gamma.ravel().tolist())
        # (lam, gamma, k0) of each point, for its z quadrature
        self._points = [(x, g, _fermi_point(x)) for x, g in pairs]
        lam, gamma = lam.reshape(-1, 1, 1), gamma.reshape(-1, 1, 1)
        split = np.array([math.pi / 2 if k0 is None else k0 for _, _, k0 in self._points])
        split = split.reshape(-1, 1, 1)
        start = np.concatenate([np.zeros_like(split), split], axis=1)  # (points, 2, 1)
        width = np.concatenate([split, math.pi - split], axis=1)
        nodes, weights = _LIMIT_RULE
        k = start + width * nodes
        sign = np.where(k > 0.5 * math.pi, -1.0, 1.0)
        # u is k or pi - k, whichever is nearer 0, and q = sin^2(u/2)
        sin_half = np.sin(0.5 * np.minimum(k, math.pi - k))
        q = sin_half * sin_half
        sin_k = 2.0 * sin_half * np.sqrt(1.0 - q)
        xi = (1.0 - sign * lam) + 2.0 * sign * lam * q
        dd = (lam * gamma) * sin_k
        en = np.hypot(xi, dd)
        # a node with E = 0 adds 0
        scale = width * weights / (math.pi * np.where(en == 0.0, math.inf, en))
        moments = np.stack([sign * (1.0 - 2.0 * q) * xi, sin_k * dd])
        points = len(self._points)
        self._energy = en.reshape(points, -1)
        self._moments = (moments * scale).reshape(2, points, -1)

    def table(self, kts) -> np.ndarray:
        """The (len(kts), 4[, points]) z, xx, yy, zz at every kT in ``kts``."""
        rows = []
        for kT in temperatures(kts):
            z = np.array([_z_integral(*point, kT) for point in self._points])
            # E / 2kT overflows to inf at a subnormal kT, and tanh(inf) = 1
            with np.errstate(over="ignore"):
                t = np.tanh(self._energy / (2.0 * kT)) if kT > 0.0 else 1.0
            ic, is_ = (self._moments * t).sum(axis=-1)
            xx = is_ - ic
            yy = -is_ - ic
            rows.append([z, xx, yy, z * z - xx * yy])
        return np.array(rows).reshape(len(rows), 4, *self._shape)

    correlators = _correlators


def xy_thermo_correlators(lam: float, gamma: float, kT: float) -> Correlators:
    """Thermodynamic-limit xy correlators of one coupling point from the
    free-fermion integrals of ``ThermoLimitSolution``: z by adaptive
    quadrature, Ic and Is by its graded Gauss-Legendre rule.  A column of
    points gives each point these bits."""
    return ThermoLimitSolution(ModelSpec("xy", None, kT, lam=lam, gamma=gamma)).correlators(kT)
