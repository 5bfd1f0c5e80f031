"""Spin-1/2 chain models: exact thermal correlators and critical couplings.

Three periodic chains (sigma are Pauli matrices, site L+1 = site 1):

  xxz        H = sum_j (sx_j sx_j+1 + sy_j sy_j+1 + Delta sz_j sz_j+1)
  xxz_field  H = xxz  -  (h/2) sum_j sz_j
  xy         H = -(lam/4) sum_j [(1+gamma) sx_j sx_j+1 + (1-gamma) sy_j sy_j+1]
                 - (1/2) sum_j sz_j

The canonical ensemble rho = exp(-H/kT)/Z yields the one-site magnetization
z = <sz> and the nearest-neighbour correlators xx, yy, zz that parameterize
the pair X state.  ``thermal_solution`` picks the one exact solver for a
spec, and ``thermal_correlators`` uses it.  ``solve_grid`` solves a
sweep's whole grid of couplings with the same solvers, one point or one
free-fermion column at a time, and records each point's failure:

  * finite xy rings: the Jordan-Wigner free fermions, two boundary-condition
    sectors projected onto their fermion parity (Lieb, Schultz and Mattis,
    Ann. Phys. 16, 407 (1961); Katsura, Phys. Rev. 127, 1508 (1962)), in
    O(L^3) per point and temperature, for one coupling point or a column;
  * finite xxz chains: exact diagonalization (``diagonalize``) per symmetry
    sector, since H conserves the total magnetization.  ``build_hamiltonian``
    builds each sector as a dense numpy block on its basis states, from the
    sz diagonals and the bond flips sum_j (sx sx +- sy sy) (``_bond_flips``);
    the measured correlators are the same translation sums per eigenstate;
  * L = None: the xy thermodynamic limit, closed k-integrals of the same
    free fermions, also an oracle for the finite-L pipeline.

``diagonalize`` also solves a finite xy ring, in its two spin-flip parity
sectors; the tests and ``qcpdetect verify symmetry`` check it and the free
fermions against each other.

Critical couplings for the field-carrying xxz chain:

  Delta_1 = h/4 - 1                      (saturation line, coupling J = 1)
  h(Delta_2) = 4 sinh(eta) sum_j (-1)^j / cosh(j eta),   eta = arccosh(Delta_2)

the latter inverted numerically for Delta_2(h).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

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

# Largest finite L a ModelSpec accepts (2^L-dimensional ED stays affordable).
DEFAULT_L_MAX = 12

# Degeneracy window for the kT = 0 ground-space average, relative to
# max(1, |E0|).
GROUND_STATE_WINDOW = 1e-10

# Most (kT, point) rows a finite xy ring solves in one pass of its free
# fermions; bounds the memory of their recurrence and coefficients to a few MB.
_COLUMN_ROWS = 256


@dataclass(frozen=True)
class ModelSpec:
    """A chain family with its couplings, length, and temperature.

    ``L = None`` selects the thermodynamic limit, available only for the xy
    family (free-fermion solution).  Finite ``L`` must be even, between 4 and
    ``DEFAULT_L_MAX``: odd rings frustrate the antiferromagnet and a 2-site
    ring double-counts its single bond.  The couplings must be finite; kT may
    be inf.  A coupling the family does not read (``FAMILY_COUPLINGS``) must
    keep its default.
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
        if not (self.kT >= 0.0):
            raise ValueError(f"kT must be >= 0, got {self.kT}")
        if self.L is None:
            if self.family != "xy":
                raise ValueError("L = None (thermodynamic limit) requires family 'xy'")
        else:
            if isinstance(self.L, bool) or not isinstance(self.L, numbers.Integral):
                raise ValueError(f"L must be an integer or None, got {self.L!r}")
            if self.L % 2 != 0 or not (4 <= self.L <= DEFAULT_L_MAX):
                raise ValueError(
                    f"L must be even with 4 <= L <= {DEFAULT_L_MAX}, got {self.L}"
                )


def xxz_delta1(h: float, j: float = 1.0) -> float:
    """Saturation-line critical anisotropy: h = 4 j (1 + Delta_1)."""
    if j == 0.0:
        raise ValueError("coupling j must be nonzero")
    return h / (4.0 * j) - 1.0


def _sech(x: float) -> float:
    """Overflow-safe 1/cosh."""
    ax = abs(x)
    if ax > 700.0:
        # 2 e^-ax to double precision; the correction term underflows.
        return 2.0 * math.exp(-ax) if ax < 745.0 else 0.0
    return 1.0 / math.cosh(ax)

_POISSON_SWITCH = 1.0


def _alternating_sech_sum(eta: float) -> float:
    """S(eta) = sum_{j=-inf}^{inf} (-1)^j / cosh(j eta), for eta > 0.

    For eta >= 1 the alternating series converges quickly and is summed
    directly, truncating once a term drops below 1e-15.  For small eta the
    direct series suffers catastrophic cancellation (S is exponentially
    small), so the Poisson-resummed form

        S(eta) = (2 pi / eta) sum_{m>=0} sech((2m+1) pi^2 / (2 eta))

    is used instead; its terms fall so fast that a relative cutoff of 1e-15
    needs only a couple of them.
    """
    if eta >= _POISSON_SWITCH:
        total = 1.0
        j = 1
        while True:
            term = 2.0 * _sech(j * eta)
            if term < 1e-15:
                break
            total += term if j % 2 == 0 else -term
            j += 1
        return total
    total = 0.0
    m = 0
    while True:
        term = (2.0 * math.pi / eta) * _sech((2 * m + 1) * math.pi**2 / (2.0 * eta))
        total += term
        if term < 1e-15 * total or term == 0.0:
            break
        m += 1
    return total


def _field_of_eta(eta: float) -> float:
    """The critical field h(eta) = 4 sinh(eta) S(eta) on Delta = cosh(eta) > 1."""
    return 4.0 * math.sinh(eta) * _alternating_sech_sum(eta)


def xxz_delta2(h: float) -> float:
    """Invert h(Delta_2) for the upper critical anisotropy, h > 0.

    Bisection on eta = arccosh(Delta_2) to |h(eta) - h| < 1e-10.  Because
    h(eta) is exponentially flat near eta = 0, that residual alone would
    accept a wide range of eta for small h, so the bracket must also have
    collapsed below 1e-10 before the residual test can stop the search; for
    extreme h where an absolute 1e-10 is finer than double spacing, the
    bracket criterion alone terminates.  Raises ValueError if h does not
    bracket.
    """
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h}")
    lo, hi = 1e-8, 60.0
    f_lo, f_hi = _field_of_eta(lo) - h, _field_of_eta(hi) - h
    if not (f_lo < 0.0 < f_hi):
        raise ValueError(f"h = {h} not bracketed by eta in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _field_of_eta(mid) - h
        width = hi - lo
        if (abs(f_mid) < 1e-10 and width < 1e-10) or width < 1e-16 * max(1.0, mid):
            return math.cosh(mid)
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return math.cosh(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Exact diagonalization
# ---------------------------------------------------------------------------


def _bond_flips(basis: np.ndarray, L: int, differ_amp: float, equal_amp: float):
    """COO triplets (rows, cols, vals) of the two-bit flip on each bond
    (j, j+1) of the ring, one bond at a time, within one sector: rows and
    cols are positions in its sorted ``basis`` of states.

    The flip has amplitude ``differ_amp`` between states whose two bond bits
    differ and ``equal_amp`` between states whose bond bits agree; zero
    amplitudes give no entries, and every other flip must stay in the
    sector.  sx sx flips with (1, 1), sy sy with (1, -1), so
    sx sx + sy sy is (2, 0) and sx sx - sy sy is (0, 2).  The flip is
    symmetric, so only the states with bit j = 0 are sources: each pair of
    states appears once, and (cols, rows, vals) is the other half.
    """
    for j in range(L):
        k = (j + 1) % L
        bit_j, bit_k = (basis >> j) & 1, (basis >> k) & 1
        amp = np.where(bit_j != bit_k, differ_amp, equal_amp)
        cols = np.flatnonzero((amp != 0.0) & (bit_j == 0))
        rows = np.searchsorted(basis, basis[cols] ^ ((1 << j) | (1 << k)))
        yield rows, cols, amp[cols]


def _diagonals(states: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_j sz_j and sum_j sz_j sz_j+1 of each basis state.

    Bit j of a basis state is site j+1, and bit value 0 encodes sz = +1.
    """
    sz = 1.0 - 2.0 * ((states[:, None] >> np.arange(L)) & 1)
    return sz.sum(axis=1), (sz * np.roll(sz, -1, axis=1)).sum(axis=1)


def _sector_bases(spec: ModelSpec) -> list[np.ndarray]:
    """The sorted basis states of each block of H: total magnetization for
    the xxz families, global spin-flip parity for xy."""
    z, _ = _diagonals(np.arange(1 << spec.L, dtype=np.int64), spec.L)
    down = (spec.L - z.astype(np.int64)) // 2  # number of sz = -1 sites
    if spec.family in ("xxz", "xxz_field"):
        return [np.flatnonzero(down == m) for m in range(spec.L + 1)]
    return [np.flatnonzero(down % 2 == r) for r in (0, 1)]


def build_hamiltonian(spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """H as its symmetry-sector blocks: (basis states, dense block) pairs.

    H = c_hop hop + c_pair pair + c_zz zz + c_z z over the ring's bond sums
    hop = sum_j (sx sx + sy sy), pair = sum_j (sx sx - sy sy) and the
    diagonals of ``_diagonals``, with one row of coefficients per family;
    an ``xxz`` spec has h = 0.  pair changes the magnetization by 2, so an
    xxz sector has none.
    """
    if spec.L is None:
        raise ValueError("build_hamiltonian needs a finite L")
    if spec.family == "xy":
        c_hop, c_pair, c_zz, c_z = -spec.lam / 4, -spec.lam * spec.gamma / 4, 0.0, -0.5
    else:
        c_hop, c_pair, c_zz, c_z = 1.0, 0.0, spec.delta, -spec.h / 2
    blocks = []
    for basis in _sector_bases(spec):
        z, zz = _diagonals(basis, spec.L)
        block = np.diag(c_zz * zz + c_z * z)
        for rows, cols, vals in _bond_flips(basis, spec.L, 2 * c_hop, 2 * c_pair):
            block[rows, cols] = block[cols, rows] = vals
        blocks.append((basis, block))
    return blocks


def _thermal_weights(gap, kts, window) -> np.ndarray:
    """The weights (len(kts), *gap.shape) of levels ``gap`` >= 0 above the
    ground level: exp(-gap/kT), and at kT = 0 the equal-weight indicator of
    the ground window, gap <= ``window``.  Nothing above zero is
    exponentiated, so low temperatures cannot overflow."""
    rows = []
    for kT in kts:
        if not (kT >= 0.0):
            raise ValueError(f"kT must be >= 0, got {kT}")
        rows.append(np.exp(-gap / kT) if kT > 0.0 else (gap <= window).astype(float))
    return np.array(rows)


@dataclass
class ThermalSolution:
    """Eigendecomposition of a finite chain plus per-eigenstate observables.

    ``energies`` concatenates all symmetry sectors; ``expectations`` maps each
    correlator name to <n|O|n> aligned with ``energies``, where O is the
    correlator's bond sum divided by L (see ``diagonalize``).  Thermal weights
    are relative to the ground energy (``_thermal_weights``).
    """

    energies: np.ndarray
    expectations: dict[str, np.ndarray]
    e0: float

    def weights(self, kT: float) -> np.ndarray:
        """Unnormalized Boltzmann weights exp(-(E - E0)/kT); kT = 0 gives an
        equal-weight indicator of the ground window."""
        window = GROUND_STATE_WINDOW * max(1.0, abs(self.e0))
        return _thermal_weights(self.energies - self.e0, (kT,), window)[0]

    def correlators(self, kT: float) -> Correlators:
        w = self.weights(kT)
        norm = w.sum()
        avg = {k: float(np.dot(w, v) / norm) for k, v in self.expectations.items()}
        return Correlators(z=avg["z"], xx=avg["xx"], yy=avg["yy"], zz=avg["zz"])


def diagonalize(spec: ModelSpec) -> ThermalSolution:
    """Exactly diagonalize the blocks of ``build_hamiltonian`` and cache
    per-eigenstate observables.

    Each eigenstate stores the ring's bond sums divided by L, not the
    operators of one pair: z, zz, xx = (hop + pair) / 2L and
    yy = (hop - pair) / 2L, with pair = 0 in an xxz sector.  Every thermal
    average, the kT = 0 average over the ground window included, is a trace
    of f(H) O, and H commutes with translation, so each bond contributes the
    same trace and the bond average equals the pair (1, 2) exactly.
    """
    if spec.L is None:
        raise ValueError("diagonalize needs a finite L; use xy_thermo_correlators")
    L = spec.L

    def flip_sum(evecs, basis, differ_amp, equal_amp):
        # <n| sum_j flip_j |n>, gathered along each bond's flips; a bond
        # lists each pair of states once, so the pair counts twice
        return sum(
            2.0 * vals @ (evecs[rows] * evecs[cols])
            for rows, cols, vals in _bond_flips(basis, L, differ_amp, equal_amp)
        )

    energies = []
    expect = {name: [] for name in ("z", "xx", "yy", "zz")}
    for basis, block in build_hamiltonian(spec):
        evals, evecs = np.linalg.eigh(block)
        energies.append(evals)
        density = (evecs * evecs).T
        z, zz = _diagonals(basis, L)
        hop_n = flip_sum(evecs, basis, 2.0, 0.0)
        pair_n = flip_sum(evecs, basis, 0.0, 2.0) if spec.family == "xy" else 0.0
        expect["z"].append(density @ z / L)
        expect["zz"].append(density @ zz / L)
        expect["xx"].append((hop_n + pair_n) / (2 * L))
        expect["yy"].append((hop_n - pair_n) / (2 * L))

    energies = np.concatenate(energies)
    expectations = {k: np.concatenate(v) for k, v in expect.items()}
    return ThermalSolution(
        energies=energies,
        expectations=expectations,
        e0=float(energies.min()),
    )


def thermal_solution(
    spec: ModelSpec,
) -> ThermalSolution | FreeFermionSolution | ThermoLimitSolution:
    """The exact solver for ``spec``; its ``correlators(kT)`` serves any kT.

    L = None is the xy thermodynamic limit, a finite xy ring gets the free
    fermions, and an xxz chain is diagonalized per sector.  ``spec.kT`` is
    not read.
    """
    if spec.L is None:
        return ThermoLimitSolution(spec)
    if spec.family == "xy":
        return FreeFermionSolution(spec)
    return diagonalize(spec)


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

    The grid is solved a block at a time, and a block that fails records its
    exception at each of its points.  A finite xy ring's block is a column
    of its free fermions, at most ``_COLUMN_ROWS`` (kT, point) rows so that
    memory stays bounded on long grids.  Any other block is one point,
    solved by ``thermal_solution`` once for every kT.
    """
    kts = tuple(kts)
    points = np.asarray(values, dtype=float).tolist()
    if template.family == "xy" and template.L is not None:
        step = max(1, _COLUMN_ROWS // len(kts))

        def solve(block):
            column = FreeFermionSolution(template, **{field: block})
            return column.table(kts).transpose(2, 0, 1).tolist()
    else:
        step = 1

        def solve(block):
            solution = thermal_solution(replace(template, **{field: block[0]}))
            corrs = [solution.correlators(kT) for kT in kts]
            return [[(c.z, c.xx, c.yy, c.zz) for c in corrs]]

    rows, errors = [], []
    for i in range(0, len(points), step):
        block = points[i : i + step]
        try:
            rows += solve(block)
            error = None
        except Exception as exc:
            rows += [[(math.nan,) * 4] * len(kts)] * len(block)
            error = exc
        errors += [error] * len(block)
    return np.array(rows).transpose(1, 2, 0), errors


# ---------------------------------------------------------------------------
# xy ring at finite L (free fermions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FermionSector:
    """One boundary-condition sector of the Jordan-Wigner fermions.

    With sz = 1 - 2n the ring's even-fermion-parity states are those of
    antiperiodic fermions (Neveu-Schwarz, k = (2m+1) pi / L) and its odd
    ones those of periodic fermions (Ramond, k = 2 pi m / L).  Each sector
    is H = sum_k eps_k (n_k - 1/2) over Bogoliubov modes: with
    xi = 1 - lam cos k and D = lam gamma sin k, the paired modes have
    eps = sqrt(xi^2 + D^2) >= 0, while k = 0, k = pi and, at gamma = 0,
    every mode keep the signed eps = xi, so a mode with eps < 0 is filled in
    the sector vacuum.  A Fock state of the modes with tau_k = 1 - 2 n_k
    has, with u_k = (xi - iD) / eps (1 for unpaired modes) and
    h(r) = (1/L) sum_k u_k e^{ikr} tau_k,

      z = h(0),  xx = -h(-1),  yy = -h(1),
      zz = (1/L^2) sum_{k != k'} u_k u_k' (1 - e^{i(k-k')}) tau_k tau_k'

    (Wick's theorem; the k = k' terms vanish identically, so zz is linear
    in each tau).  ``coefficients`` holds these as a (4, 1 + L + L^2)
    matrix acting on the sums [1, tau_k, tau_k tau_k'] over the sector's
    states.

    ``build`` takes lam and gamma as floats or as arrays that broadcast
    together, a column of couplings; ``eps`` is then (..., L) and
    ``coefficients`` (..., 4, 1 + L + L^2), one sector per point.
    """

    parity: int  # fermion parity of the sector's states: 0 NS, 1 R
    eps: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def build(cls, parity: int, L: int, lam, gamma) -> _FermionSector:
        lam, gamma = np.broadcast_arrays(np.asarray(lam, float), np.asarray(gamma, float))
        m = np.arange(L)
        k = (2 * m + 1 - parity) * math.pi / L
        xi = 1.0 - lam[..., None] * np.cos(k)
        delta = np.multiply(lam, gamma)[..., None] * np.sin(k)
        unpaired = np.repeat((gamma == 0.0)[..., None], L, axis=-1)
        if parity == 1:
            unpaired[..., [0, L // 2]] = True  # k = 0 and k = pi
        delta[unpaired] = 0.0
        eps = np.where(unpaired, xi, np.hypot(xi, delta))
        u = np.ones(xi.shape, dtype=complex)
        paired = ~unpaired
        u[paired] = (xi[paired] - 1j * delta[paired]) / eps[paired]
        phase = np.exp(1j * k)
        coef = np.zeros((*lam.shape, 4, 1 + L + L * L), dtype=complex)
        coef[..., 0, 1 : L + 1] = u / L
        coef[..., 1, 1 : L + 1] = -u / phase / L
        coef[..., 2, 1 : L + 1] = -u * phase / L
        pairs = u[..., :, None] * u[..., None, :] * (1.0 - np.outer(phase, 1.0 / phase))
        coef[..., 3, L + 1 :] = (pairs / L**2).reshape(*lam.shape, L * L)
        return cls(parity, eps, coef)

    @property
    def vacuum_energy(self) -> np.ndarray:
        return -0.5 * np.abs(self.eps).sum(axis=-1)


def _tau_insertions(L: int) -> np.ndarray:
    """Signs (1 + L + L^2, L) on each mode's filled weight: row 0 none, then
    -1 at mode k, then -1 at modes k and k' (once on the diagonal)."""
    eye = np.eye(L, dtype=bool)
    pairs = (eye[:, None, :] | eye[None, :, :]).reshape(L * L, L)
    flips = np.vstack([np.zeros((1, L), dtype=bool), eye, pairs])
    return np.where(flips, -1.0, 1.0)


class FreeFermionSolution:
    """Exact thermal correlators of a finite xy ring from its free fermions,
    at one coupling point or over a column of them.

    ``FreeFermionSolution(spec)`` solves the ring of ``spec``;
    ``FreeFermionSolution(spec, lam=values)`` (or ``gamma=values``) solves
    the rings of a column, every point the spec with that coupling
    replaced.  A spec alone is a column of one point: both run the same
    array code, which handles every point at every temperature in one pass.

    The thermal trace runs over each sector's Fock states of its own
    parity.  Per mode, the empty and filled states carry Boltzmann weights
    relative to the sector vacuum (1 and exp(-|eps|/kT), swapped for a mode
    filled in the vacuum).  A two-component recurrence over the modes sums
    the weights of the even and the odd states separately, so the parity
    projection never subtracts two nearly equal products, and inserting
    tau_k = 1 - 2 n_k only flips the sign of a filled weight, so no mode
    factor is ever divided out: the exact zero modes (the Ramond k = 0 mode
    at lam = 1, gamma = 0 modes at cos k = 1/lam) stay finite.  Sectors add
    with the weights exp(-(E_vac - E_min)/kT) of their vacuum energies.

    kT = 0 averages the ground space with equal weights, as
    ``ThermalSolution.weights`` does: modes with |eps| within the window
    ``GROUND_STATE_WINDOW * max(1, |E_min|)`` are zero modes, free to be
    empty or filled, and a sector counts when its vacuum energy lies within
    the window of E_min.  The NS vacuum is always even (L is even, so the NS
    modes come in +-k pairs of equal eps); the R vacuum is odd, as its
    sector needs, for |lam| > 1 and even for |lam| < 1, where its energy
    never lies below the NS vacuum (tests/test_models.py checks this on a
    grid).  A wrong-parity sector without zero modes that counts then adds
    exactly zero, so the sectors' vacua are all a kT = 0 average needs.

    Memory grows as (points) x L^2 for the sectors and as (temperatures x
    points) x L^2 for the recurrence, so a caller with a long column hands
    it over in blocks (``solve_grid`` does, of at most ``_COLUMN_ROWS``
    rows).
    """

    def __init__(self, spec: ModelSpec, **column):
        if spec.family != "xy" or spec.L is None:
            raise ValueError("FreeFermionSolution needs a finite xy ring")
        couplings = {"lam": spec.lam, "gamma": spec.gamma}
        for name, values in column.items():
            if name not in couplings:
                raise TypeError(f"a column replaces lam or gamma, not {name!r}")
            values = np.asarray(values, dtype=float)
            if values.ndim != 1 or not np.isfinite(values).all():
                raise ValueError(f"{name} must be a 1-d array of finite values")
            couplings[name] = values
        self.sectors = tuple(
            _FermionSector.build(parity, spec.L, couplings["lam"], couplings["gamma"])
            for parity in (0, 1)
        )
        self._insertions = _tau_insertions(spec.L)

    def _parity_sums(
        self, sector: _FermionSector, empty_weight: np.ndarray, filled_weight: np.ndarray
    ) -> np.ndarray:
        """Sums over the sector's states of [1, tau_k, tau_k tau_k'] x weight,
        (..., 1 + L + L^2) for the mode weights (..., L) of each row."""
        even = np.ones((*empty_weight.shape[:-1], self._insertions.shape[0]))
        odd = np.zeros(even.shape)
        filled = np.empty(even.shape)
        odd_filled = np.empty(even.shape)
        # even, odd <- even * empty + odd * filled, even * filled + odd * empty,
        # updated in place: no array is allocated per mode.
        for q, signs in enumerate(self._insertions.T):
            empty = empty_weight[..., q, None]
            np.multiply(signs, filled_weight[..., q, None], out=filled)
            np.multiply(odd, filled, out=odd_filled)
            np.multiply(even, filled, out=filled)
            np.multiply(even, empty, out=even)
            np.add(even, odd_filled, out=even)
            np.multiply(odd, empty, out=odd)
            np.add(filled, odd, out=odd)
        return odd if sector.parity else even

    def table(self, kts) -> np.ndarray:
        """The correlators z, xx, yy, zz at every kT in ``kts``: an array
        (len(kts), 4) for a spec alone, (len(kts), 4, points) for a column."""
        kts = tuple(kts)
        vacuum = [s.vacuum_energy for s in self.sectors]
        e_min = np.minimum(*vacuum)
        window = GROUND_STATE_WINDOW * np.maximum(1.0, np.abs(e_min))
        rows = (len(kts), *e_min.shape)
        norm = np.zeros(rows)
        total = np.zeros((*rows, 4))
        for sector, e_vac in zip(self.sectors, vacuum):
            scale = _thermal_weights(e_vac - e_min, kts, window)
            excited = _thermal_weights(np.abs(sector.eps), kts, window[..., None])
            in_vacuum = sector.eps < 0.0
            sums = self._parity_sums(
                sector,
                np.where(in_vacuum, excited, 1.0),
                np.where(in_vacuum, 1.0, excited),
            )
            # A sector of weight 0 adds exact zeros: its sums are finite.
            norm += scale * sums[..., 0]
            # matmul, not einsum: each row then sums as coefficients @ sums
            # of one point does, to the last bit.
            moments = np.matmul(sector.coefficients, sums[..., None])[..., 0]
            total += scale[..., None] * moments.real
        return np.moveaxis(total / norm[..., None], -1, 1)

    def correlators(self, kT: float) -> Correlators:
        """The correlators at one kT; over a column, each field lists the
        points' values."""
        return Correlators(*self.table((kT,))[0].tolist())


# ---------------------------------------------------------------------------
# xy chain in the thermodynamic limit (free fermions)
# ---------------------------------------------------------------------------


class _NodeTable(dict):
    """k -> one k-integrand's value at the node k.  ``evaluate(k)``
    evaluates a node and stores its value; reading a node not in the table
    evaluates it first."""

    __slots__ = ("evaluate",)

    def __missing__(self, k: float) -> float:
        self.evaluate(k)
        return self[k]


def _xy_integrals(lam: float, gamma: float, kT: float) -> tuple[float, float, float]:
    """The three k-integrals behind the xy correlators.

    With xi(k) = 1 - lam cos k, D(k) = lam gamma sin k, E = sqrt(xi^2 + D^2)
    and t(k) = tanh(E / (2 kT)) (t = 1 at kT = 0):

      z  = (1/pi) int_0^pi (xi/E) t dk
      Ic = (1/pi) int_0^pi cos(k) (xi/E) t dk
      Is = (1/pi) int_0^pi sin(k) (D /E) t dk

    The three adaptive quadratures ask for nearly the same nodes, so one
    node body evaluates all three integrands at once: it is the z
    integrand, and it stores the Ic and Is values in two tables local to
    this call, keyed on k.  The Ic and Is quadratures integrate the tables'
    bound ``__getitem__``, so a node the z integral asked for costs them a
    C-level dict lookup and no Python frame; a node it never asked for is
    evaluated on the read (on the ``ising_thermo`` benchmark grid, 170,205
    evaluations for 483,609 callbacks).  Every value, and so every QUADPACK
    path and result, is the same as with one integrand function per
    integral, so the miss of ``xy_thermo_correlators`` at lam = 0.961
    remains.
    """
    cos, sin, hypot, tanh = math.cos, math.sin, math.hypot, math.tanh
    lam_gamma = lam * gamma
    ic_table, is_table = _NodeTable(), _NodeTable()

    def node(k: float) -> float:
        cos_k = cos(k)
        sin_k = sin(k)
        xi = 1.0 - lam * cos_k
        dd = lam_gamma * sin_k
        en = hypot(xi, dd)
        if en < 1e-300:
            ic_table[k] = is_table[k] = 0.0
            return 0.0
        t = tanh(0.5 * en / kT) if kT else 1.0
        z = xi / en * t
        ic_table[k] = cos_k * z
        is_table[k] = sin_k * (dd / en * t)
        return z

    ic_table.evaluate = is_table.evaluate = node

    # Interior zero of xi (a gap closing when gamma = 0, a near-kink
    # otherwise): hand it to the quadrature as a breakpoint.
    points = None
    if abs(lam) > 1.0:
        k0 = math.acos(1.0 / lam) if lam > 0 else math.acos(-1.0 / abs(lam))
        if 1e-12 < k0 < math.pi - 1e-12:
            points = [k0]

    import scipy.integrate  # the package's only scipy use; loaded on demand

    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=200, points=points)
    try:
        return tuple(
            scipy.integrate.quad(f, 0.0, math.pi, **opts)[0] / math.pi
            for f in (node, ic_table.__getitem__, is_table.__getitem__)
        )
    finally:
        # node and the tables refer to each other: free them without the
        # cyclic garbage collector.
        del ic_table.evaluate, is_table.evaluate


@dataclass(frozen=True)
class ThermoLimitSolution:
    """The L = None xy ring, shaped like the finite-L solutions."""

    spec: ModelSpec

    def correlators(self, kT: float) -> Correlators:
        return xy_thermo_correlators(self.spec.lam, self.spec.gamma, kT)


def xy_thermo_correlators(lam: float, gamma: float, kT: float) -> Correlators:
    """Thermodynamic-limit xy correlators from the free-fermion solution.

    xx = Is - Ic, yy = -Is - Ic, zz = z^2 - xx yy, with the integrals of
    ``_xy_integrals``, each by adaptive quadrature (QUADPACK ``quad``) asked
    for epsabs = epsrel = 1e-10 for all kT >= 0; the three share their
    integrand evaluations node by node, the Ic and Is integrals reading the
    values the z integrand stored.  The tolerance is a request, not a
    bound: at lam = 0.961, gamma = 1, kT = 0.05, z is off by 2.7e-10.
    """
    if not (kT >= 0.0):
        raise ValueError(f"kT must be >= 0, got {kT}")
    z, ic, is_ = _xy_integrals(lam, gamma, kT)
    xx = is_ - ic
    yy = -is_ - ic
    return Correlators(z=z, xx=xx, yy=yy, zz=z * z - xx * yy)
