import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qcpdetect import teleport
from qcpdetect.teleport import (
    BELL_LABELS,
    CORRECTION_SETS,
    InputQubit,
    OutcomeImpossibleError,
    bell_projector,
    bob_output,
    max_mean_fidelity,
    max_mean_fidelity_bruteforce,
    mean_fidelity,
    min_mean_trace_distance,
    min_mean_trace_distance_bruteforce,
    outcome_probability,
    simulate_protocol,
    trace_distance,
)
from qcpdetect.xstate import (
    Correlators,
    build_xstate,
    dense_matrix,
    make_xstate,
    reduced_single,
    sample_random_xstate,
)

SEED = 555001

# The benchmark's stored oracles outputs, one file per seed: the first 40
# random X states drawn from that seed.
ORACLES_REFERENCES = sorted(
    (Path(__file__).resolve().parents[1] / "bench" / "reference" / "oracles").glob(
        "seed_*.json"
    )
)

BELL = make_xstate(0.5, 0.0, 0.0, 0.5, 0.5)  # Phi+
SINGLET = make_xstate(0.0, 0.5, -0.5, 0.0, 0.0)  # Psi-
MIXED = make_xstate(0.25, 0.25, 0.0, 0.25, 0.0)
# Product channels |00><00| and |11><11|: two of the four outcomes are impossible.
UP_UP = make_xstate(1.0, 0.0, 0.0, 0.0, 0.0)
DOWN_DOWN = make_xstate(0.0, 0.0, 0.0, 1.0, 0.0)

INPUTS = [
    InputQubit(0.0, 0.0),  # |0>
    InputQubit(math.pi, 0.0),  # |1>
    InputQubit(math.pi / 2, 0.0),  # |+>
    InputQubit(math.pi / 2, math.pi / 2),  # |+i>
    InputQubit(1.1, 2.3),
    InputQubit(2.7, 5.1),
]


def test_bell_projectors_resolve_identity():
    total = sum(bell_projector(label) for label in BELL_LABELS)
    assert np.allclose(total, np.eye(4), atol=1e-15)
    for label in BELL_LABELS:
        p = bell_projector(label)
        assert np.allclose(p @ p, p, atol=1e-15)
        assert np.trace(p) == pytest.approx(1.0)


def _literal_projected_bob(rho1, x, label):
    """Tr_12[(P (x) 1)(rho1 (x) rho23)(P (x) 1)] for one 2x2 rho1 and one outcome."""
    proj = np.kron(bell_projector(label), np.eye(2))
    sandwiched = proj @ np.kron(rho1, dense_matrix(x)) @ proj
    return np.einsum("ajak->jk", sandwiched.reshape(4, 2, 4, 2))


def test_projected_bob_stacks_all_outcomes():
    rng = np.random.default_rng(SEED + 6)
    x = sample_random_xstate(rng)
    g = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    inputs = [
        reduced_single(x),  # real
        InputQubit(1.1, 2.3).density(),  # complex
        g @ g.conj().swapaxes(-1, -2),  # a (2, 2) stack of complex matrices
    ]
    for rho1 in inputs:
        reduced, q = teleport._projected_bob(rho1, x)
        lead = rho1.shape[:-2]
        assert reduced.shape == lead + (4, 2, 2) and q.shape == lead + (4,)
        assert reduced.dtype == rho1.dtype
        for idx in np.ndindex(lead):
            for j, label in enumerate(BELL_LABELS):
                want = _literal_projected_bob(rho1[idx], x, label)
                np.testing.assert_allclose(reduced[idx][j], want, rtol=0, atol=1e-15)
                assert q[idx][j] == pytest.approx(np.trace(want).real, abs=1e-15)


def test_correction_sets_are_row_permutations():
    # each set is the Phi+ set left-multiplied by one Pauli, so every row of
    # the table holds the four Paulis in some order
    for label in BELL_LABELS:
        ops = CORRECTION_SETS[label]
        assert len(ops) == 4
        for u in ops:
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-15)


def test_phi_plus_channel_is_perfect():
    for qubit in INPUTS:
        for j, label in enumerate(BELL_LABELS):
            q = outcome_probability(qubit, BELL, label)
            assert q == pytest.approx(0.25, abs=1e-12)
            out = bob_output(qubit, BELL, label, "phi+")
            assert np.allclose(out, qubit.density(), atol=1e-12)
        assert mean_fidelity(qubit, BELL, "phi+") == pytest.approx(1.0, abs=1e-12)


def test_singlet_channel_needs_its_own_set():
    for qubit in INPUTS:
        assert mean_fidelity(qubit, SINGLET, "psi-") == pytest.approx(1.0, abs=1e-12)
    # the mismatched set is strictly worse for a generic input
    qubit = InputQubit(1.1, 2.3)
    assert mean_fidelity(qubit, SINGLET, "phi+") < 1.0 - 1e-3


def test_maximally_mixed_channel_fidelity_half():
    for qubit in INPUTS:
        for set_label in BELL_LABELS:
            assert mean_fidelity(qubit, MIXED, set_label) == pytest.approx(
                0.5, abs=1e-12
            )


def test_max_mean_fidelity_hand_value():
    # xx=0.3, yy=0.2, zz=0.1 -> best branch (1+|xx|)/2 = 0.65
    x = build_xstate(Correlators(z=0.0, xx=0.3, yy=0.2, zz=0.1))
    res = max_mean_fidelity(x)
    assert res.value == pytest.approx(0.65, abs=1e-12)
    assert res.branch == "xx"


def test_max_mean_fidelity_bell_and_mixed():
    assert max_mean_fidelity(BELL).value == pytest.approx(1.0, abs=1e-12)
    assert max_mean_fidelity(MIXED).value == pytest.approx(0.5, abs=1e-12)


def test_ties_resolve_in_documented_order():
    # every branch ties on the maximally mixed state: fmax at 1/2 on all
    # three, and dmin's inner minimum at 1/2 on both
    fmax = max_mean_fidelity(MIXED)
    assert fmax.branch == "xx"
    dmin = min_mean_trace_distance(MIXED)
    assert dmin.branch == "1-D-"
    assert dmin.value == 0.0


def test_min_mean_trace_distance_hand_value():
    # b=0.2, d=0.1: D+ = 2b + d - (b+d)^2 + |(b+d)^2 - d| = 0.5 - 0.09 + 0.01
    # -> wait for the branch: min(1 - D-, D+) picks D+ = 0.168 here
    x = make_xstate(0.5, 0.2, 0.0, 0.1, 0.0)
    res = min_mean_trace_distance(x)
    assert res.value == pytest.approx(0.168, abs=1e-12)
    assert res.branch == "D+"


def test_min_mean_trace_distance_vanishes_at_zero_magnetization():
    # z = 0 (a = d) makes the prefactor |1 - 2(b+d)| = |a - d| vanish
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        x = sample_random_xstate(rng)
        sym = make_xstate(
            0.5 * (x.a + x.d), x.b, x.c, 0.5 * (x.a + x.d), min(x.e, 0.5 * (x.a + x.d))
        )
        assert min_mean_trace_distance(sym).value == pytest.approx(0.0, abs=1e-12)


def test_closed_forms_match_bruteforce():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(150):
        x = sample_random_xstate(rng)
        closed = max_mean_fidelity(x).value
        brute = max_mean_fidelity_bruteforce(x, n_theta=48, n_chi=96)
        assert closed == pytest.approx(brute.value, abs=1e-6)
        assert closed >= brute.grid_value - 1e-12
        dclosed = min_mean_trace_distance(x).value
        dbrute = min_mean_trace_distance_bruteforce(x)
        assert dclosed == pytest.approx(dbrute, abs=1e-9)


@pytest.mark.parametrize("path", ORACLES_REFERENCES, ids=lambda p: p.stem)
def test_bruteforce_matches_stored_oracle_outputs(path):
    # The default grid and refinement reproduce the benchmark's reference
    # outputs to rounding, so a change to either shows in the quick layer.
    want = json.loads(path.read_text())["states"]
    rng = np.random.default_rng(int(path.stem.removeprefix("seed_")))
    for ref in want:
        x = sample_random_xstate(rng)
        brute = max_mean_fidelity_bruteforce(x)
        assert abs(brute.grid_value - ref["fidelity_grid"]) <= 1e-12
        assert abs(brute.value - ref["fidelity_brute"]) <= 1e-12
        dbrute = min_mean_trace_distance_bruteforce(x)
        assert abs(dbrute - ref["trace_distance_brute"]) <= 1e-12


def test_stored_oracle_seeds_are_all_present():
    assert len(ORACLES_REFERENCES) == 11


def test_bruteforce_point_attains_its_value():
    # The literal protocol at the reported input and set gives the reported
    # value.  Sets can tie to rounding, so the labels themselves are not pinned.
    rng = np.random.default_rng(SEED + 3)
    for _ in range(200):
        x = sample_random_xstate(rng)
        brute = max_mean_fidelity_bruteforce(x)
        qubit = InputQubit(brute.theta, brute.chi)
        assert mean_fidelity(qubit, x, brute.set_label) == pytest.approx(
            brute.value, abs=1e-12
        )


def _trig(x):
    return teleport._trig_coefficients(teleport._pauli_transfer(x))


def test_fidelity_features_match_literal_protocol():
    # The six Bloch-sphere coefficients per set give the literal protocol's
    # mean fidelity at random angles, on shared and on per-set axes.
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        x = sample_random_xstate(rng)
        theta = rng.uniform(0.0, math.pi, (4, 5))
        chi = rng.uniform(0.0, 2.0 * math.pi, (4, 6))
        trig = _trig(x)
        per_set = teleport._mean_fidelities(trig, theta, chi)
        shared = teleport._mean_fidelities(trig, theta[0], chi[0])
        for s, set_label in enumerate(BELL_LABELS):
            for i, j in np.ndindex(5, 6):
                qubit = InputQubit(theta[s, i], chi[s, j])
                want = mean_fidelity(qubit, x, set_label)
                assert per_set[s, i, j] == pytest.approx(want, abs=1e-14)
                want = mean_fidelity(InputQubit(theta[0, i], chi[0, j]), x, set_label)
                assert shared[s, i, j] == pytest.approx(want, abs=1e-14)


def test_six_coefficients_are_the_transfer_matrix_on_the_bloch_sphere():
    # An identity in the transfer matrix T, so a random one checks it: F is
    # n^T T n / 4 with n = (1, Bloch vector).  A real map has no entry odd in
    # n_y, so those are zeroed.  For X states a1, b0 and b1 vanish, so only
    # such inputs reach their signs.
    rng = np.random.default_rng(SEED + 9)
    t = rng.uniform(-1.0, 1.0, (4, 4, 4))
    t[:, 2, [0, 1, 3]] = t[:, [0, 1, 3], 2] = 0.0
    theta = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 5)])
    chi = rng.uniform(0.0, 2.0 * math.pi, 5)
    values = teleport._mean_fidelities(teleport._trig_coefficients(t), theta, chi)
    for i, j in np.ndindex(7, 5):
        st, ct = math.sin(theta[i]), math.cos(theta[i])
        n = np.array([1.0, st * math.cos(chi[j]), st * math.sin(chi[j]), ct])
        np.testing.assert_allclose(values[:, i, j], 0.25 * n @ t @ n, rtol=0, atol=1e-14)


def test_pauli_transfer_and_coefficients_are_real():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(20):
        x = sample_random_xstate(rng)
        transfer = teleport._pauli_transfer(x)
        assert transfer.shape == (4, 4, 4) and transfer.dtype == np.float64
        trig = _trig(x)
        assert trig.shape == (6, 4) and trig.dtype == np.float64
    values = teleport._mean_fidelities(
        trig, rng.uniform(0.0, math.pi, 7), np.arange(5.0)
    )
    assert values.shape == (4, 7, 5) and values.dtype == np.float64


@pytest.mark.parametrize("n_theta, n_chi", [(2, 1), (3, 4), (5, 6)])
def test_bruteforce_grid_value_is_literal_grid_maximum(n_theta, n_chi):
    # theta in [0, pi] with both ends, chi in [0, 2 pi) without its end: the
    # grid maximum is the literal protocol's maximum over every grid point and
    # every set, and refinement never lowers it.
    rng = np.random.default_rng(SEED + 8)
    for _ in range(10):
        x = sample_random_xstate(rng)
        want = max(
            mean_fidelity(InputQubit(theta, chi), x, set_label)
            for theta in np.linspace(0.0, math.pi, n_theta)
            for chi in np.linspace(0.0, 2.0 * math.pi, n_chi, endpoint=False)
            for set_label in BELL_LABELS
        )
        brute = max_mean_fidelity_bruteforce(x, n_theta=n_theta, n_chi=n_chi)
        assert brute.grid_value == pytest.approx(want, abs=1e-14)
        assert brute.value >= brute.grid_value


@pytest.mark.parametrize("n_theta, n_chi", [(128, 256), (48, 96)])
def test_bruteforce_refines_to_a_4_to_the_minus_12_cell(monkeypatch, n_theta, n_chi):
    # The refinement rounds are the calls after the grid's.  Each round's
    # window spans +/- one spacing of the round before, and the last round's
    # spacing is the grid's times 4^-12 on both axes.  theta windows are
    # clipped to [0, pi], so their span is not checked and their spacing is
    # the largest step between neighbours.
    windows = []
    evaluate = teleport._mean_fidelities

    def recording(trig, theta, chi):
        windows.append((theta, chi))
        return evaluate(trig, theta, chi)

    monkeypatch.setattr(teleport, "_mean_fidelities", recording)
    max_mean_fidelity_bruteforce(
        sample_random_xstate(np.random.default_rng(SEED + 10)), n_theta, n_chi
    )
    d_theta, d_chi = math.pi / (n_theta - 1), 2.0 * math.pi / n_chi
    for theta, chi in windows[1:]:
        assert np.ptp(chi, axis=-1) == pytest.approx(2.0 * d_chi, rel=1e-6)
        d_theta = np.diff(theta, axis=-1).max()
        d_chi = np.diff(chi, axis=-1).max()
    assert len(windows) > 1
    assert d_theta == pytest.approx(math.pi / (n_theta - 1) * 4.0**-12, rel=1e-5)
    assert d_chi == pytest.approx(2.0 * math.pi / n_chi * 4.0**-12, rel=1e-5)


def test_bruteforce_value_is_the_closed_form_to_rounding():
    # Tighter than criterion 3's 1e-6: the refined value is the closed form's.
    rng = np.random.default_rng(SEED + 11)
    for _ in range(2000):
        x = sample_random_xstate(rng)
        brute = max_mean_fidelity_bruteforce(x)
        assert abs(brute.value - max_mean_fidelity(x).value) <= 1e-12


def test_bruteforce_is_order_free():
    # Nothing is kept between calls: a call at one grid size leaves the
    # result at another unchanged.
    x = sample_random_xstate(np.random.default_rng(SEED + 5))
    sizes = ((48, 96), (128, 256), (48, 96))
    small, large, again = (max_mean_fidelity_bruteforce(x, *size) for size in sizes)
    assert again == small
    assert large == max_mean_fidelity_bruteforce(x, 128, 256)


@pytest.mark.parametrize(
    "sizes, name",
    [
        ({"n_theta": 1}, "n_theta"),
        ({"n_theta": 0}, "n_theta"),
        ({"n_chi": 0}, "n_chi"),
        ({"n_theta": 128.0}, "n_theta"),
        ({"n_chi": 256.0}, "n_chi"),
        ({"n_chi": True}, "n_chi"),
        ({"n_theta": False}, "n_theta"),
    ],
)
def test_bruteforce_rejects_bad_grid_sizes(sizes, name):
    with pytest.raises(ValueError, match=name):
        max_mean_fidelity_bruteforce(BELL, **sizes)


def test_trace_distance_against_eigen_oracle():
    rng = np.random.default_rng(SEED + 2)
    rhos, sigmas, wants = [], [], []
    for _ in range(200):
        # two random qubit density matrices via normalized Wishart draws
        mats = []
        for _ in range(2):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = g @ g.conj().T
            mats.append(m / np.trace(m).real)
        want = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(mats[0] - mats[1]))))
        assert trace_distance(mats[0], mats[1]) == pytest.approx(want, abs=1e-12)
        rhos.append(mats[0])
        sigmas.append(mats[1])
        wants.append(want)
    # one call on the (200, 2, 2) stacks gives the same distances
    stacked = trace_distance(np.array(rhos), np.array(sigmas))
    assert stacked.shape == (200,)
    np.testing.assert_allclose(stacked, wants, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bell_projector("phi"),
        lambda: outcome_probability(InputQubit(1.0, 0.5), BELL, "phi"),
        lambda: bob_output(InputQubit(1.0, 0.5), BELL, "phi", "phi+"),
        lambda: bob_output(InputQubit(1.0, 0.5), BELL, "phi+", "phi"),
        lambda: mean_fidelity(InputQubit(1.0, 0.5), BELL, "phi"),
        lambda: simulate_protocol(BELL, InputQubit(1.0, 0.5), "phi", runs=10, seed=0),
    ],
    ids=[
        "bell_projector",
        "outcome_probability",
        "bob_output-outcome",
        "bob_output-set",
        "mean_fidelity",
        "simulate_protocol",
    ],
)
def test_unknown_bell_label_is_a_value_error_naming_the_labels(call):
    with pytest.raises(ValueError, match=re.escape(f"must be one of {BELL_LABELS}")):
        call()


def test_impossible_outcome_raises():
    # chain pair |00><00|: Bob's qubit is |0>, so measuring the input |1>
    # against it can never yield phi+
    pure = make_xstate(1.0, 0.0, 0.0, 0.0, 0.0)
    one = InputQubit(math.pi, 0.0)
    assert outcome_probability(one, pure, "phi+") == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(OutcomeImpossibleError):
        bob_output(one, pure, "phi+", "phi+")


@pytest.mark.parametrize(
    "channel, ket, theta",
    [(UP_UP, (1.0, 0.0), 0.0), (DOWN_DOWN, (0.0, 1.0), math.pi)],
    ids=["00", "11"],
)
def test_impossible_outcomes_are_masked_not_divided(channel, ket, theta):
    # The basis input that matches the channel's qubits (the internal
    # protocol's own input) leaves two outcomes impossible: exactly as the
    # ket, about 1e-33 as an InputQubit at theta = pi.
    inputs = (np.array(ket), InputQubit(theta, 0.0))
    with np.errstate(all="raise"):
        dbrute = min_mean_trace_distance_bruteforce(channel)
        results = [
            (qubit, s, simulate_protocol(channel, qubit, s, runs=2000, seed=11))
            for qubit in inputs
            for s in BELL_LABELS
        ]
    assert isinstance(dbrute, float)
    assert dbrute == pytest.approx(min_mean_trace_distance(channel).value, abs=1e-12)
    for qubit, set_label, res in results:
        weights = [outcome_probability(qubit, channel, label) for label in BELL_LABELS]
        impossible = np.array(weights) < 1e-15
        assert impossible.sum() == 2
        assert np.all(res.counts[impossible] == 0) and res.counts.sum() == 2000
        # Bob holds the input's basis state already, so every set either
        # returns it (F = 1, D = 0) or flips it (F = 0, D = 1) per outcome.
        assert res.mean_fidelity + res.mean_trace_distance == pytest.approx(1.0)
        assert res.mean_fidelity == pytest.approx(
            mean_fidelity(qubit, channel, set_label), abs=1e-12
        )


def test_simulation_deterministic_and_convergent():
    x = build_xstate(Correlators(z=0.2, xx=-0.3, yy=-0.3, zz=0.25))
    qubit = InputQubit(1.0, 0.5)
    r1 = simulate_protocol(x, qubit, "phi+", runs=40000, seed=99)
    r2 = simulate_protocol(x, qubit, "phi+", runs=40000, seed=99)
    assert np.array_equal(r1.counts, r2.counts)
    assert r1.mean_fidelity == r2.mean_fidelity
    r3 = simulate_protocol(x, qubit, "phi+", runs=40000, seed=100)
    assert not np.array_equal(r1.counts, r3.counts)

    analytic = mean_fidelity(qubit, x, "phi+")
    assert abs(r1.mean_fidelity - analytic) < 4.0 * r1.stderr_fidelity + 1e-12
    assert int(r1.counts.sum()) == 40000


def test_simulated_fidelity_is_the_pure_input_overlap():
    # Every Bob state of the maximally mixed channel is 1/2, so each outcome's
    # <psi|rho_Bj|psi> is 1/2; a det(rho_in) term rounding above 0 for a pure
    # input would add up to ~1e-8 through its square root.
    rng = np.random.default_rng(31)
    for _ in range(20):
        qubit = InputQubit(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        res = simulate_protocol(MIXED, qubit, "phi+", runs=100, seed=0)
        assert abs(res.mean_fidelity - 0.5) <= 1e-15, qubit


def test_simulation_runs_must_be_positive_and_one_run_has_no_spread():
    qubit = InputQubit(1.0, 0.5)
    with pytest.raises(ValueError, match="runs must be >= 1"):
        simulate_protocol(BELL, qubit, "phi+", runs=0, seed=0)
    res = simulate_protocol(SINGLET, qubit, "phi+", runs=1, seed=0)
    assert int(res.counts.sum()) == 1
    assert res.stderr_fidelity == 0.0 and res.stderr_trace_distance == 0.0


def test_input_may_be_a_ket_but_no_other_shape():
    qubit = InputQubit(1.1, 2.3)
    x = build_xstate(Correlators(z=0.1, xx=-0.4, yy=-0.2, zz=0.3))
    for set_label in BELL_LABELS:
        assert mean_fidelity(qubit.ket(), x, set_label) == mean_fidelity(
            qubit, x, set_label
        )
    for label in BELL_LABELS:
        assert outcome_probability(qubit.ket(), x, label) == outcome_probability(
            qubit, x, label
        )
    with pytest.raises(ValueError, match=re.escape("InputQubit or ket (2,); got shape (3,)")):
        mean_fidelity(np.ones(3), x, "phi+")


def test_input_must_be_pure_and_normalized():
    # A mixed or unnormalized input has no fidelity to report: [1, 1] has
    # squared norm 2 and once gave mean fidelity 4 through a perfect channel.
    x = build_xstate(Correlators(z=0.1, xx=-0.4, yy=-0.2, zz=0.3))
    shape = re.escape("InputQubit or ket (2,); got shape (2, 2)")
    norm = "must be normalized; its squared norm is 2"
    for state, message in [(np.eye(2) / 2, shape), (np.array([1.0, 1.0]), norm)]:
        for call in (
            lambda: mean_fidelity(state, BELL, "phi+"),
            lambda: outcome_probability(state, x, "phi+"),
            lambda: bob_output(state, x, "phi+", "phi+"),
            lambda: simulate_protocol(BELL, state, "phi+", runs=10, seed=0),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    # a ket within 1e-12 of unit squared norm passes
    ket = InputQubit(1.1, 2.3).ket() * (1.0 + 4e-13)
    assert mean_fidelity(ket, BELL, "phi+") == pytest.approx(1.0, abs=1e-11)


def test_simulation_never_draws_a_zero_probability_outcome():
    # |0> through |00><00|: Alice's pair is |00>, so psi+ and psi- have Q = 0
    x = make_xstate(1.0, 0.0, 0.0, 0.0, 0.0)
    qubit = InputQubit(0.0, 0.0)
    weights = np.array([outcome_probability(qubit, x, label) for label in BELL_LABELS])
    assert np.count_nonzero(weights == 0.0) == 2
    for seed in range(5):
        res = simulate_protocol(x, qubit, "phi+", runs=3000, seed=seed)
        assert np.all(res.counts[weights == 0.0] == 0)
        assert np.all(res.counts[weights > 0.0] > 0)
        assert int(res.counts.sum()) == 3000


@pytest.mark.xfail(
    strict=True,
    reason="known defect: numpy's multinomial draws a tied pair of outcomes as "
    "a binomial with p = 1/2 +- 1 ulp and swaps their counts",
)
def test_simulation_counts_stable_under_last_bit_changes_at_ties():
    # Q is (q1, q1, q2, q2) here; moving a and d by one ulp each moves the Q
    # by one ulp and should move no count
    qubit = InputQubit(1.0, 0.0)
    x = make_xstate(0.4, 0.15, 0.0, 0.3, 0.1)
    shifted = make_xstate(np.nextafter(0.4, 1.0), 0.15, 0.0, np.nextafter(0.3, 0.0), 0.1)
    q = np.array([outcome_probability(qubit, x, label) for label in BELL_LABELS])
    q_shifted = np.array([outcome_probability(qubit, shifted, label) for label in BELL_LABELS])
    assert q[0] == q[1] and q[2] == q[3] and not np.array_equal(q, q_shifted)
    for seed in range(6):
        counts = simulate_protocol(x, qubit, "phi+", runs=500, seed=seed).counts
        again = simulate_protocol(shifted, qubit, "phi+", runs=500, seed=seed).counts
        np.testing.assert_array_equal(counts, again)
        assert int(counts.sum()) == 500


def test_simulation_stderr_scales_inverse_sqrt():
    x = build_xstate(Correlators(z=0.1, xx=-0.4, yy=-0.2, zz=0.3))
    qubit = InputQubit(2.0, 1.0)
    small = simulate_protocol(x, qubit, "phi+", runs=1000, seed=5)
    big = simulate_protocol(x, qubit, "phi+", runs=100000, seed=5)
    assert big.stderr_fidelity < small.stderr_fidelity
    ratio = small.stderr_fidelity / big.stderr_fidelity
    assert 5.0 < ratio < 20.0  # sqrt(100) = 10 up to sampling noise


def test_input_qubit_states():
    zero = InputQubit(0.0, 0.0).ket()
    assert np.allclose(zero, [1.0, 0.0], atol=1e-15)
    plus = InputQubit(math.pi / 2, 0.0).ket()
    assert np.allclose(plus, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
    rho = InputQubit(1.234, 4.321).density()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(rho, rho.conj().T, atol=1e-15)
