import json
import math
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

# The benchmark's stored oracles outputs for its default seed, 20250818: the
# first 40 random X states drawn from that seed.
ORACLES_REFERENCE = (
    Path(__file__).resolve().parents[1]
    / "bench"
    / "reference"
    / "oracles"
    / "seed_20250818.json"
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


def test_bruteforce_matches_stored_oracle_outputs():
    # The default grid and refinement reproduce the benchmark's reference
    # outputs to rounding, so a change to either shows in the quick layer.
    want = json.loads(ORACLES_REFERENCE.read_text())["states"]
    rng = np.random.default_rng(20250818)
    for ref in want:
        x = sample_random_xstate(rng)
        brute = max_mean_fidelity_bruteforce(x)
        assert abs(brute.grid_value - ref["fidelity_grid"]) <= 1e-12
        assert abs(brute.value - ref["fidelity_brute"]) <= 1e-12
        dbrute = min_mean_trace_distance_bruteforce(x)
        assert abs(dbrute - ref["trace_distance_brute"]) <= 1e-12


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


def test_fidelity_features_match_literal_protocol():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        x = sample_random_xstate(rng)
        theta = rng.uniform(0.0, math.pi, 50)
        chi = rng.uniform(0.0, 2.0 * math.pi, 50)
        forms = teleport._fidelity_quadratic_forms(x)
        features = teleport._bloch_features(theta, chi)
        values = teleport._feature_coefficients(forms) @ features
        for s, set_label in enumerate(BELL_LABELS):
            for n in range(50):
                want = mean_fidelity(InputQubit(theta[n], chi[n]), x, set_label)
                assert values[s, n] == pytest.approx(want, abs=1e-14)


def test_fidelity_forms_and_features_are_real():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(20):
        assert teleport._fidelity_quadratic_forms(sample_random_xstate(rng)).dtype == (
            np.float64
        )
    features = teleport._bloch_features(rng.uniform(0.0, math.pi, 7), np.arange(7.0))
    assert features.shape == (10, 7) and features.dtype == np.float64
    assert teleport._grid_features(48, 96)[2].shape == (10, 48 * 96)


def test_grid_feature_cache_is_read_only_and_order_free():
    x = sample_random_xstate(np.random.default_rng(SEED + 5))
    fresh = {}
    for size in ((48, 96), (128, 256)):
        teleport._grid_features.cache_clear()
        fresh[size] = max_mean_fidelity_bruteforce(x, *size)
    teleport._grid_features.cache_clear()
    for size in ((48, 96), (128, 256), (48, 96)):
        assert max_mean_fidelity_bruteforce(x, *size) == fresh[size]
    for array in teleport._grid_features(48, 96):
        assert not array.flags.writeable


@pytest.mark.parametrize(
    "sizes, name",
    [
        ({"n_theta": 1}, "n_theta"),
        ({"n_theta": 0}, "n_theta"),
        ({"n_chi": 0}, "n_chi"),
        ({"n_theta": 128.0}, "n_theta"),
        ({"n_chi": 256.0}, "n_chi"),
    ],
)
def test_bruteforce_rejects_bad_grid_sizes(sizes, name):
    lookups = teleport._grid_features.cache_info()
    with pytest.raises(ValueError, match=name):
        max_mean_fidelity_bruteforce(BELL, **sizes)
    after = teleport._grid_features.cache_info()
    assert (after.hits, after.misses) == (lookups.hits, lookups.misses)


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


def test_impossible_outcome_raises():
    # chain pair |00><00|: Bob's qubit is |0>, so measuring the input |1>
    # against it can never yield phi+
    pure = make_xstate(1.0, 0.0, 0.0, 0.0, 0.0)
    one = InputQubit(math.pi, 0.0)
    assert outcome_probability(one, pure, "phi+") == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(OutcomeImpossibleError):
        bob_output(one, pure, "phi+", "phi+")


@pytest.mark.parametrize(
    "channel, theta", [(UP_UP, 0.0), (DOWN_DOWN, math.pi)], ids=["00", "11"]
)
def test_impossible_outcomes_are_masked_not_divided(channel, theta):
    # The basis input that matches the channel's qubits (the internal
    # protocol's own input) leaves two outcomes impossible; as an InputQubit
    # at theta = pi their weights are about 1e-33 instead of exactly 0.
    inputs = (reduced_single(channel), InputQubit(theta, 0.0))
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
