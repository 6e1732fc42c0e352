from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conesolve import (
    GammaCone,
    PreimageCone,
    cone_contains,
    in_gamma_tilde,
    in_projection,
    sigma,
    t_map,
)
from conesolve.cones import without_each
from oracles import leading_sign, ray_polynomial, sigma_bruteforce


def test_sigma_hand_values():
    assert sigma(2, [1, 2, 3]) == 11.0
    assert sigma(0, [5, -7]) == 1.0
    assert sigma(2, [1, 1, -0.5]) == pytest.approx(0.0, abs=1e-15)


def test_sigma_out_of_range():
    with pytest.raises(ValueError):
        sigma(4, [1, 2, 3])
    with pytest.raises(ValueError):
        sigma(-1, [1, 2, 3])


def test_sigma_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        lam = rng.normal(0, 2, n)
        for k in range(n + 1):
            assert sigma(k, lam) == pytest.approx(
                sigma_bruteforce(k, lam), rel=1e-12, abs=1e-12
            )


def test_sigma_batched():
    lam = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
    np.testing.assert_allclose(sigma(2, lam), [11.0, 3.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_without_each_drops_one_entry_per_row(n, batch):
    lam = np.random.default_rng(n).normal(size=batch + (n,))
    got = without_each(lam)
    assert got.shape == batch + (n, n - 1)  # n = 1: one empty row
    np.testing.assert_array_equal(
        got, np.stack([np.delete(lam, i, axis=-1) for i in range(n)], axis=-2))


def test_t_map_hand_values():
    np.testing.assert_allclose(t_map([3.0, 5.0]), [5.0, 3.0])
    np.testing.assert_allclose(t_map([2.0, 2.0, 2.0]), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(t_map([4.0, 1.0, -1.0]), [0.0, 1.5, 2.5])


def test_t_map_requires_two_dims():
    with pytest.raises(ValueError):
        t_map([1.0])


def test_gamma_membership():
    g2 = GammaCone(3, 2)
    assert not g2.contains([1, 1, -0.5])  # sigma_2 = 0 is not strictly positive
    assert GammaCone(3, 3).contains([1, 1, 1])
    assert cone_contains(PreimageCone(g2), [4, 1, -1])


def test_membership_invariances():
    rng = np.random.default_rng(1)
    cones = [GammaCone(3, k) for k in (1, 2, 3)] + [PreimageCone(GammaCone(3, 2))]
    for cone in cones:
        for _ in range(100):
            lam = rng.normal(0, 2, 3)
            inside = cone.contains(lam)
            # permutation invariance
            assert cone.contains(lam[rng.permutation(3)]) == inside
            # positive scaling invariance
            assert cone.contains(rng.uniform(0.1, 10) * lam) == inside
            # positive orthant inside, and members have positive trace
            if inside:
                assert lam.sum() > 0
        assert cone.contains(rng.uniform(0.1, 3, 3))


def test_margin_sign_matches_membership():
    rng = np.random.default_rng(2)
    cone = GammaCone(3, 2)
    for _ in range(200):
        lam = rng.normal(0.5, 1.5, 3)
        assert (cone.margin(lam) > 0) == cone.contains(lam)


def test_projection_membership():
    # Gamma_1 in n=2 projects onto all of R
    assert in_projection(GammaCone(2, 1), [-5.0])
    assert in_projection(GammaCone(2, 2), [2.0])
    assert not in_projection(GammaCone(2, 2), [-1.0])


def test_gamma_tilde():
    assert in_gamma_tilde(GammaCone(2, 2), [0.4, 0.4])
    assert not in_gamma_tilde(GammaCone(2, 2), [-0.1, 0.4])
    # Gamma_1 is so wide that every mu works
    assert in_gamma_tilde(GammaCone(2, 1), [-50.0, -50.0])


def test_projection_is_exact_near_the_boundary():
    # sigma_1(1, -1 + 1e-10) = 1e-10 > 0: inside Gamma_1, the projection of
    # Gamma_2, though sigma_2 = -1 + 1e-10 is O(1) negative
    assert in_projection(GammaCone(3, 2), (1.0, -1.0 + 1e-10))
    assert not in_projection(GammaCone(3, 2), (1.0, -1.0 - 1e-10))
    assert in_gamma_tilde(GammaCone(3, 2), (1.0, 1.0, -1.0 + 1e-10))
    # T^{-1} Gamma_3 projects onto sum(mu') > 0, T^{-1} Gamma_2 onto R^2
    assert in_projection(PreimageCone(GammaCone(3, 3)), (1.0, -1.0 + 1e-10))
    assert not in_projection(PreimageCone(GammaCone(3, 3)), (1.0, -1.0))
    assert in_projection(PreimageCone(GammaCone(3, 2)), (-5.0, -5.0))


def test_gamma_zero_is_everything():
    cone = GammaCone(2, 0)
    assert cone.contains([-3.0, -4.0]) and cone.margin([-3.0, -4.0]) == np.inf
    assert GammaCone(3, 1).projection() == cone
    with pytest.raises(ValueError):
        GammaCone(2, -1)


def _exact_in_projection(mu_prime, k, preimage):
    """(member, fragile): the leading-sign test of every sigma_j, j <= k, on
    the ray, and whether some coefficient is within 1e-12 of the terms that
    cancel in it, where float sigma can round to either side of 0."""
    member, fragile = True, False
    for j in range(1, k + 1):
        coeffs = ray_polynomial(j, mu_prime, preimage)
        scales = ray_polynomial(j, np.abs(mu_prime), preimage)
        member &= leading_sign(coeffs) > 0
        fragile |= any(0 < s and abs(a) <= 1e-12 * s for a, s in zip(coeffs, scales))
    return member, fragile


coordinates = st.floats(-10.0, 10.0).map(lambda x: round(x, 6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 4), preimage=st.booleans(),
       trace=st.one_of(st.none(), st.sampled_from([0.0, 1e-10, -1e-10])))
def test_projection_matches_exact_leading_signs(data, n, preimage, trace):
    k = data.draw(st.integers(1, n))
    mu = np.array(data.draw(st.lists(coordinates, min_size=n, max_size=n)))
    if trace is not None:  # sigma_1(mu[1:]) at or next to 0
        mu[-1] = trace - mu[1:-1].sum()
    cone = PreimageCone(GammaCone(n, k)) if preimage else GammaCone(n, k)
    exact = [_exact_in_projection(np.delete(mu, i), k, preimage) for i in range(n)]
    assume(not any(fragile for _, fragile in exact))
    assert in_projection(cone, mu[1:]) == exact[0][0]
    assert in_gamma_tilde(cone, mu) == all(member for member, _ in exact)
    batch = np.stack([mu, mu[::-1]])
    np.testing.assert_array_equal(in_gamma_tilde(cone, batch), in_gamma_tilde(cone, mu))


def test_t_map_sums_the_other_entries():
    # (sum - lam_1)/2 loses 2.3e-12 relative in T(mu)_1 = 0.001 here; the sum
    # of the other two entries is the correctly rounded value
    mu = [63.241, 0.001, 0.001]
    exact = [(sum(Fraction(x) for x in mu) - Fraction(x)) / 2 for x in mu]
    assert t_map(mu).tolist() == [float(x) for x in exact]
