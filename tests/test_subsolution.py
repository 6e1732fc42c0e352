import json
import math

import numpy as np
import pytest

from conesolve import (
    ConeViolation,
    DichotomyBranch,
    HessianQuotientNeg,
    LogSigmaK,
    MongeAmpere,
    certify_field,
    dichotomy_check,
    estimate_kappa,
    is_subsolution_point,
    level_set_constants,
    quotient_cone_condition,
    sample_level_set,
    schur_horn_pairing,
)
from conesolve.subsolution import dichotomy_margins, subtuple_limits
from oracles import ray_boundedness_oracle, sigma_bruteforce
from test_crossings import KINDS


def test_subsolution_point_hand_cases():
    hq = HessianQuotientNeg(2, 1, 2)
    assert not is_subsolution_point(hq, [1.0, 1.0], -0.4)  # limit -0.5 < -0.4
    assert is_subsolution_point(hq, [1.0, 1.0], -0.6)
    # log sigma_k limits are infinite: every admissible tuple qualifies
    assert is_subsolution_point(LogSigmaK(3, 2), [0.5, 0.5, 0.5], 10.0)


def test_subsolution_point_domain_error():
    with pytest.raises(ConeViolation):
        is_subsolution_point(MongeAmpere(2), [-1.0, 1.0], 0.0)


def test_subsolution_point_near_projection_boundary():
    # the subtuple (1, -1 + 1e-10) lies in Gamma_1, the projection of Gamma_2,
    # with the limit -sigma_0/sigma_1 = -1e10 far below the level
    assert not is_subsolution_point(HessianQuotientNeg(3, 1, 2), [1.0, 1.0, -1.0 + 1e-10], -10.0)
    # outside the projection the error names the violated sigma_j of the subtuple
    with pytest.raises(ConeViolation) as err:
        is_subsolution_point(HessianQuotientNeg(3, 1, 2), [1.0, 1.0, -1.0 - 1e-10], -10.0)
    assert err.value.index == 1 and err.value.value == pytest.approx(-1e-10, rel=1e-5)


def _random_cases(rng, count):
    """(op, mu, sigma) with a definite margin between the limit and sigma."""
    ops = [MongeAmpere(2), MongeAmpere(3), LogSigmaK(3, 2), LogSigmaK(2, 1),
           HessianQuotientNeg(2, 1, 2), HessianQuotientNeg(3, 1, 2),
           HessianQuotientNeg(3, 2, 3)]
    cases = []
    while len(cases) < count:
        op = ops[rng.integers(len(ops))]
        mu = rng.uniform(0.3, 3.0, op.n)
        if isinstance(op, HessianQuotientNeg):
            # independent hand formula for the one-variable-to-infinity limit
            lims = []
            for i in range(op.n):
                rest = np.delete(mu, i)
                lims.append(
                    -(sigma_bruteforce(op.l - 1, rest) / math.comb(op.n, op.l))
                    / (sigma_bruteforce(op.k - 1, rest) / math.comb(op.n, op.k))
                )
            edge = min(lims)
            offset = rng.choice([-0.3, -0.1, 0.1, 0.3])
            sigma_level = edge + offset
            if not op.sup_boundary < sigma_level < op.sup_interior:
                continue
        else:
            sigma_level = rng.uniform(-1.0, 1.5)
        cases.append((op, mu, sigma_level))
    return cases


def test_boundedness_oracle_agreement():
    rng = np.random.default_rng(100)
    for op, mu, sigma_level in _random_cases(rng, 40):
        expected = ray_boundedness_oracle(op, mu, sigma_level, rng, rays=200)
        assert is_subsolution_point(op, mu, sigma_level) == expected, (
            op, mu, sigma_level
        )


def test_dichotomy_hand_case():
    ma = MongeAmpere(2)
    lam = np.array([100.0, 0.01])
    branch = dichotomy_check(ma, [2.0, 2.0], 0.0, lam, 1.0)
    assert branch is DichotomyBranch.GRADIENT_PAIRING
    # at the symmetric closest point the components are all equal
    n_anchor = level_set_constants(ma, 0.0, samples=32).N
    sym = np.array([n_anchor, n_anchor])
    assert dichotomy_check(ma, sym, 0.0, sym, 0.3) is DichotomyBranch.ALL_LARGE
    assert dichotomy_check(ma, [2.0, 2.0], 0.0, lam, 1e3) is DichotomyBranch.VIOLATION


def test_dichotomy_requires_level_set_point():
    with pytest.raises(ValueError):
        dichotomy_check(MongeAmpere(2), [2.0, 2.0], 0.0, [2.0, 2.0], 0.1)


def test_estimate_kappa_and_heldout():
    ma = MongeAmpere(2)
    kappa = estimate_kappa(ma, [2.0, 2.0], 0.0, radius=10.0, samples=4000, seed=1)
    assert kappa >= 0.05
    held_out = sample_level_set(ma, 0.0, 4000, np.random.default_rng(2),
                                min_radius=10.0)
    margins = dichotomy_margins(ma, np.array([2.0, 2.0]), held_out)
    assert margins.min() > kappa  # zero violations

    with pytest.raises(ValueError):
        estimate_kappa(ma, [2.0, 2.0], 0.0, radius=1.0, samples=0)


def test_kappa_degenerates_near_admissibility_edge():
    hq = HessianQuotientNeg(2, 1, 2)
    # limit at mu=(1,1) is -0.5; sigma barely below leaves almost no margin
    wide = estimate_kappa(hq, [1.0, 1.0], -0.9, radius=5.0, samples=2000, seed=3)
    tight = estimate_kappa(hq, [1.0, 1.0], -0.52, radius=5.0, samples=2000, seed=3)
    assert tight < wide
    assert tight < 0.05


def test_schur_horn_hand_and_fuzz():
    assert schur_horn_pairing([0.1, 0.9], np.array([[2.0, 1.0], [1.0, 2.0]]))
    # diagonal b sorted descending gives equality
    assert schur_horn_pairing([0.2, 0.8], np.diag([3.0, 1.0]))
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = (b + b.conj().T) / 2
        assert schur_horn_pairing(np.sort(rng.uniform(0.0, 1.0, n)), b)
    with pytest.raises(ValueError):
        schur_horn_pairing([0.9, 0.1], np.eye(2))


def test_quotient_cone_condition():
    assert quotient_cone_condition([2.0, 2.0], 2, 1, 0.5)
    assert not quotient_cone_condition([2.0, 2.0], 2, 1, 0.2)
    assert quotient_cone_condition([2.0, 2.0], 2, 0, 0.5)  # pure Hessian case
    with pytest.raises(ConeViolation):
        quotient_cone_condition([1.0, -1.0], 2, 1, 0.5)
    # monotone in c
    rng = np.random.default_rng(5)
    for _ in range(100):
        eigs = rng.uniform(0.2, 3.0, 3)
        c = rng.uniform(0.05, 2.0)
        if quotient_cone_condition(eigs, 2, 1, c):
            assert quotient_cone_condition(eigs, 2, 1, c + rng.uniform(0.0, 1.0))


def test_certify_field_identity_background():
    # identity comparison data for the log-det operator: any delta below 1/2
    ma = MongeAmpere(2)
    b_eigs = np.ones((32, 2))
    h = 0.3 * np.sin(np.linspace(0.0, 2.0 * np.pi, 32))
    cert = certify_field(ma, b_eigs, h, [0.45, 0.3, 0.1], kappa_samples=400)
    assert cert.certified and cert.delta == 0.45
    assert cert.sigma_range == (float(h.min()), float(h.max()))
    assert cert.radius > 0 and cert.kappa > 0
    parsed = json.loads(cert.to_json())
    assert parsed["verdict"] == "certified"

    # delta = 0.6 exits the natural domain and must be skipped, not fatal
    cert2 = certify_field(ma, b_eigs, h, [0.6, 0.45], kappa_samples=0)
    assert cert2.certified and cert2.delta == 0.45


def test_certify_field_refutes_with_witness():
    hq = HessianQuotientNeg(2, 1, 2)
    b_eigs = np.ones((8, 2))
    sigmas = np.full(8, -0.4)  # limit is -0.5 < -0.4: unbounded
    cert = certify_field(hq, b_eigs, sigmas, [0.02, 0.01])
    assert not cert.certified
    assert cert.witness is not None and "point" in cert.witness
    assert json.loads(cert.to_json())["kappa"] is None

    with pytest.raises(ValueError):
        certify_field(hq, b_eigs, sigmas, [])


def test_refutation_without_an_admissible_delta_names_the_domain_failure():
    # mu = (-1, 2) - 0.2 keeps (1.8) in Gamma_1, the projection of Gamma_2,
    # but not (-1.2): dropping entry 1 violates sigma_1 > 0
    cert = certify_field(HessianQuotientNeg(2, 1, 2), [[1, 1], [-1, 2]], [-0.6, -0.6], [0.1])
    assert not cert.certified
    assert cert.witness == {"skipped_deltas": [0.1], "delta": 0.1, "point": 1, "subtuple": 1,
                            "violation": {"index": 1, "sigma": -1.2}}
    # a refutation by an unbounded point still names the deltas skipped before it
    cert = certify_field(HessianQuotientNeg(2, 1, 2), np.ones((4, 2)), np.full(4, -0.4),
                         [0.6, 0.01])
    assert cert.witness == {"skipped_deltas": [0.6], "point": 0, "delta": 0.01,
                            "subtuple": 0, "sigma": -0.4}


def test_unbounded_witness_names_the_failing_entry():
    # the limit at mu' is -1/(2 mu'): point 0 gives -1/6 twice, point 1 gives
    # -1/8 without entry 0 but -1/2 < -0.3 without entry 1
    cert = certify_field(HessianQuotientNeg(2, 1, 2), [[3, 3], [1, 4]], [-0.3, -0.3], [0.0])
    assert cert.witness == {"skipped_deltas": [], "point": 1, "delta": 0.0,
                            "subtuple": 1, "sigma": -0.3}


@pytest.mark.parametrize("op", KINDS, ids=repr)
def test_subtuple_limits_match_each_subtuple(op):
    mu = np.random.default_rng(op.n).uniform(-2.0, 3.0, (40, op.n))
    inside, limits = subtuple_limits(op, mu)
    projection = op.cone.projection()
    assert inside.shape == limits.shape == (40, op.n)
    # points outside the natural domain are in the sample wherever there are any
    assert inside.all() == (projection.k == 0)
    for p in range(len(mu)):
        for i in range(op.n):
            rest = np.delete(mu[p], i)
            assert inside[p, i] == projection.contains(rest)
            assert limits[p, i] == (op.limit_at_infinity(rest) if inside[p, i] else -math.inf)
