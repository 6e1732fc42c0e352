"""Every catalog kind's value, derivatives and limit against the hand-written
references in ``oracles``, on random points down to 1e-6 from the cone boundary.

Tolerances are 1e-12 relative, widened by ``_rtol``'s cancellation bound in the
sigma_j of the point (of T of the point under composition).  Values of kinds
with a log term compare against |f| + 1, since log sigma errs absolutely.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conesolve import BlendedQuotient, ComposedWithT, LogSigmaK, MongeAmpere
from conesolve.cones import sigma_all
from oracles import reference_gradient, reference_hessian, reference_limit, reference_value
from test_crossings import _config_kinds, _pushed, _rtol

KINDS = _config_kinds(1) + _config_kinds(2) + _config_kinds(3) + [
    BlendedQuotient(n, l, k, t) for n in (2, 3) for k in range(2, n + 1)
    for l in range(1, k) for t in (0.0, 0.3, 1.0)]
entries = st.floats(-3.0, 3.0).map(lambda x: round(x, 6))
#: offsets into the cone from its boundary along (1, ..., 1)
gaps = st.sampled_from([1e-6, 1e-3, 0.1, 1.0, 4.0])


def _draw_points(data, cone, n):
    count = data.draw(st.integers(1, 6))
    v = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=count, max_size=count))
    gap = data.draw(st.lists(gaps, min_size=count, max_size=count))
    return _pushed(cone, np.array(v).reshape(count, n), np.array(gap))


def _has_log_term(op):
    return isinstance(op.inner if isinstance(op, ComposedWithT) else op,
                      (MongeAmpere, LogSigmaK))


def _assert_rows_close(got, expected, rtol, scale):
    axes = tuple(range(1, got.ndim))
    err = np.abs(got - expected).max(axis=axes, initial=0.0)
    assert np.all(err <= rtol * scale), (err / scale).max()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS))
def test_derivatives_match_the_reference(data, op):
    x = _draw_points(data, op.cone, op.n)
    rtol = _rtol(op, x)
    f, g, h = op.value(x), op.gradient(x), op.hessian(x)
    f_ref, g_ref, h_ref = (reference_value(op, x), reference_gradient(op, x),
                           reference_hessian(op, x))
    f_scale = np.abs(f_ref) + (1.0 if _has_log_term(op) else 0.0)
    g_scale = np.abs(g_ref).max(axis=-1)
    h_scale = np.abs(h_ref).max(axis=(-1, -2))
    _assert_rows_close(f, f_ref, rtol, f_scale)
    _assert_rows_close(g, g_ref, rtol, g_scale)
    _assert_rows_close(h, h_ref, rtol, h_scale)

    assert np.all(g > 0)  # monotone
    assert np.all(np.linalg.eigvalsh(h).max(axis=-1) <= rtol * h_scale)  # concave
    perm = np.array(data.draw(st.permutations(range(op.n))))
    _assert_rows_close(op.value(x[:, perm]), f, rtol, f_scale)
    _assert_rows_close(op.gradient(x[:, perm]), g[:, perm], rtol, g_scale)
    _assert_rows_close(op.hessian(x[:, perm]), h[:, perm][:, :, perm], rtol, h_scale)


def _limit_rtol(op, mu_prime):
    """1e-12 plus 4e-15 times the cancellation in the sigma_j(mu') that the
    projection of the cone keeps positive."""
    cond = np.ones(mu_prime.shape[:-1])
    for j in range(1, op.cone.projection().k + 1):
        cond = np.maximum(cond, sigma_all(np.abs(mu_prime), j)[..., j]
                          / np.abs(sigma_all(mu_prime, j)[..., j]))
    return 1e-12 + 4e-15 * cond


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS))
def test_limits_match_the_reference(data, op):
    mu_prime = _draw_points(data, op.cone.projection(), op.n - 1)
    got = np.atleast_1d(op.limit_at_infinity(mu_prime))
    expected = reference_limit(op, mu_prime)
    assert got.shape == expected.shape
    exact = np.isinf(expected) | (expected == 0.0)
    np.testing.assert_array_equal(got[exact], expected[exact])
    _assert_rows_close(got[~exact], expected[~exact], _limit_rtol(op, mu_prime)[~exact],
                       np.abs(expected[~exact]))
    assert op.limit_infinite == bool(np.isinf(expected).all())
    assert op.limit_infinite == math.isinf(op.limit_at_infinity(mu_prime[0]))
