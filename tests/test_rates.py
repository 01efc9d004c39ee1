import numpy as np
import pytest

import stochage as sa
from stochage.rates import CustomRate, evaluate_on_grid


class TestFamilies:
    def test_constant(self, grid1d):
        r = sa.ConstantRate(0.5)
        vals = evaluate_on_grid(r, grid1d, 0.0, 1.0)
        assert np.all(vals == 0.5)
        assert r.sup == 0.5
        assert r.lipschitz(10.0) == 0.0

    def test_logistic_bounds_and_slope(self):
        r = sa.LogisticRate(base=0.1, amp=0.4, slope=2.0, center=1.0)
        rs = np.linspace(-20, 20, 400)
        vals = np.array([r(0, np.zeros(1), (np.zeros(1),), v)[0] for v in rs])
        assert np.all(vals >= 0.1 - 1e-12)
        assert np.all(vals <= 0.5 + 1e-12)
        # steepest slope at the center is amp * slope / 4
        slopes = np.diff(vals) / np.diff(rs)
        assert slopes.max() <= r.lipschitz(30.0) * (1 + 1e-6)
        assert slopes.max() == pytest.approx(0.4 * 2.0 / 4, rel=0.01)

    def test_age_window(self, grid1d):
        r = sa.AgeWindowRate(0.25, 0.75, 2.0)
        vals = evaluate_on_grid(r, grid1d, 0.0, 0.0)
        ages = grid1d.ages
        inside = (ages >= 0.25) & (ages <= 0.75)
        assert np.all(vals[inside] == 2.0)
        assert np.all(vals[~inside] == 0.0)

    def test_age_table_interpolates(self, grid1d):
        r = sa.AgeProfileRate((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
        vals = evaluate_on_grid(r, grid1d, 0.0, 0.0)
        k = np.argmin(np.abs(grid1d.ages - 0.5))
        assert vals[k].max() == pytest.approx(1.0)
        assert vals[0].max() == 0.0

    def test_product_rate(self, grid1d):
        r = sa.ProductRate(sa.AgeWindowRate(0.0, 1.0, 2.0),
                           sa.LogisticRate(0.0, 1.0, 1.0))
        assert r.sup == pytest.approx(2.0)
        assert r.lipschitz(5.0) == pytest.approx(2.0 * 0.25)


class TestPathVector:
    @pytest.mark.parametrize("rate", [
        sa.ConstantRate(0.4),
        sa.LogisticRate(0.1, 0.5, 2.0, 0.5),
        sa.AgeProfileRate((0.0, 0.5, 1.0), (0.2, 1.0, 0.1)),
        sa.AgeWindowRate(0.25, 0.75, 2.0),
        sa.ProductRate(sa.AgeWindowRate(0.0, 0.6, 2.0),
                       sa.LogisticRate(0.2, -0.1, 3.0, 1.0)),
        CustomRate(fn=lambda t, a, x, r: 0.3 + 0.1 * np.tanh(r) * a + 0 * x[0],
                   sup=0.4),
    ], ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_vector_u_matches_scalar_calls(self, rate, dim, grid1d, grid2d):
        # one evaluation per path, stacked, is the batched evaluation bit for bit
        grid = grid1d if dim == 1 else grid2d
        u = np.array([-3.7, 0.0, 0.5, 1e-3, 2.25, 40.0])
        batched = evaluate_on_grid(rate, grid, 0.3, u)
        serial = [evaluate_on_grid(rate, grid, 0.3, float(v)) for v in u]
        full = np.broadcast_to(batched, u.shape + grid.field_shape)
        for j, one in enumerate(serial):
            assert one.shape == grid.field_shape
            assert full[j].tobytes() == np.ascontiguousarray(one).tobytes()

    def test_u_free_families_broadcast(self, grid1d):
        u = np.linspace(0.0, 1.0, 5)
        for rate in (sa.ConstantRate(1.0), sa.AgeWindowRate(0.2, 0.4, 1.0)):
            assert evaluate_on_grid(rate, grid1d, 0.0, u).shape == grid1d.field_shape
        logistic = evaluate_on_grid(sa.LogisticRate(0.1, 0.5, 2.0), grid1d, 0.0, u)
        assert logistic.shape == (5,) + grid1d.field_shape


class TestValidateRates:
    def test_constant_within_bounds_passes(self, grid1d):
        rates = sa.VitalRates(mu_s=sa.ConstantRate(0.5))
        assert not sa.validate_rates(rates, grid1d)

    def test_bound_violation_detected(self, grid1d):
        # declares sup 1 but evaluates to 2 everywhere
        bad = CustomRate(fn=lambda t, a, x, r: 2.0, sup=1.0)
        rates = sa.VitalRates(mu_s=bad)
        violations = sa.validate_rates(rates, grid1d)
        assert violations
        assert any(v.rate == "mu_s" and v.kind == "bound" for v in violations)

    def test_negative_rate_detected(self, grid1d):
        bad = CustomRate(fn=lambda t, a, x, r: -0.1, sup=1.0)
        rates = sa.VitalRates(m0=bad)
        assert any(v.rate == "m0" for v in sa.validate_rates(rates, grid1d))

    def test_clipped_square_lipschitz_passes(self, grid1d):
        # m0(r) = min(r^2, 1): finite-difference slope between r, rbar with
        # |r|, |rbar| <= R is at most 2R, which is the declared constant
        rate = CustomRate(fn=lambda t, a, x, r: min(r * r, 1.0), sup=1.0,
                          lipschitz_fn=lambda R: 2.0 * R)
        rates = sa.VitalRates(m0=rate)
        assert not sa.validate_rates(rates, grid1d)

    def test_lipschitz_violation_detected(self, grid1d):
        # slope 2R but declares R/2
        rate = CustomRate(fn=lambda t, a, x, r: min(r * r, 100.0), sup=100.0,
                          lipschitz_fn=lambda R: 0.5 * R)
        rates = sa.VitalRates(m0=rate)
        violations = sa.validate_rates(rates, grid1d)
        assert any(v.kind == "lipschitz" for v in violations)

