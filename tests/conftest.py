import dataclasses

import numpy as np
import pytest

import stochage as sa
from stochage.errors import NoiseMagnitudeError
from stochage.rates import CustomRate
from stochage.rescale import RescaledCoefficients

# the numpy build that the golden digests and the working-set ceilings were
# recorded with; floating-point bits and temporaries depend on it
PINNED_NUMPY = "2.4.6"


@pytest.fixture
def grid1d():
    return sa.Grid(T=0.5, a_max=1.0, n_t=32, n_a=64, extent=(1.0,), n_x=(8,))


@pytest.fixture
def grid2d():
    return sa.Grid(T=0.25, a_max=0.5, n_t=16, n_a=32, extent=(1.0, 1.0), n_x=(6, 5))


def linear_rates(mu=0.3, m0=0.6, alpha=0.2, k0=0.0):
    return sa.VitalRates(
        mu_s=sa.ConstantRate(mu), m0=sa.ConstantRate(m0),
        gamma=sa.ConstantRate(0.0), alpha0=sa.ConstantRate(alpha),
        k0=sa.ConstantRate(k0))


def logistic_rates(gamma=1.0):
    return sa.VitalRates(
        mu_s=sa.LogisticRate(0.1, 0.5, 2.0, 0.5),
        m0=sa.LogisticRate(0.8, -0.5, 1.5, 0.5),
        gamma=sa.ConstantRate(gamma),
        alpha0=sa.ConstantRate(0.1), k0=sa.ConstantRate(0.0))


def sample(grid, fn):
    """``fn(a, *x)`` on the age nodes and cell centers: a field of ``grid``."""
    return np.broadcast_to(fn(grid.age_mesh, *grid.space_meshes), grid.field_shape)


def smooth_p0(grid, decay=1.0, ripple=0.2):
    if grid.dim == 1:
        return sample(
            grid, lambda a, x: np.exp(-decay * a) * (1 + ripple * np.cos(np.pi * x)))
    return sample(
        grid, lambda a, x, y: np.exp(-decay * a)
        * (1 + ripple * np.cos(np.pi * x) * np.cos(np.pi * y)))


def build_model(grid, rates=None, amplitudes=None, p0=None):
    rates = rates if rates is not None else linear_rates()
    if amplitudes is None:
        amplitudes = (sa.cosine_amplitude(0.2, (1,) * grid.dim, grid.extent),)
    noise = sa.NoiseSpec(tuple(amplitudes))
    p0 = p0 if p0 is not None else smooth_p0(grid)
    return sa.PopulationModel(grid=grid, rates=rates, noise=noise, p0=p0)


@pytest.fixture
def linear_model(grid1d):
    return build_model(grid1d)


def swept_sups(model, bundle, last=None):
    """The coefficient sups of ``bundle``'s path over the nodes up to ``last``
    (every node by default), built in node order without a march under the
    march's exp guard, or the guard's first error: the oracle of the sups a
    march gathers."""
    coeffs, over = RescaledCoefficients(model, [bundle]), np.zeros(1)
    for i in range(model.grid.n_t + 1 if last is None else last + 1):
        coeffs.k_faces(i, over=over)
        coeffs.node_fields(i, over=over)
    return NoiseMagnitudeError(over[0]) if over[0] else coeffs.sups_so_far()[0]


def swept_constants(model, bundle, **kwargs):
    """Energy-bound constants of ``bundle``'s path from :func:`swept_sups`;
    raises the path's exp-guard error."""
    sups = swept_sups(model, bundle)
    if isinstance(sups, sa.StochageError):
        raise sups
    return sa.constants_for_run(model, sups, **kwargs)


def same(a, b) -> bool:
    """Bitwise equality of two solve results, field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    return a == b


def fails_alone(batch, solve, model, bundles, cfg) -> list:
    """Check each entry of a batch against the one-path ``solve`` of its
    bundle: an error has the type and text of the error that solve raises,
    a report is bitwise its report.  Returns the errors per path (``None``
    for a report)."""
    errors = []
    for entry, bundle in zip(batch, bundles, strict=True):
        if isinstance(entry, sa.StochageError):
            with pytest.raises(type(entry)) as alone:
                solve(model, bundle, cfg)
            assert str(alone.value) == str(entry)
            errors.append(entry)
        else:
            assert same(entry, solve(model, bundle, cfg))
            errors.append(None)
    return errors


def nan_fertility_model(grid, bundles, solve_batch, cfg):
    """A linear model whose fertility turns NaN once a path's population
    functional passes the median of the paths' peaks under ``solve_batch``
    without the NaN, so that only some of ``bundles`` reach it."""
    def model_with(m0):
        rates = dataclasses.replace(linear_rates(), m0=m0, gamma=sa.ConstantRate(1.0))
        return build_model(grid, rates=rates, amplitudes=(sa.constant_amplitude(0.8, 1),))

    peaks = [rep.u_series.max()
             for rep in solve_batch(model_with(sa.ConstantRate(0.6)), bundles, cfg)]
    cut = float(np.median(peaks))
    return model_with(CustomRate(fn=lambda t, a, x, r: np.nan if r > cut else 0.6, sup=0.6))
