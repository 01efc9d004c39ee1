"""Vital rate functions and their declared bounds.

Rates are supplied as small parameterized families rather than arbitrary
code.  Every family knows its own sup bound and a Lipschitz constant in
the population argument ``r``, so the declared metadata in
:class:`VitalRates` can be filled in automatically and spot-checked by
:func:`validate_rates`.

A rate is called as ``rate(t, a, x, r)`` where ``a`` and the entries of
``x`` are broadcastable arrays (age nodes against cell centers, or the
coordinates of boundary faces) and ``r`` is a scalar or a 1-d array of
per-path population values.  ``a`` carries every point axis (the grid's
age mesh, the face ages, :func:`validate_rates`' samples), and a family
returns the shape of what it reads: ``np.shape(r)`` if it reads ``r``, then
the point axes, of length 1 on each it does not read.  Only a
:class:`CustomRate` is a whole field; consumers broadcast.  Only it, or a
:class:`ProductRate` holding one, uses ``t`` (``ignores_t``); a march
evaluates the Robin data of the others once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, face_shape


@dataclass(frozen=True)
class ConstantRate:
    value: float

    @property
    def sup(self) -> float:
        return abs(self.value)

    def lipschitz(self, R: float) -> float:
        return 0.0

    def __call__(self, t, a, x, r):
        return np.full((1,) * np.ndim(a), float(self.value))


@dataclass(frozen=True)
class LogisticRate:
    """``base + amp / (1 + exp(-slope * (r - center)))``: bounded, smooth in r."""

    base: float
    amp: float
    slope: float
    center: float = 0.0

    @property
    def sup(self) -> float:
        return abs(self.base) + abs(self.amp)

    def lipschitz(self, R: float) -> float:
        return abs(self.amp) * abs(self.slope) / 4.0

    def __call__(self, t, a, x, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):   # an infinite z saturates in the clip below
            z = self.slope * (r - self.center)
        # clip keeps exp() in range; the logistic saturates well before 500
        val = self.base + self.amp / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
        return val.reshape(r.shape + (1,) * np.ndim(a))


@dataclass(frozen=True)
class AgeProfileRate:
    """Rate depending on age only, linearly interpolated from a table."""

    age_points: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.age_points) != len(self.values) or len(self.values) < 2:
            raise ConfigurationError("age table needs two or more points, with one value each")
        ages = np.asarray(self.age_points, dtype=float)
        if not (np.all(np.isfinite(ages)) and np.all(np.diff(ages) > 0)):
            raise ConfigurationError(
                f"age table points {self.age_points} must be finite and strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):   # named below instead
            slopes = np.diff(self.values) / np.diff(ages)
        if not np.all(np.isfinite(slopes)):
            raise ConfigurationError(f"age table values {self.values} must be finite, "
                                     f"with finite slopes between the points")

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def lipschitz(self, R: float) -> float:
        return 0.0

    def __call__(self, t, a, x, r):
        return np.interp(np.asarray(a, dtype=float), self.age_points, self.values)


@dataclass(frozen=True)
class AgeWindowRate:
    """Constant on an age window ``[lo, hi]``, zero outside (fertile band)."""

    lo: float
    hi: float
    value: float

    @property
    def sup(self) -> float:
        return abs(self.value)

    def lipschitz(self, R: float) -> float:
        return 0.0

    def __call__(self, t, a, x, r):
        a = np.asarray(a, dtype=float)
        return np.where((a >= self.lo) & (a <= self.hi), float(self.value), 0.0)


@dataclass(frozen=True)
class ProductRate:
    """Product of an age/space profile and an r-dependent factor."""

    profile: object
    r_factor: object

    @property
    def ignores_t(self) -> bool:
        return all(getattr(f, "ignores_t", True) for f in (self.profile, self.r_factor))

    @property
    def sup(self) -> float:
        return self.profile.sup * self.r_factor.sup

    def lipschitz(self, R: float) -> float:
        return self.profile.sup * self.r_factor.lipschitz(R)

    def __call__(self, t, a, x, r):
        return self.profile(t, a, x, r) * self.r_factor(t, a, x, r)


@dataclass(frozen=True)
class CustomRate:
    """Escape hatch for tests: explicit callable with declared metadata.

    ``fn`` sees one scalar ``r`` at a time; an array of per-path values is
    evaluated path by path.
    """

    fn: object
    sup: float
    lipschitz_fn: object = None
    ignores_t = False

    def lipschitz(self, R: float) -> float:
        if self.lipschitz_fn is None:
            return 0.0
        return float(self.lipschitz_fn(R))

    def __call__(self, t, a, x, r):
        if np.ndim(r):
            return np.stack([self(t, a, x, float(v)) for v in r])
        out = np.asarray(self.fn(t, a, x, r), dtype=float)
        shape = np.broadcast_shapes(np.shape(a), *(np.shape(c) for c in x))
        return np.broadcast_to(out, shape).copy()


@dataclass(frozen=True)
class VitalRates:
    """Mortality, fertility, weighting, and boundary data with metadata.

    ``mu_s``   additional mortality, called as ``mu_s(t, a, x, r)``
    ``m0``     fertility, ``m0(t, a, x, r)``; only a :class:`CustomRate` uses ``t``
    ``gamma``  weight of the nonlocal population functional, r ignored
    ``alpha0`` Robin boundary coefficient (nonnegative)
    ``k0``     Robin boundary inhomogeneity (may change sign)

    An ``alpha0`` or ``k0`` that ignores ``t`` is evaluated, and factored, once per march.
    """

    mu_s: object = ConstantRate(0.0)
    m0: object = ConstantRate(0.0)
    gamma: object = ConstantRate(0.0)
    alpha0: object = ConstantRate(0.0)
    k0: object = ConstantRate(0.0)


# validate_rates samples a lattice of about sqrt(VALIDATION_SAMPLES) points
# per coordinate and pairs of r with |r| <= VALIDATION_R_MAX, from one stream
VALIDATION_SAMPLES = 4096
VALIDATION_R_MAX = 10.0
VALIDATION_SEED = 0


@dataclass
class RateViolation:
    rate: str
    kind: str
    location: tuple
    detail: str


def validate_rates(rates: VitalRates, grid: Grid) -> list[RateViolation]:
    """Sample the rate functions and list the bound or Lipschitz violations.

    Report-only: never raises.  Samples a lattice of (t, a, x) points and
    pairs of r values with |r| <= :data:`VALIDATION_R_MAX`, checking

    * ``0 <= mu_s <= mu_s.sup`` and ``0 <= m0 <= m0.sup``
    * ``gamma >= 0`` and ``alpha0 >= 0``
    * the declared local Lipschitz constants against finite slopes.
    """
    rng = np.random.default_rng(VALIDATION_SEED)
    violations: list[RateViolation] = []
    n_pts = int(np.sqrt(VALIDATION_SAMPLES))
    ts = rng.uniform(0.0, grid.T, n_pts)
    aws = rng.uniform(0.0, grid.a_max, n_pts)
    xs = tuple(rng.uniform(0.0, e, n_pts) for e in grid.extent)
    rs = rng.uniform(-VALIDATION_R_MAX, VALIDATION_R_MAX, n_pts)
    tol = 1e-9

    def check_bounds(name, rate, lo, hi):
        for i in range(n_pts):
            vals = rate(ts[i], aws, xs, rs[i])
            if np.min(vals) < lo - tol or np.max(vals) > hi + tol:
                j = int(np.argmax(np.abs(vals - np.clip(vals, lo, hi))))
                violations.append(RateViolation(
                    name, "bound", (float(ts[i]), float(aws[j]), float(rs[i])),
                    f"value {vals.flat[j]:.6g} outside [{lo:.6g}, {hi:.6g}]"))

    check_bounds("mu_s", rates.mu_s, 0.0, rates.mu_s.sup)
    check_bounds("m0", rates.m0, 0.0, rates.m0.sup)
    check_bounds("gamma", rates.gamma, 0.0, rates.gamma.sup)
    check_bounds("alpha0", rates.alpha0, 0.0, rates.alpha0.sup)

    def check_lipschitz(name, rate, lip):
        for _ in range(n_pts):
            R = rng.uniform(0.1, VALIDATION_R_MAX)
            r1, r2 = rng.uniform(-R, R, 2)
            if abs(r1 - r2) < 1e-12:
                continue
            t, aa = rng.uniform(0, grid.T), rng.uniform(0, grid.a_max, 3)
            xx = tuple(rng.uniform(0, e, 3) for e in grid.extent)
            v1, v2 = rate(t, aa, xx, r1), rate(t, aa, xx, r2)
            slope = np.max(np.abs(v1 - v2)) / abs(r1 - r2)
            if slope > lip(R) * (1 + 1e-6) + tol:
                violations.append(RateViolation(
                    name, "lipschitz", (float(r1), float(r2), float(R)),
                    f"slope {slope:.6g} exceeds declared {lip(R):.6g}"))

    check_lipschitz("mu_s", rates.mu_s, rates.mu_s.lipschitz)
    check_lipschitz("m0", rates.m0, rates.m0.lipschitz)

    return violations


def evaluate_on_grid(rate, grid: Grid, t: float, r) -> np.ndarray:
    """Rate values on the age-space grid at one ``t`` and the scalar or 1-d
    per-path ``r``, at the shape of what the rate reads: one number for a
    constant, ``n_a + 1`` ages for a table or window, one number per path for
    a rate of ``r`` alone, each with length 1 on the other field axes."""
    return np.asarray(rate(t, grid.age_mesh, grid.space_meshes, r), dtype=float)


def evaluate_on_faces(rate, grid: Grid, t: float) -> dict:
    """Rate values (``r = 0``) of :func:`~stochage.grid.face_shape` on every
    boundary face at one ``t``; the twin of :func:`evaluate_on_grid`."""
    out = {}
    for face, (ages, coords) in grid.boundary_meshes.items():
        vals = np.asarray(rate(t, ages, coords, 0.0), dtype=float)
        shape = face_shape(grid, face)
        out[face] = vals if vals.shape == shape else np.broadcast_to(vals, shape)
    return out


def evaluate_gamma(rates: VitalRates, grid: Grid) -> np.ndarray:
    return evaluate_on_grid(rates.gamma, grid, 0.0, 0.0)
