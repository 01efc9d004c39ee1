"""Brownian paths and the Gaussian noise field they drive.

The noise field is a finite sum ``W(t, a, x) = sum_j mu_j(a, x) beta_j(t)``
of smooth spatial-age amplitudes times independent scalar Brownian
motions.  Amplitudes carry analytic first and second space derivatives
and a first age derivative, because the rescaled equation needs the
derivative fields of W and finite-differencing a sampled noise field
would pollute convergence studies.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, face_shape


@dataclass(frozen=True)
class Amplitude:
    """One noise mode: value plus analytic derivatives.

    ``fn``, ``d_age``, ``lap`` are callables ``(a, *x)``; ``grad`` holds
    one callable per spatial dimension.  ``neumann_compatible`` declares
    that the normal derivative vanishes on the boundary of the box.
    """

    fn: object
    d_age: object
    grad: tuple
    lap: object
    neumann_compatible: bool
    label: str = ""


NEUMANN_TOL = 1e-12   # rounding allowance of a compatible amplitude's normal derivative

_TRIG = {"cos": (np.cos, lambda w, z: -w * np.sin(z)),
         "sin": (np.sin, lambda w, z: w * np.cos(z))}


def _separable(c: float, age_coeffs, kind=None, modes=(), extent=(),
               dim: int = 0) -> Amplitude:
    """The mode ``c * P(a) * prod_i f(k_i pi x_i / L_i)``.

    ``P`` has the coefficients ``age_coeffs`` (lowest degree first, default
    1) and ``f`` is ``cos`` or ``sin``; with ``kind=None`` the mode has no
    trig factor and is constant in the ``dim`` space directions.  ``cos``
    modes have vanishing normal derivative on the box boundary; ``sin``
    modes do not and are only meant for derivative tests.  Each callable returns
    the shape of the arguments it reads (an age mode's that of ``a``).
    """
    if not all(float(k).is_integer() for k in np.atleast_1d(modes)):
        raise ConfigurationError(f"mode numbers must be whole numbers, got {modes}")
    modes = tuple(int(k) for k in np.atleast_1d(modes))
    extent = tuple(float(e) for e in np.atleast_1d(extent))
    if len(modes) != len(extent):
        raise ConfigurationError("one mode number per spatial dimension required")
    freqs = tuple(k * np.pi / e for k, e in zip(modes, extent))
    age = (1.0,) if age_coeffs is None else tuple(float(v) for v in age_coeffs)
    age_deriv = tuple(k * v for k, v in enumerate(age))[1:] or (0.0,)
    f, df = _TRIG.get(kind, (None, None))

    def term(cs, a, x, axis=None):
        """``c P_cs(a)``, times ``f'`` along ``axis``, times the other factors."""
        scaled = c * np.polynomial.polynomial.polyval(np.asarray(a, dtype=float), cs)
        trig = 1.0
        for i, (w, xi) in enumerate(zip(freqs, x)):
            if i == axis:
                scaled = scaled * df(w, w * np.asarray(xi, dtype=float))
            else:
                trig = trig * f(w * np.asarray(xi, dtype=float))
        return scaled * trig

    def fn(a, *x):
        return term(age, a, x)

    def zero(a, *x):
        return np.zeros(np.shape(a))

    if kind is None:
        grad, lap = (zero,) * dim, zero
    else:
        grad = tuple(lambda a, *x, i=i: term(age, a, x, axis=i) for i in range(len(freqs)))
        # each trig factor is an eigenfunction of its own second derivative
        lap = lambda a, *x: fn(a, *x) * (-sum(w * w for w in freqs))
    return Amplitude(
        fn=fn, d_age=lambda a, *x: term(age_deriv, a, x), grad=grad, lap=lap,
        neumann_compatible=(kind != "sin"),
        label=f"{kind or 'age'}_mode(c={c}, k={modes}, age={age})")


def constant_amplitude(c: float, dim: int) -> Amplitude:
    return age_polynomial_amplitude((c,), dim)


def age_polynomial_amplitude(coeffs, dim: int) -> Amplitude:
    """Polynomial in age, constant in space: ``sum_k coeffs[k] * a**k``."""
    return _separable(1.0, coeffs, dim=dim)


def cosine_amplitude(c: float, modes, extent, age_coeffs=None) -> Amplitude:
    return _separable(c, age_coeffs, "cos", modes, extent)


def sine_amplitude(c: float, modes, extent, age_coeffs=None) -> Amplitude:
    return _separable(c, age_coeffs, "sin", modes, extent)


@dataclass(frozen=True)
class NoiseSpec:
    """Finite family of amplitude functions defining the noise field."""

    amplitudes: tuple[Amplitude, ...]

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", tuple(self.amplitudes))

    @property
    def n_modes(self) -> int:
        return len(self.amplitudes)

    @property
    def neumann_compatible(self) -> bool:
        return all(a.neumann_compatible for a in self.amplitudes)

    def check_neumann(self, grid: Grid) -> float:
        """Largest sampled |normal derivative| over all boundary faces.

        Raises when an amplitude declared compatible exceeds :data:`NEUMANN_TOL`.
        """
        worst = 0.0
        for amp in self.amplitudes:
            for face, (ages, coords) in grid.boundary_meshes.items():
                g = np.asarray(amp.grad[face.axis](ages, *coords), dtype=float)
                mag = float(np.max(np.abs(g))) if g.size else 0.0
                if amp.neumann_compatible and mag > NEUMANN_TOL:
                    raise ConfigurationError(
                        f"amplitude {amp.label} declared boundary-compatible but "
                        f"has normal derivative {mag:.3g} on a face")
                worst = max(worst, mag)
        return worst


class AmplitudeGrids:
    """Amplitude values and derivatives sampled once per grid.

    Shapes: ``values``, ``d_age``, ``laplacians`` are ``(N, *field_shape)``;
    ``gradients[axis]`` likewise; ``face_values[face]`` is ``(N, *face_shape)``.
    """

    def __init__(self, spec: NoiseSpec, grid: Grid):
        n = spec.n_modes
        shape = (n,) + grid.field_shape
        self.values = np.zeros(shape)
        self.d_age = np.zeros(shape)
        self.laplacians = np.zeros(shape)
        self.gradients = [np.zeros(shape) for _ in range(grid.dim)]
        am, xm = grid.age_mesh, grid.space_meshes
        for j, amp in enumerate(spec.amplitudes):   # each assignment broadcasts
            self.values[j] = amp.fn(am, *xm)
            self.d_age[j] = amp.d_age(am, *xm)
            self.laplacians[j] = amp.lap(am, *xm)
            for axis in range(grid.dim):
                self.gradients[axis][j] = amp.grad[axis](am, *xm)
        self.face_values = {}
        for face, (ages, coords) in grid.boundary_meshes.items():
            vals = np.zeros((n,) + face_shape(grid, face))
            for j, amp in enumerate(spec.amplitudes):
                vals[j] = amp.fn(ages, *coords)
            self.face_values[face] = vals


@functools.lru_cache(maxsize=8)
def amplitude_grids(spec: NoiseSpec, grid: Grid) -> AmplitudeGrids:
    """The :class:`AmplitudeGrids` of ``spec`` on ``grid``, built once per
    pair and shared by every caller (the arrays are read-only)."""
    grids = AmplitudeGrids(spec, grid)
    for arr in (grids.values, grids.d_age, grids.laplacians, *grids.gradients,
                *grids.face_values.values()):
        arr.setflags(write=False)
    return grids


@dataclass(frozen=True)
class BrownianBundle:
    """Independent Brownian increment sequences on a shared time grid.

    ``betas`` stores the path values at the time nodes (starting at 0) and
    is the authority for refinement consistency: coarsening subsamples it,
    so path values at shared nodes match the fine bundle bit for bit.
    ``increments`` under coarsening are exact block sums; the two views
    agree up to summation roundoff.
    """

    increments: np.ndarray
    betas: np.ndarray
    seed: int
    dt: float
    level: int = 0

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        bet = np.asarray(self.betas, dtype=float)
        inc.setflags(write=False)
        bet.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "betas", bet)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_t(self) -> int:
        return self.increments.shape[1]


def sample_bundle(seed: int, n_paths: int, n_t: int, T: float) -> BrownianBundle:
    """Sample i.i.d. Gaussian increments, one reproducible stream per path.

    Path ``j`` draws from ``SeedSequence(seed, spawn_key=(j,))``, so any
    subset of paths can be regenerated independently of worker scheduling.
    """
    if seed < 0:
        raise ConfigurationError(f"a seed must be nonnegative, got {seed}")
    if n_t < 2:
        raise ConfigurationError("a bundle needs at least 2 time steps")
    if n_paths < 1:
        raise ConfigurationError("a bundle needs at least one path")
    dt = float(T) / n_t
    increments = np.empty((n_paths, n_t))
    for j in range(n_paths):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        increments[j] = rng.normal(0.0, np.sqrt(dt), n_t)
    betas = np.zeros((n_paths, n_t + 1))
    np.cumsum(increments, axis=1, out=betas[:, 1:])
    return BrownianBundle(increments, betas, int(seed), dt, level=0)


def coarsen(bundle: BrownianBundle, factor: int) -> BrownianBundle:
    """Merge increments in blocks of ``factor`` (a power of two).

    Node values on the shared coarse grid are taken verbatim from the
    fine bundle.
    """
    factor = int(factor)
    if factor < 1 or factor & (factor - 1):
        raise ConfigurationError(f"coarsening factor must be a power of two, got {factor}")
    if factor == 1:
        return bundle
    if bundle.n_t % factor:
        raise ConfigurationError(
            f"factor {factor} does not divide n_t={bundle.n_t}")
    inc = bundle.increments.reshape(bundle.n_paths, -1, factor).sum(axis=2)
    betas = bundle.betas[:, ::factor]
    return BrownianBundle(inc, betas, bundle.seed, bundle.dt * factor,
                          level=bundle.level + int(np.log2(factor)))


@dataclass(frozen=True)
class NoiseField:
    """Noise field and its derivative fields at one time node."""

    value: np.ndarray
    d_age: np.ndarray
    gradient: tuple[np.ndarray, ...]
    laplacian: np.ndarray


def _contract(bundles: Sequence[BrownianBundle], amp: np.ndarray, t_index: int) -> np.ndarray:
    """``sum_j beta_j(t) amp[j]`` for each bundle of ``bundles`` along a
    leading path axis.

    One BLAS product per path, the one ``np.tensordot`` of a path's node
    values makes: a product over the whole batch (``einsum``, ``matmul``)
    rounds differently for some mode counts and shapes, and a path's
    fields must not depend on its batch.
    """
    flat = amp.reshape(len(amp), -1)
    out = np.empty((len(bundles),) + amp.shape[1:])
    for row, bundle in zip(out, bundles):
        row[...] = np.dot(bundle.betas[None, :, t_index], flat).reshape(amp.shape[1:])
    return out


def evaluate_noise(spec: NoiseSpec, bundles: Sequence[BrownianBundle],
                   t_index: int, grid: Grid) -> NoiseField:
    """Assemble W and its derivatives at time node ``t_index``, one row per
    bundle of ``bundles`` along a leading path axis (a batch of one for one
    path).  All fields are linear in the path values, evaluated with the
    bundles' node values so coarsened bundles reproduce the fine fields
    exactly on shared nodes.
    """
    if not all(0 <= t_index <= b.n_t for b in bundles):
        raise ConfigurationError(f"time index {t_index} outside the bundle grid")
    grids = amplitude_grids(spec, grid)

    def field(amp):
        return _contract(bundles, amp, t_index)

    return NoiseField(field(grids.values), field(grids.d_age),
                      tuple(field(g) for g in grids.gradients), field(grids.laplacians))


def ito_correction(spec: NoiseSpec, grid: Grid) -> np.ndarray:
    """Drift released by rescaling: half the sum of squared amplitudes."""
    return 0.5 * np.sum(amplitude_grids(spec, grid).values ** 2, axis=0)
