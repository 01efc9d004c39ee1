"""Grids, fields, and the discrete integrals every solver shares.

A field lives on age nodes ``a_k = k * da`` (``k = 0 .. n_a``) times a
cell-centered uniform spatial grid on a rectangular box in 1 or 2
dimensions.  Integrals use the trapezoid rule in age and the midpoint
rule in space.  A field is an array of shape ``(n_a + 1, *n_x)`` passed next to its grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InvalidFieldError

_ALIGN_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform space-age-time grid on ``(0, T) x (0, a_max) x box``.

    Parameters
    ----------
    T : float
        Final time.
    a_max : float
        Maximum age; the age interval is ``(0, a_max)``.
    n_t, n_a : int
        Number of time and age steps (both at least 2); off alignment ``dt <= da``,
        which keeps the age upwind positive.
    extent : tuple of float
        Side length of the spatial box per dimension (1 or 2 entries).
    n_x : tuple of int
        Number of spatial cells per dimension.
    """

    T: float
    a_max: float
    n_t: int
    n_a: int
    extent: tuple[float, ...]
    n_x: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "extent", tuple(float(e) for e in np.atleast_1d(self.extent)))
        object.__setattr__(self, "n_x", tuple(int(n) for n in np.atleast_1d(self.n_x)))
        if self.dim not in (1, 2):
            raise ConfigurationError(f"spatial dimension must be 1 or 2, got {self.dim}")
        if len(self.n_x) != self.dim:
            raise ConfigurationError("extent and n_x must have the same length")
        if not (0 < self.T < np.inf and 0 < self.a_max < np.inf):
            raise ConfigurationError("T and a_max must be positive and finite")
        if self.n_t < 2 or self.n_a < 2:
            raise ConfigurationError(f"a grid needs at least 2 time and age steps, "
                                     f"got n_t = {self.n_t}, n_a = {self.n_a}")
        if any(e <= 0 for e in self.extent) or any(n < 1 for n in self.n_x):
            raise ConfigurationError("extent must be positive and n_x at least 1")
        if self.dt - self.da > _ALIGN_RTOL * self.dt:   # unaligned with dt > da
            raise ConfigurationError(
                f"unaligned transport needs dt <= da, got dt/da = {self.dt / self.da:.3g} "
                f"(T = {self.T:g}, n_t = {self.n_t}, a_max = {self.a_max:g}, n_a = {self.n_a})")

    @property
    def dim(self) -> int:
        return len(self.extent)

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def da(self) -> float:
        return self.a_max / self.n_a

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extent, self.n_x))

    @property
    def aligned(self) -> bool:
        """True when the time step equals the age step (characteristic mode)."""
        return abs(self.dt - self.da) <= _ALIGN_RTOL * self.dt

    @property
    def field_shape(self) -> tuple[int, ...]:
        return (self.n_a + 1, *self.n_x)

    def rows(self, index) -> tuple:
        """Index selecting age rows ``index`` (an int or a slice) of a field
        array, with or without leading path axes."""
        return (Ellipsis, index) + (slice(None),) * self.dim

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t + 1)

    @cached_property
    def ages(self) -> np.ndarray:
        return np.linspace(0.0, self.a_max, self.n_a + 1)

    @cached_property
    def age_weights(self) -> np.ndarray:
        """Trapezoid weights over the age nodes."""
        w = np.full(self.n_a + 1, self.da)
        w[0] = w[-1] = 0.5 * self.da
        return w

    @cached_property
    def age_weight_field(self) -> np.ndarray:
        """:attr:`age_weights` repeated over space, contiguous in the field's shape."""
        return np.repeat(self.age_weights, np.prod(self.n_x)).reshape(self.field_shape)

    @cached_property
    def time_weights(self) -> np.ndarray:
        """Trapezoid weights over the time nodes."""
        w = np.full(self.n_t + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w

    @cached_property
    def cell_centers(self) -> tuple[np.ndarray, ...]:
        return tuple(
            (np.arange(n) + 0.5) * d for n, d in zip(self.n_x, self.dx)
        )

    @cached_property
    def age_mesh(self) -> np.ndarray:
        """Age nodes broadcast to the field shape."""
        shape = (self.n_a + 1,) + (1,) * self.dim
        return self.ages.reshape(shape)

    @cached_property
    def space_meshes(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates per dimension, broadcastable to fields."""
        return tuple(c.reshape((1,) * (1 + axis) + (-1,) + (1,) * (self.dim - 1 - axis))
                     for axis, c in enumerate(self.cell_centers))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @cached_property
    def box_volume(self) -> float:
        return float(np.prod(self.extent))

    @cached_property
    def boundary_meshes(self) -> dict:
        """:func:`face_meshes` of every boundary face, built once per grid."""
        return {face: face_meshes(self, face) for face in boundary_faces(self)}

    def coarsen_time(self, factor: int) -> "Grid":
        """Grid with n_t (and n_a if aligned) divided by ``factor``; an error of the
        coarse grid names the coarsening."""
        if factor < 1:
            raise ConfigurationError(f"coarsening factor must be at least 1, got {factor}")
        if factor == 1:
            return self
        if self.n_t % factor:
            raise ConfigurationError(f"factor {factor} does not divide n_t={self.n_t}")
        n_t, n_a = self.n_t // factor, self.n_a
        if self.aligned:
            if self.n_a % factor:
                raise ConfigurationError(f"factor {factor} does not divide n_a={self.n_a}")
            n_a = self.n_a // factor
        try:
            return Grid(self.T, self.a_max, n_t, n_a, self.extent, self.n_x)
        except ConfigurationError as exc:
            raise ConfigurationError(f"coarsening n_t = {self.n_t} by {factor}: {exc}") from exc


@dataclass(frozen=True)
class SubDomain:
    """Axis-aligned sub-box of the spatial domain, given in coordinates."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in np.atleast_1d(self.lo)))
        object.__setattr__(self, "hi", tuple(float(v) for v in np.atleast_1d(self.hi)))

    def cell_slices(self, grid: Grid) -> tuple[slice, ...]:
        """Slices of cells covered by the box; edges must sit on cell faces."""
        if len(self.lo) != grid.dim or len(self.hi) != grid.dim:
            raise ConfigurationError("sub-domain dimension does not match the grid")
        slices = []
        for lo, hi, d, n in zip(self.lo, self.hi, grid.dx, grid.n_x):
            ilo, ihi = lo / d, hi / d
            if abs(ilo - round(ilo)) > 1e-9 or abs(ihi - round(ihi)) > 1e-9:
                raise ConfigurationError(
                    f"sub-domain edge ({lo}, {hi}) is not aligned to the grid"
                )
            ilo, ihi = int(round(ilo)), int(round(ihi))
            if not (0 <= ilo < ihi <= n):
                raise ConfigurationError(f"sub-domain ({lo}, {hi}) is outside the box")
            slices.append(slice(ilo, ihi))
        return tuple(slices)

    def volume(self) -> float:
        return float(np.prod([h - l for l, h in zip(self.lo, self.hi)]))


def _as_values(f, grid: Grid) -> np.ndarray:
    """The values of a field, or of a stack of fields with leading (path) axes."""
    arr = np.asarray(f, dtype=float)
    if arr.shape[max(arr.ndim - grid.dim - 1, 0):] != grid.field_shape:
        raise InvalidFieldError(
            f"array shape {arr.shape} does not match grid {grid.field_shape}"
        )
    return arr


def _scaled_sum(values: np.ndarray, axes: tuple, scale: float, refine=None) -> np.ndarray:
    """The sum of ``values`` over ``axes`` times ``scale``; where that is not
    finite, the sum of the values times ``scale`` (a finite result keeps its
    bits), then ``refine`` of it if given.  Call it with overflow ignored: a
    sum past a float, whose scaled sum may not be, is expected here."""
    total = values.sum(axis=axes) * scale
    if not (finite := np.isfinite(total)).all():
        total = np.where(finite, total, (values * scale).sum(axis=axes))
        total = total if refine is None else refine(total)
    return total


def _integral(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum over the age and space axes, one entry per leading (path) index,
    times the cell volume, by :func:`_scaled_sum`."""
    return _scaled_sum(values, tuple(range(-grid.dim - 1, 0)), grid.cell_volume)


def _scalar_or_stack(x):
    """A Python float for one field, the array for a stack of fields."""
    return float(x) if np.ndim(x) == 0 else x


def l2_norm(f, grid: Grid, strict: bool = True) -> float:
    """Discrete L2 norm over age and space.

    Trapezoid in age, midpoint in space:
    ``sqrt(sum f^2 * w_age * dx^d)``.  Zero iff the field vanishes.  A stack
    of fields (leading path axes) gives one norm per field.  A non-finite
    entry raises :class:`InvalidFieldError`, or makes the norm NaN if not ``strict``;
    a norm past a float is ``inf``.
    """
    vals, axes = _as_values(f, grid), tuple(range(-grid.dim - 1, 0))

    def nonfinite(total):   # a non-finite entry gives a non-finite sum (weights > 0)
        bad = ~np.all(np.isfinite(vals), axis=axes)
        if strict and np.any(bad):
            raise InvalidFieldError("field contains non-finite entries")
        return np.where(bad, np.nan, total)
    with np.errstate(over="ignore"):
        sq = vals * vals
        sq *= grid.age_weight_field
        total = _scaled_sum(sq, axes, grid.cell_volume, nonfinite)
    return _scalar_or_stack(np.sqrt(total))


def weighted_population(f, weight, region: SubDomain | None, grid: Grid) -> float:
    """Weighted total population ``int weight * f`` over age and a sub-box.

    ``weight`` is an array broadcastable to the grid.  ``region=None``
    integrates over the whole box.  A stack of fields (leading path axes)
    gives one value per field.
    """
    vals = _as_values(f, grid)
    w = np.asarray(weight, dtype=float)
    if w.shape != grid.field_shape:
        w = np.broadcast_to(w, grid.field_shape)
    integrand = w * vals
    integrand *= grid.age_weight_field
    if region is not None:
        integrand = integrand[(Ellipsis, slice(None)) + region.cell_slices(grid)]
    with np.errstate(over="ignore"):
        return _scalar_or_stack(_integral(integrand, grid))


@dataclass(frozen=True)
class Face:
    """One face of the spatial box: ``axis`` plus low (0) or high (1) side."""

    axis: int
    side: int

    def coordinate(self, grid: Grid) -> float:
        return 0.0 if self.side == 0 else grid.extent[self.axis]


def boundary_faces(grid: Grid) -> tuple[Face, ...]:
    return tuple(Face(axis, side) for axis in range(grid.dim) for side in (0, 1))


def face_shape(grid: Grid, face: Face) -> tuple[int, ...]:
    """Shape of data living on the age nodes of one boundary face."""
    other = tuple(n for ax, n in enumerate(grid.n_x) if ax != face.axis)
    return (grid.n_a + 1, *other)


def face_meshes(grid: Grid, face: Face) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Age mesh and coordinate arrays on a face, broadcastable to its shape."""
    shape = face_shape(grid, face)
    ndim = len(shape)
    ages = grid.ages.reshape((-1,) + (1,) * (ndim - 1))
    coords: list[np.ndarray] = []
    pos = 1
    for ax in range(grid.dim):
        if ax == face.axis:
            coords.append(np.asarray(face.coordinate(grid)))
        else:
            sh = [1] * ndim
            sh[pos] = grid.n_x[ax]
            coords.append(grid.cell_centers[ax].reshape(sh))
            pos += 1
    return ages, tuple(coords)


def face_measure(grid: Grid, face: Face) -> float:
    """Surface measure of one face cell (counting measure for d = 1)."""
    if grid.dim == 1:
        return 1.0
    other = [d for ax, d in enumerate(grid.dx) if ax != face.axis]
    return float(np.prod(other))


def boundary_norm_sq(face_data: dict, grid: Grid) -> float:
    """Squared L2 norm over age and the whole boundary of per-face data
    (one per field when the face data carry leading path axes); a norm past
    a float is ``inf``."""
    total = 0.0
    face_axes = tuple(range(-grid.dim, 0))
    w = grid.age_weights.reshape((-1,) + (1,) * (grid.dim - 1))
    with np.errstate(over="ignore"):
        for face in boundary_faces(grid):
            vals = np.asarray(face_data[face], dtype=float)
            total = total + _scaled_sum(vals * vals * w, face_axes, face_measure(grid, face))
    return _scalar_or_stack(total)


def forward_differences(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """One-sided spatial difference quotients per dimension (face values)."""
    out = [np.diff(values, axis=values.ndim - grid.dim + axis) for axis in range(grid.dim)]
    for diff, d in zip(out, grid.dx):
        diff /= d
    return out


def gradient_energy(f, grid: Grid) -> float:
    """Squared L2 norm of the forward-difference spatial gradient (one per
    field for a stack of fields)."""
    vals = _as_values(f, grid)
    age_w = grid.age_weights.reshape((-1,) + (1,) * grid.dim)
    total = 0.0
    with np.errstate(over="ignore"):
        for diff in forward_differences(vals, grid):
            diff *= diff
            total += _integral(np.multiply(diff, age_w, out=diff), grid)
    return _scalar_or_stack(total)
