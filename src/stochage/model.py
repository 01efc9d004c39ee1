"""Problem definition shared by both solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidFieldError
from .grid import Grid, SubDomain, l2_norm, weighted_population
from .noise import BrownianBundle, NoiseSpec
from .rates import VitalRates, evaluate_gamma


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Grid, vital rates, noise modes, initial density and weighting region.

    ``region`` is the sub-box over which the nonlocal population
    functional integrates; ``None`` means the whole habitat.  The model keeps a
    read-only copy of the initial density ``p0``, whose entries, squared norm (the
    energy bound reads it) and population functional ``U`` must be finite floats.
    """

    grid: Grid
    rates: VitalRates
    noise: NoiseSpec
    p0: np.ndarray
    region: SubDomain | None = None

    def __post_init__(self):
        p0 = np.array(self.p0, dtype=float)
        if p0.shape != self.grid.field_shape:
            raise ConfigurationError(f"p0 has shape {p0.shape}, not {self.grid.field_shape}")
        if not np.all(np.isfinite(p0)):
            raise InvalidFieldError("p0 contains non-finite entries")
        p0.setflags(write=False)
        object.__setattr__(self, "p0", p0)
        if self.region is not None:
            self.region.cell_slices(self.grid)
        with np.errstate(over="ignore", invalid="ignore"):   # named below instead
            energy = np.square(l2_norm(p0, self.grid))
            u0 = weighted_population(p0, evaluate_gamma(self.rates, self.grid),
                                     self.region, self.grid)
        if not np.isfinite(energy):
            raise ConfigurationError("p0 has a squared L2 norm that overflows a float")
        if not np.isfinite(u0):
            raise ConfigurationError(
                "gamma with p0 gives a population functional U that overflows a float")

    def check_bundle(self, bundle: BrownianBundle) -> None:
        """Raise unless ``bundle`` has one path per noise mode on the time grid."""
        grid = self.grid
        if bundle.n_t != grid.n_t or abs(bundle.dt - grid.dt) > 1e-12 * grid.dt:
            raise ConfigurationError(
                f"bundle grid (n_t={bundle.n_t}, dt={bundle.dt:.3g}) does not "
                f"match the model grid (n_t={grid.n_t}, dt={grid.dt:.3g})")
        if bundle.n_paths != self.noise.n_modes:
            raise ConfigurationError(
                f"bundle has {bundle.n_paths} paths but the noise spec has "
                f"{self.noise.n_modes} amplitudes")

    @property
    def region_volume(self) -> float:
        if self.region is None:
            return self.grid.box_volume
        return self.region.volume()
