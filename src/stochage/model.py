"""Problem definition shared by both solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Field, Grid, SubDomain, l2_norm, weighted_population
from .noise import BrownianBundle, NoiseSpec
from .rates import VitalRates, evaluate_gamma


@dataclass(frozen=True)
class PopulationModel:
    """Grid, vital rates, noise modes, initial density and weighting region.

    ``region`` is the sub-box over which the nonlocal population
    functional integrates; ``None`` means the whole habitat.  The initial
    density's squared norm, which the energy bound reads, and its
    population functional ``U`` must be finite floats.
    """

    grid: Grid
    rates: VitalRates
    noise: NoiseSpec
    p0: Field
    region: SubDomain | None = None

    def __post_init__(self):
        if self.p0.grid != self.grid:
            raise ConfigurationError("initial data lives on a different grid")
        if self.region is not None:
            self.region.cell_slices(self.grid)
        with np.errstate(over="ignore", invalid="ignore"):   # named below instead
            energy = np.square(l2_norm(self.p0))
            u0 = weighted_population(self.p0, evaluate_gamma(self.rates, self.grid),
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
