"""Problem definition shared by both solvers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .grid import Field, Grid, SubDomain
from .noise import BrownianBundle, NoiseSpec
from .rates import VitalRates


@dataclass(frozen=True)
class PopulationModel:
    """Grid, vital rates, noise modes, initial density and weighting region.

    ``region`` is the sub-box over which the nonlocal population
    functional integrates; ``None`` means the whole habitat.
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
