"""Model definition files: INI-style key-value text.

Schema (sections and keys; unknown keys are rejected)::

    [grid]
    dim = 1                  # 1 or 2
    t_final = 1.0
    a_max = 1.0
    n_t = 64
    n_a = 64
    extent = 1.0             # comma-separated, one per dimension
    n_x = 16                 # comma-separated, one per dimension

    [rates]                  # value syntax: family:arg,arg,...
    mu_s = constant:0.3      # constant:c | logistic:base,amp,slope[,center]
    m0 = window:0.2,0.8,1.5  # | window:lo,hi,value | table:a:v;a:v;...
    gamma = constant:0.0
    alpha0 = constant:0.0
    k0 = constant:0.0

    [noise]                  # one key per amplitude, any names
    mu1 = cosine:0.25:1      # cosine:c:k[,k2]  (zero normal derivative)
    mu2 = agepoly:0.1,0.05   # agepoly:c0,c1,...  (constant in space)
                             # agecos:c:k[,k2]:c0,c1,...  product mode
                             # constant:c        sine:c:k[,k2]

    [initial]
    p0 = ageexp:1.0,1.0      # amp*exp(-rate*a) | agegauss:amp,center,width
                             # | constant:c
    space_mode = 0.0,1       # optional (1 + eps*cos(k*pi*x/L)) factor

    [population_functional]
    region = full            # or box:lo,hi[,lo2,hi2]

    [solver]
    picard_tol = 1e-10
    picard_max_iter = 50
    diffusion = true
    truncation_radius = auto # or a number
    snapshot_stride = 1
    c0 = 1.0                 # calibration of the energy-bound checks
    c1 = 1.0
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, SubDomain
from .model import PopulationModel
from .noise import (Amplitude, NoiseSpec, age_polynomial_amplitude,
                    constant_amplitude, cosine_amplitude, sine_amplitude)
from .rates import (AgeProfileRate, AgeWindowRate, ConstantRate, InitialData,
                    LogisticRate, VitalRates, initial_field)
from .solver import SolverConfig

_KNOWN = {
    "grid": {"dim", "t_final", "a_max", "n_t", "n_a", "extent", "n_x"},
    "rates": {"mu_s", "m0", "gamma", "alpha0", "k0"},
    "noise": None,  # any keys
    "initial": {"p0", "space_mode"},
    "population_functional": {"region"},
    "solver": {"picard_tol", "picard_max_iter", "diffusion",
               "truncation_radius", "snapshot_stride", "c0", "c1"},
}


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse numbers from {text!r}") from exc


def parse_rate(text: str):
    family, _, rest = text.strip().partition(":")
    if family == "constant":
        (c,) = _floats(rest)
        return ConstantRate(c)
    if family == "logistic":
        args = _floats(rest)
        if len(args) == 3:
            args.append(0.0)
        if len(args) != 4:
            raise ConfigurationError(f"logistic rate needs 3 or 4 numbers: {text!r}")
        return LogisticRate(*args)
    if family == "window":
        lo, hi, val = _floats(rest)
        return AgeWindowRate(lo, hi, val)
    if family == "table":
        pairs = [pair.split(":") for pair in rest.split(";")]
        try:
            pts = tuple(float(p[0]) for p in pairs)
            vals = tuple(float(p[1]) for p in pairs)
        except (IndexError, ValueError) as exc:
            raise ConfigurationError(f"bad rate table {text!r}") from exc
        return AgeProfileRate(pts, vals)
    raise ConfigurationError(f"unknown rate family {family!r}")


def parse_amplitude(text: str, dim: int, extent) -> Amplitude:
    parts = text.strip().split(":")
    family = parts[0]
    if family == "constant":
        (c,) = _floats(parts[1])
        return constant_amplitude(c, dim)
    if family == "agepoly":
        return age_polynomial_amplitude(_floats(parts[1]), dim)
    if family in ("cosine", "sine"):
        (c,) = _floats(parts[1])
        modes = [int(v) for v in _floats(parts[2])]
        if len(modes) != dim:
            raise ConfigurationError(f"{family} amplitude needs one mode per dimension")
        ctor = cosine_amplitude if family == "cosine" else sine_amplitude
        return ctor(c, modes, extent)
    if family == "agecos":
        (c,) = _floats(parts[1])
        modes = [int(v) for v in _floats(parts[2])]
        coeffs = _floats(parts[3])
        return cosine_amplitude(c, modes, extent, age_coeffs=coeffs)
    raise ConfigurationError(f"unknown amplitude family {family!r}")


def _parse_initial(grid: Grid, spec: str, space_mode: str | None) -> InitialData:
    family, _, rest = spec.strip().partition(":")
    if family == "ageexp":
        amp, rate = _floats(rest)
        base = lambda a: amp * np.exp(-rate * a)
    elif family == "agegauss":
        amp, center, width = _floats(rest)
        base = lambda a: amp * np.exp(-((a - center) / width) ** 2)
    elif family == "constant":
        (c,) = _floats(rest)
        base = lambda a: np.full_like(np.asarray(a, dtype=float), c)
    else:
        raise ConfigurationError(f"unknown initial-data family {family!r}")
    if space_mode:
        vals = _floats(space_mode)
        eps, k = vals[0], int(vals[1])
        L = grid.extent[0]

        def fn(a, *x):
            return base(a) * (1.0 + eps * np.cos(k * np.pi * x[0] / L))
    else:
        def fn(a, *x):
            shape = np.broadcast_shapes(np.shape(a), *map(np.shape, x))
            return np.broadcast_to(base(a), shape)
    return initial_field(grid, fn)


def parse_model(path, coarsen: int = 1) -> tuple[PopulationModel, SolverConfig]:
    """Parse a model definition file into the model and solver settings.

    ``coarsen`` divides the time (and, on aligned grids, age) resolution
    by a power of two; initial data and rates are re-sampled analytically
    on the coarse grid so refinement studies stay consistent.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"model file {path} does not exist")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigurationError(f"unknown section [{section}]")
        known = _KNOWN[section]
        if known is not None:
            for key in cp[section]:
                if key not in known:
                    raise ConfigurationError(f"unknown key {key!r} in [{section}]")
    for required in ("grid", "initial"):
        if required not in cp:
            raise ConfigurationError(f"missing section [{required}]")

    g = cp["grid"]
    try:
        dim = g.getint("dim", 1)
        extent = _floats(g.get("extent", "1.0"))
        n_x = [int(v) for v in _floats(g.get("n_x", "8"))]
        if len(extent) == 1 and dim == 2:
            extent = extent * 2
        if len(n_x) == 1 and dim == 2:
            n_x = n_x * 2
        grid = Grid(T=g.getfloat("t_final"), a_max=g.getfloat("a_max"),
                    n_t=g.getint("n_t"), n_a=g.getint("n_a"),
                    extent=tuple(extent), n_x=tuple(n_x))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad [grid] section: {exc}") from exc
    if grid.dim != dim:
        raise ConfigurationError("dim does not match extent/n_x")
    if coarsen != 1:
        grid = grid.coarsen_time(int(coarsen))

    r = cp["rates"] if "rates" in cp else {}
    rates = VitalRates(
        mu_s=parse_rate(r.get("mu_s", "constant:0")),
        m0=parse_rate(r.get("m0", "constant:0")),
        gamma=parse_rate(r.get("gamma", "constant:0")),
        alpha0=parse_rate(r.get("alpha0", "constant:0")),
        k0=parse_rate(r.get("k0", "constant:0")),
    )

    amps = []
    if "noise" in cp:
        for key in cp["noise"]:
            amps.append(parse_amplitude(cp["noise"][key], grid.dim, grid.extent))
    if not amps:
        amps.append(constant_amplitude(0.0, grid.dim))
    noise = NoiseSpec(tuple(amps))

    ini = _parse_initial(grid, cp["initial"].get("p0", "constant:1"),
                         cp["initial"].get("space_mode", None))

    region = None
    if "population_functional" in cp:
        spec = cp["population_functional"].get("region", "full").strip()
        if spec != "full":
            family, _, rest = spec.partition(":")
            if family != "box":
                raise ConfigurationError(f"unknown region {spec!r}")
            vals = _floats(rest)
            if len(vals) != 2 * grid.dim:
                raise ConfigurationError("region box needs lo,hi per dimension")
            lo = tuple(vals[0::2])
            hi = tuple(vals[1::2])
            region = SubDomain(lo, hi)

    config = SolverConfig()
    if "solver" in cp:
        s = cp["solver"]
        try:
            radius = s.get("truncation_radius", "auto").strip()
            settings = dict(
                picard_tol=s.getfloat("picard_tol", config.picard_tol),
                picard_max_iter=s.getint("picard_max_iter", config.picard_max_iter),
                include_diffusion=s.getboolean("diffusion", True),
                truncation_radius=None if radius == "auto" else float(radius),
                snapshot_stride=s.getint("snapshot_stride", config.snapshot_stride),
                c0=s.getfloat("c0", config.c0),
                c1=s.getfloat("c1", config.c1))
        except ValueError as exc:
            raise ConfigurationError(f"bad [solver] section: {exc}") from exc
        # through the constructor, so its checks see the file's values
        config = SolverConfig(**settings)

    model = PopulationModel(grid=grid, rates=rates, noise=noise,
                            initial=ini, region=region)
    return model, config
