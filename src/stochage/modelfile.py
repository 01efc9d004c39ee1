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
                             # (table ages strictly increasing)
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
from .rates import AgeProfileRate, AgeWindowRate, ConstantRate, LogisticRate, VitalRates
from .solver import SolverConfig

_KNOWN = {
    "grid": {"dim", "t_final", "a_max", "n_t", "n_a", "extent", "n_x"},
    "rates": {"mu_s", "m0", "gamma", "alpha0", "k0"},
    "noise": None,  # any keys
    "initial": {"p0", "space_mode"},
    "population_functional": {"region"},
    "solver": {"picard_tol", "picard_max_iter", "diffusion",
               "truncation_radius", "c0", "c1"},
}


def _floats(text: str, value: str = "") -> list[float]:
    """The comma-separated numbers of ``text``, a part of ``value``; none may be empty."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse numbers from {value or text!r}") from exc
    if not all(np.isfinite(vals)):
        raise ConfigurationError(f"{text!r} has a number that is not finite")
    return vals


def _numbers(text: str, value: str, *counts: int) -> list[float]:
    """The numbers of ``text``, a part of ``value``, when there are as many
    as one of ``counts``."""
    vals = _floats(text, value)
    if len(vals) not in counts:
        raise ConfigurationError(
            f"{value!r} has {len(vals)} numbers where "
            f"{' or '.join(map(str, counts))} are needed")
    return vals


def _whole(v: float, value: str) -> int:
    """``v``, a number of ``value``, as an int when it is a whole number."""
    if not float(v).is_integer():
        raise ConfigurationError(f"{value!r} has {v} where a whole number is needed")
    return int(v)


def parse_rate(text: str):
    family, _, rest = text.strip().partition(":")
    if family == "constant":
        return ConstantRate(*_numbers(rest, text, 1))
    if family == "logistic":
        return LogisticRate(*_numbers(rest, text, 3, 4))
    if family == "window":
        return AgeWindowRate(*_numbers(rest, text, 3))
    if family == "table":
        pairs = [pair.split(":") for pair in rest.split(";")]
        try:
            pts = tuple(float(p[0]) for p in pairs)
            vals = tuple(float(p[1]) for p in pairs)
        except (IndexError, ValueError) as exc:
            raise ConfigurationError(f"bad rate table {text!r}") from exc
        return AgeProfileRate(pts, vals)
    raise ConfigurationError(f"unknown rate family {family!r}")


def _lowest(rate) -> float:
    """The lowest value a rate of :func:`parse_rate` takes over its whole range."""
    if isinstance(rate, LogisticRate):
        return rate.base + min(rate.amp, 0.0)
    if isinstance(rate, AgeProfileRate):
        return min(rate.values)
    return rate.value   # constant, or a window (zero outside it)


# ':'-separated fields after the family name
_AMPLITUDE_FIELDS = {"constant": 1, "agepoly": 1, "cosine": 2, "sine": 2, "agecos": 3}


def parse_amplitude(text: str, dim: int, extent) -> Amplitude:
    family, *fields = text.strip().split(":")
    if family not in _AMPLITUDE_FIELDS:
        raise ConfigurationError(f"unknown amplitude family {family!r}")
    if len(fields) != _AMPLITUDE_FIELDS[family]:
        raise ConfigurationError(
            f"{text!r} needs {_AMPLITUDE_FIELDS[family]} ':'-separated fields "
            f"after {family!r}")
    if family == "agepoly":
        return age_polynomial_amplitude(_floats(fields[0], text), dim)
    (c,) = _numbers(fields[0], text, 1)
    if family == "constant":
        return constant_amplitude(c, dim)
    # the amplitude checks that there is one mode per dimension
    modes = [_whole(v, text) for v in _floats(fields[1], text)]
    if family == "agecos":
        return cosine_amplitude(c, modes, extent, age_coeffs=_floats(fields[2], text))
    ctor = cosine_amplitude if family == "cosine" else sine_amplitude
    return ctor(c, modes, extent)


def _parse_initial(grid: Grid, spec: str, space_mode: str | None) -> np.ndarray:
    family, _, rest = spec.strip().partition(":")
    if family == "ageexp":
        amp, rate = _numbers(rest, spec, 2)
        base = lambda a: amp * np.exp(-rate * a)
    elif family == "agegauss":
        amp, center, width = _numbers(rest, spec, 3)
        if width == 0.0:
            raise ConfigurationError(f"p0 = {spec.strip()} has width 0; a Gaussian needs a "
                                     f"nonzero width")
        base = lambda a: amp * np.exp(-((a - center) / width) ** 2)
    elif family == "constant":
        (c,) = _numbers(rest, spec, 1)
        base = lambda a: np.full_like(np.asarray(a, dtype=float), c)
    else:
        raise ConfigurationError(f"unknown initial-data family {family!r}")
    if space_mode:
        eps, k = _numbers(space_mode, f"space_mode = {space_mode}", 2)
        k = _whole(k, space_mode)
    with np.errstate(over="ignore", invalid="ignore"):   # named below instead
        values = base(grid.age_mesh)   # one value per age
        if space_mode:
            values = values * (1.0 + eps * np.cos(k * np.pi * grid.space_meshes[0]
                                                  / grid.extent[0]))
        values = np.broadcast_to(values, grid.field_shape)
    if not (np.all(np.isfinite(values)) and np.min(values) >= 0.0):
        raise ConfigurationError(
            f"p0 = {spec.strip()}{f' with space_mode = {space_mode}' if space_mode else ''} "
            f"must give a finite initial density >= 0, got values from {np.min(values):.4g} "
            f"to {np.max(values):.4g}")
    if family == "agegauss" and amp != 0.0 and not np.any(values):
        raise ConfigurationError(f"p0 = {spec.strip()} is 0 on every node of the grid; "
                                 f"its Gaussian misses the age nodes")
    return values


def parse_model(path, coarsen: int = 1, data=None) -> tuple[PopulationModel, SolverConfig]:
    """Parse a model definition file into the model and solver settings.

    ``coarsen`` divides the time (and, on aligned grids, age) resolution
    by a power of two; initial data and rates are re-sampled analytically
    on the coarse grid so refinement studies stay consistent.  ``data``
    holds the file's bytes when they were read already; they must be UTF-8.
    """
    path = Path(path)
    try:
        data = path.read_bytes() if data is None else data
    except OSError as exc:
        raise ConfigurationError(f"cannot read model file {path}: {exc}") from exc
    cp = configparser.ConfigParser()
    try:
        cp.read_string(data.decode("utf-8"), source=str(path))
    except (UnicodeDecodeError, configparser.Error) as exc:
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
        n_x = [_whole(v, g.get("n_x", "8")) for v in _floats(g.get("n_x", "8"))]
        if len(extent) == 1 and dim == 2:
            extent = extent * 2
        if len(n_x) == 1 and dim == 2:
            n_x = n_x * 2
        grid = Grid(T=float(g["t_final"]), a_max=float(g["a_max"]),
                    n_t=int(g["n_t"]), n_a=int(g["n_a"]),
                    extent=tuple(extent), n_x=tuple(n_x))
    except KeyError as exc:
        raise ConfigurationError(f"missing key {exc} in [grid]") from None
    except ValueError as exc:
        raise ConfigurationError(f"bad [grid] section: {exc}") from exc
    if grid.dim != dim:
        raise ConfigurationError("dim does not match extent/n_x")
    if coarsen != 1:
        grid = grid.coarsen_time(int(coarsen))

    r = cp["rates"] if "rates" in cp else {}
    rate_text = {key: r.get(key, "constant:0") for key in ("mu_s", "m0", "gamma", "alpha0", "k0")}
    rates = {}
    for key, text in rate_text.items():
        try:
            rates[key] = parse_rate(text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key} = {text}: {exc}") from None
    rates = VitalRates(**rates)
    for key in ("mu_s", "m0", "gamma", "alpha0"):   # the rates and alpha0 are nonnegative
        if not _lowest(getattr(rates, key)) >= 0.0:
            raise ConfigurationError(f"{key} = {rate_text[key]} must be >= 0 everywhere, "
                                     f"got a lowest value of {_lowest(getattr(rates, key)):.4g}")
    for key in ("mu_s", "m0", "k0"):   # the energy bound and the Robin norm square these
        with np.errstate(over="ignore"):   # named below instead
            square = np.square(getattr(rates, key).sup)
        if not np.isfinite(square):
            raise ConfigurationError(f"{key} = {rate_text[key]} has a sup whose square "
                                     f"overflows a float")

    modes = cp["noise"] if "noise" in cp else {}
    amps = [parse_amplitude(modes[key], grid.dim, grid.extent) for key in modes]
    squares = 0.0   # the Ito correction is half their sum
    for key, amp in zip(modes, amps):
        with np.errstate(over="ignore", invalid="ignore"):
            squares = squares + np.square(amp.fn(grid.age_mesh, *grid.space_meshes))
        if not np.all(np.isfinite(squares)):
            raise ConfigurationError(
                f"{key} = {modes[key]} makes the Ito correction overflow a float on the grid")
    noise = NoiseSpec(tuple(amps or [constant_amplitude(0.0, grid.dim)]))

    p0_text = cp["initial"].get("p0", "constant:1")
    p0 = _parse_initial(grid, p0_text, cp["initial"].get("space_mode", None))

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
            region = SubDomain(tuple(vals[0::2]), tuple(vals[1::2]))

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
                c0=s.getfloat("c0", config.c0),
                c1=s.getfloat("c1", config.c1))
        except ValueError as exc:
            raise ConfigurationError(f"bad [solver] section: {exc}") from exc
        # through the constructor, so its checks see the file's values
        config = SolverConfig(**settings)

    try:
        model = PopulationModel(grid=grid, rates=rates, noise=noise, p0=p0, region=region)
    except ConfigurationError as exc:   # the model names its data by key: add the file's values
        named = {"p0": p0_text, "gamma": rate_text["gamma"]}
        raise ConfigurationError(" ".join(f"{word} = {named[word]}" if word in named else word
                                          for word in str(exc).split(" "))) from None
    return model, config
