"""Exponential change of variables between the noisy and pathwise systems.

Writing the population density as ``p = exp(W) y`` turns the
multiplicative-noise equation for ``p`` into a deterministic
transport-diffusion-renewal system for ``y`` with path-dependent
coefficients:

* zeroth order   ``g1 = W_a - lap(W) - |grad W|^2 + mu``  with the Ito
  correction ``mu = 0.5 sum_j mu_j^2``,
* first order    ``g2 = -2 grad W``,
* Robin data     ``alpha`` unchanged (normal derivative of W vanishes)
  and ``k = k0 exp(-W)``,
* fertility      ``m(t,a,x;r) = m0(a,x;r) exp(W(t,a,x) - W(t,0,x))``.

This module evaluates those coefficients on the grid for one sampled
bundle of Brownian paths and provides the transform and its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NoiseMagnitudeError
from .grid import Face, Field, boundary_faces, boundary_norm_sq, face_meshes
from .model import PopulationModel
from .noise import AmplitudeGrids, BrownianBundle, NoiseField, evaluate_noise
from .rates import evaluate_on_grid

EXP_GUARD = 700.0


def _guarded_exp(w: np.ndarray) -> np.ndarray:
    m = float(np.max(np.abs(w))) if w.size else 0.0
    if m > EXP_GUARD:
        raise NoiseMagnitudeError(m)
    return np.exp(w)


def forward_transform(y: Field, w) -> Field:
    """Map the rescaled state back to the population density, ``p = exp(W) y``."""
    w_vals = w.values if isinstance(w, Field) else np.asarray(w, dtype=float)
    return Field(_guarded_exp(w_vals) * y.values, y.grid, copy=False)


def backward_transform(p: Field, w) -> Field:
    """Inverse map ``y = exp(-W) p``; exact inverse of :func:`forward_transform`."""
    w_vals = w.values if isinstance(w, Field) else np.asarray(w, dtype=float)
    return Field(_guarded_exp(-w_vals) * p.values, p.grid, copy=False)


@dataclass(frozen=True)
class RescaleConstants:
    """Sup bounds of the exponential factors over the sampled path."""

    c_w0: float   # sup of exp(W(t,a,x) - W(t,0,x))
    c_w: float    # exp of sup |W|
    m_inf: float  # c_w0 times the fertility bound


@dataclass(frozen=True)
class CoefficientSups:
    """Path-dependent coefficient bounds gathered in one sweep."""

    g1_sup: float
    g2_sup: float
    div_g2_sup: float
    c_w0: float
    c_w: float
    k_sq_integral: float
    k_sq_series: np.ndarray


class RescaledCoefficients:
    """Coefficient evaluators for one model and one Brownian bundle.

    Amplitude grids are sampled once; per time node the noise field and
    everything derived from it is cached so the fixed-point loop can
    re-query the same node cheaply.
    """

    def __init__(self, model: PopulationModel, bundle: BrownianBundle):
        grid = model.grid
        if bundle.n_t != grid.n_t or abs(bundle.dt - grid.dt) > 1e-12 * grid.dt:
            raise ConfigurationError(
                f"bundle grid (n_t={bundle.n_t}, dt={bundle.dt:.3g}) does not "
                f"match the model grid (n_t={grid.n_t}, dt={grid.dt:.3g})")
        if bundle.n_paths != model.noise.n_modes:
            raise ConfigurationError(
                f"bundle has {bundle.n_paths} paths but the noise spec has "
                f"{model.noise.n_modes} amplitudes")
        # alpha passes through unchanged only when every amplitude has zero
        # normal derivative on the boundary; otherwise the answer is wrong
        if not model.noise.neumann_compatible:
            raise ConfigurationError(
                "the rescaled route needs noise amplitudes with zero normal "
                "derivative on the boundary (cosine, age-polynomial or "
                "constant modes); use the direct route for other modes")
        model.noise.check_neumann(grid)
        self.model = model
        self.grid = grid
        self.bundle = bundle
        self.amp_grids = AmplitudeGrids(model.noise, grid)
        self.mu = 0.5 * np.sum(self.amp_grids.values ** 2, axis=0)
        self._cache_index: int | None = None
        self._cache: dict = {}

    # -- per-node evaluation ------------------------------------------------

    def _at(self, t_index: int) -> dict:
        if t_index != self._cache_index:
            nf = evaluate_noise(self.model.noise, self.bundle, t_index,
                                self.grid, self.amp_grids)
            self._cache = {"noise": nf}
            self._cache_index = t_index
        return self._cache

    def noise_at(self, t_index: int) -> NoiseField:
        return self._at(t_index)["noise"]

    def g1(self, t_index: int) -> np.ndarray:
        c = self._at(t_index)
        if "g1" not in c:
            nf = c["noise"]
            grad_sq = sum(g * g for g in nf.gradient)
            c["g1"] = nf.d_age - nf.laplacian - grad_sq + self.mu
        return c["g1"]

    def g2(self, t_index: int) -> tuple[np.ndarray, ...]:
        c = self._at(t_index)
        if "g2" not in c:
            c["g2"] = tuple(-2.0 * g for g in self._at(t_index)["noise"].gradient)
        return c["g2"]

    def exp_w(self, t_index: int) -> np.ndarray:
        c = self._at(t_index)
        if "exp_w" not in c:
            c["exp_w"] = _guarded_exp(c["noise"].value)
        return c["exp_w"]

    def exp_w_minus_w0(self, t_index: int) -> np.ndarray:
        """exp(W(t,a,x) - W(t,0,x)), the fertility rescaling factor."""
        c = self._at(t_index)
        if "exp_dw0" not in c:
            w = c["noise"].value
            c["exp_dw0"] = _guarded_exp(w - w[:1])
        return c["exp_dw0"]

    def w_face(self, face: Face, t_index: int) -> np.ndarray:
        c = self._at(t_index)
        key = ("w_face", face)
        if key not in c:
            b = self.bundle.betas[:, t_index]
            c[key] = np.tensordot(b, self.amp_grids.face_values[face], axes=1)
        return c[key]

    def alpha_face(self, face: Face, t_index: int) -> np.ndarray:
        """Robin coefficient: passes through unchanged because the noise
        amplitudes have zero normal derivative on the boundary."""
        ages, coords = face_meshes(self.grid, face)
        t = self.grid.times[t_index]
        out = self.model.rates.alpha0(t, ages, coords, 0.0)
        shape = (self.grid.n_a + 1,) + tuple(
            n for ax, n in enumerate(self.grid.n_x) if ax != face.axis)
        return np.broadcast_to(np.asarray(out, dtype=float), shape)

    def k0_face(self, face: Face, t_index: int) -> np.ndarray:
        ages, coords = face_meshes(self.grid, face)
        t = self.grid.times[t_index]
        out = self.model.rates.k0(t, ages, coords, 0.0)
        shape = (self.grid.n_a + 1,) + tuple(
            n for ax, n in enumerate(self.grid.n_x) if ax != face.axis)
        return np.broadcast_to(np.asarray(out, dtype=float), shape)

    def k_face(self, face: Face, t_index: int) -> np.ndarray:
        return self.k0_face(face, t_index) * _guarded_exp(-self.w_face(face, t_index))

    def k_faces(self, t_index: int) -> dict:
        return {f: self.k_face(f, t_index) for f in boundary_faces(self.grid)}

    def alpha_faces(self, t_index: int) -> dict:
        return {f: self.alpha_face(f, t_index) for f in boundary_faces(self.grid)}

    def mu_s_values(self, t_index: int, u_value: float) -> np.ndarray:
        t = self.grid.times[t_index]
        return evaluate_on_grid(self.model.rates.mu_s, self.grid, t, u_value)

    def m_values(self, t_index: int, u_value: float) -> np.ndarray:
        t = self.grid.times[t_index]
        m0 = evaluate_on_grid(self.model.rates.m0, self.grid, t, u_value)
        return m0 * self.exp_w_minus_w0(t_index)

    # -- whole-path bounds ----------------------------------------------------

    def coefficient_sups(self) -> CoefficientSups:
        """Sups of g1, |g2|, div g2 and the exponential factors over all nodes.

        Also accumulates the squared boundary norm of the rescaled Robin
        datum per time node (trapezoid in time for the integral).
        """
        if not hasattr(self, "_sups"):
            grid = self.grid
            g1_sup = g2_sup = div_sup = 0.0
            w_max = 0.0
            dw0_max = -np.inf
            k_sq = np.zeros(grid.n_t + 1)
            for i in range(grid.n_t + 1):
                nf = evaluate_noise(self.model.noise, self.bundle, i, grid,
                                    self.amp_grids)
                grad_sq = sum(g * g for g in nf.gradient)
                g1_sup = max(g1_sup, float(np.max(np.abs(
                    nf.d_age - nf.laplacian - grad_sq + self.mu))))
                g2_sup = max(g2_sup, 2.0 * float(np.sqrt(np.max(grad_sq))))
                div_sup = max(div_sup, 2.0 * float(np.max(np.abs(nf.laplacian))))
                w_max = max(w_max, float(np.max(np.abs(nf.value))))
                dw0_max = max(dw0_max, float(np.max(nf.value - nf.value[:1])))
                k_sq[i] = boundary_norm_sq(
                    {f: self.k_face(f, i) for f in boundary_faces(grid)}, grid)
            if w_max > EXP_GUARD:
                raise NoiseMagnitudeError(w_max)
            tw = np.full(grid.n_t + 1, grid.dt)
            tw[0] = tw[-1] = 0.5 * grid.dt
            self._sups = CoefficientSups(
                g1_sup=g1_sup, g2_sup=g2_sup, div_g2_sup=div_sup,
                c_w0=float(np.exp(dw0_max)), c_w=float(np.exp(w_max)),
                k_sq_integral=float(np.sum(k_sq * tw)), k_sq_series=k_sq)
        return self._sups


def build_coefficients(model: PopulationModel, bundle: BrownianBundle) -> RescaledCoefficients:
    """Coefficient evaluators closed over the sampled noise field."""
    return RescaledCoefficients(model, bundle)


def rescale_constants(model: PopulationModel, bundle: BrownianBundle) -> RescaleConstants:
    """Sup constants of the exponential factors for one sampled path."""
    sups = RescaledCoefficients(model, bundle).coefficient_sups()
    return RescaleConstants(c_w0=sups.c_w0, c_w=sups.c_w,
                            m_inf=sups.c_w0 * model.rates.m0_inf)
