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
from .grid import Face, Field, boundary_faces, boundary_norm_sq
from .model import PopulationModel
from .noise import AmplitudeGrids, BrownianBundle, evaluate_noise, ito_correction
from .rates import evaluate_on_faces, evaluate_on_grid

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
class CoefficientSups:
    """Path-dependent coefficient bounds gathered in one sweep."""

    g1_sup: float
    g2_sup: float
    div_g2_sup: float
    c_w0: float
    c_w: float
    k_sq_integral: float


class RescaledCoefficients:
    """Coefficient evaluators for one model and one Brownian bundle.

    Amplitude grids are sampled once; per time node the noise field and
    everything derived from it is cached so the fixed-point loop can
    re-query the same node cheaply.
    """

    def __init__(self, model: PopulationModel, bundle: BrownianBundle):
        grid = model.grid
        model.check_bundle(bundle)
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
        self.mu = ito_correction(model.noise, grid, self.amp_grids).values
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

    def _node(self, t_index: int, key: str, make):
        """``make(noise field)`` at ``t_index``, cached with the node."""
        c = self._at(t_index)
        if key not in c:
            c[key] = make(c["noise"])
        return c[key]

    def g1(self, t_index: int) -> np.ndarray:
        return self._node(t_index, "g1", lambda nf: (
            nf.d_age - nf.laplacian - sum(g * g for g in nf.gradient) + self.mu))

    def g2(self, t_index: int) -> tuple[np.ndarray, ...]:
        return self._node(t_index, "g2", lambda nf: tuple(-2.0 * g for g in nf.gradient))

    def exp_w(self, t_index: int) -> np.ndarray:
        return self._node(t_index, "exp_w", lambda nf: _guarded_exp(nf.value))

    def exp_w_minus_w0(self, t_index: int) -> np.ndarray:
        """exp(W(t,a,x) - W(t,0,x)), the fertility rescaling factor."""
        return self._node(t_index, "exp_dw0",
                          lambda nf: _guarded_exp(nf.value - nf.value[:1]))

    def k_face(self, face: Face, t_index: int) -> np.ndarray:
        """Rescaled Robin datum ``k0 exp(-W)`` on one face."""
        k0 = self._node(t_index, "k0", lambda _: evaluate_on_faces(
            self.model.rates.k0, self.grid, self.grid.times[t_index]))
        w = np.tensordot(self.bundle.betas[:, t_index],
                         self.amp_grids.face_values[face], axes=1)
        return k0[face] * _guarded_exp(-w)

    def k_faces(self, t_index: int) -> dict:
        return self._node(t_index, "k", lambda _: {
            f: self.k_face(f, t_index) for f in boundary_faces(self.grid)})

    def alpha_faces(self, t_index: int) -> dict:
        """Robin coefficient: passes through unchanged because the noise
        amplitudes have zero normal derivative on the boundary."""
        return evaluate_on_faces(self.model.rates.alpha0, self.grid,
                                 self.grid.times[t_index])

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
                nf = self._at(i)["noise"]
                grad_sq = sum(g * g for g in nf.gradient)
                g1_sup = max(g1_sup, float(np.max(np.abs(self.g1(i)))))
                g2_sup = max(g2_sup, 2.0 * float(np.sqrt(np.max(grad_sq))))
                div_sup = max(div_sup, 2.0 * float(np.max(np.abs(nf.laplacian))))
                w_max = max(w_max, float(np.max(np.abs(nf.value))))
                dw0_max = max(dw0_max, float(np.max(nf.value - nf.value[:1])))
                k_sq[i] = boundary_norm_sq(self.k_faces(i), grid)
            if w_max > EXP_GUARD:
                raise NoiseMagnitudeError(w_max)
            tw = np.full(grid.n_t + 1, grid.dt)
            tw[0] = tw[-1] = 0.5 * grid.dt
            self._sups = CoefficientSups(
                g1_sup=g1_sup, g2_sup=g2_sup, div_g2_sup=div_sup,
                c_w0=float(np.exp(dw0_max)), c_w=float(np.exp(w_max)),
                k_sq_integral=float(np.sum(k_sq * tw)))
        return self._sups
