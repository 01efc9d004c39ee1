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
bundle of Brownian paths, or for a batch of them at once, and provides the
transform and its inverse.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NoiseMagnitudeError
from .grid import Face, Field, boundary_faces, boundary_norm_sq
from .model import PopulationModel
from .noise import BrownianBundle, NoiseField, amplitude_grids, ito_correction
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
    """Coefficient evaluators for one model and one Brownian bundle, or a
    batch of bundles.

    Given one bundle the coefficient fields have the grid's shape; given a
    sequence of bundles they carry a leading path axis.  Per time node the
    fields of every path are built at once and cached, so a caller can
    re-query the same node cheaply; the noise field they come from is not
    kept.
    """

    def __init__(self, model: PopulationModel,
                 bundles: BrownianBundle | Sequence[BrownianBundle]):
        grid = model.grid
        single = isinstance(bundles, BrownianBundle)
        self.bundles = [bundles] if single else list(bundles)
        for bundle in self.bundles:
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
        self.paths = () if single else (len(self.bundles),)
        self.amp_grids = amplitude_grids(model.noise, grid)
        self.mu = ito_correction(model.noise, grid, self.amp_grids).values
        self._cache_index: int | None = None
        self._cache: dict = {}
        self._sups = None

    # -- per-node evaluation ------------------------------------------------

    def _contract(self, amp: np.ndarray, t_index: int) -> np.ndarray:
        """``sum_j beta_j(t) amp[j]`` for every path.

        One BLAS product per path, the one ``np.tensordot`` of a path's
        node values makes: a product over the whole batch (``einsum``,
        ``matmul``) rounds differently for some mode counts and shapes, and
        a path's coefficients must not depend on its batch.
        """
        flat = amp.reshape(len(amp), -1)

        def one(bundle):
            return np.dot(bundle.betas[None, :, t_index], flat).reshape(amp.shape[1:])

        if not self.paths:
            return one(self.bundles[0])
        out = np.empty(self.paths + amp.shape[1:])
        for row, bundle in zip(out, self.bundles):
            row[...] = one(bundle)
        return out

    def _noise(self, t_index: int) -> NoiseField:
        grids = self.amp_grids
        return NoiseField(
            value=self._contract(grids.values, t_index),
            d_age=self._contract(grids.d_age, t_index),
            gradient=tuple(self._contract(g, t_index) for g in grids.gradients),
            laplacian=self._contract(grids.laplacians, t_index))

    def _g1(self, nf: NoiseField) -> np.ndarray:
        return nf.d_age - nf.laplacian - sum(g * g for g in nf.gradient) + self.mu

    def _node(self, t_index: int, key: str, make):
        """``make()`` at ``t_index``, cached with the node."""
        if t_index != self._cache_index:
            self._cache = {}
            self._cache_index = t_index
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def node_fields(self, t_index: int) -> dict:
        """``g1``, ``g2``, ``exp_w`` (``exp(W)``) and ``exp_dw0``
        (``exp(W - W(t,0,x))``) at one node, built afresh for a caller
        that holds them for the node (the fixed point); the accessors
        below cache them with the node instead."""
        nf = self._noise(t_index)
        w0 = nf.value[self.grid.rows(np.s_[:1])]
        return {"g1": self._g1(nf), "g2": tuple(-2.0 * g for g in nf.gradient),
                "exp_w": _guarded_exp(nf.value), "exp_dw0": _guarded_exp(nf.value - w0)}

    def _field(self, t_index: int, key: str):
        return self._node(t_index, "fields", lambda: self.node_fields(t_index))[key]

    def g1(self, t_index: int) -> np.ndarray:
        return self._field(t_index, "g1")

    def g2(self, t_index: int) -> tuple[np.ndarray, ...]:
        return self._field(t_index, "g2")

    def exp_w(self, t_index: int) -> np.ndarray:
        return self._field(t_index, "exp_w")

    def exp_w_minus_w0(self, t_index: int) -> np.ndarray:
        """exp(W(t,a,x) - W(t,0,x)), the fertility rescaling factor."""
        return self._field(t_index, "exp_dw0")

    def k_face(self, face: Face, t_index: int) -> np.ndarray:
        """Rescaled Robin datum ``k0 exp(-W)`` on one face."""
        k0 = self._node(t_index, "k0", lambda: evaluate_on_faces(
            self.model.rates.k0, self.grid, self.grid.times[t_index]))
        w = self._contract(self.amp_grids.face_values[face], t_index)
        return k0[face] * _guarded_exp(-w)

    def k_faces(self, t_index: int) -> dict:
        return self._node(t_index, "k", lambda: {
            f: self.k_face(f, t_index) for f in boundary_faces(self.grid)})

    def alpha_faces(self, t_index: int) -> dict:
        """Robin coefficient: passes through unchanged because the noise
        amplitudes have zero normal derivative on the boundary."""
        return evaluate_on_faces(self.model.rates.alpha0, self.grid,
                                 self.grid.times[t_index])

    def mu_s_values(self, t_index: int, u_value) -> np.ndarray:
        t = self.grid.times[t_index]
        return evaluate_on_grid(self.model.rates.mu_s, self.grid, t, u_value)

    def m0_values(self, t_index: int, u_value) -> np.ndarray:
        """The fertility before rescaling, ``m0``."""
        t = self.grid.times[t_index]
        return evaluate_on_grid(self.model.rates.m0, self.grid, t, u_value)

    def m_values(self, t_index: int, u_value) -> np.ndarray:
        return self.m0_values(t_index, u_value) * self.exp_w_minus_w0(t_index)

    # -- whole-path bounds ----------------------------------------------------

    def coefficient_sups(self) -> CoefficientSups | list[CoefficientSups]:
        """Sups of g1, |g2|, div g2 and the exponential factors over all nodes.

        Also accumulates the squared boundary norm of the rescaled Robin
        datum per time node (trapezoid in time for the integral).  A batch
        gets one set of sups per path, in a list.
        """
        if self._sups is None:
            grid = self.grid
            field_axes = tuple(range(-grid.dim - 1, 0))

            def sup(x):
                return np.max(x, axis=field_axes)

            g1_sup = g2_sup = div_sup = w_max = np.zeros(self.paths)
            dw0_max = np.full(self.paths, -np.inf)
            k_sq = np.zeros(self.paths + (grid.n_t + 1,))
            for i in range(grid.n_t + 1):
                nf = self._noise(i)
                grad_sq = sum(g * g for g in nf.gradient)
                g1_sup = np.maximum(g1_sup, sup(np.abs(self._g1(nf))))
                g2_sup = np.maximum(g2_sup, 2.0 * np.sqrt(sup(grad_sq)))
                div_sup = np.maximum(div_sup, 2.0 * sup(np.abs(nf.laplacian)))
                w_max = np.maximum(w_max, sup(np.abs(nf.value)))
                dw0_max = np.maximum(dw0_max, sup(
                    nf.value - nf.value[grid.rows(np.s_[:1])]))
                k_sq[..., i] = boundary_norm_sq(self.k_faces(i), grid)
            if np.max(w_max) > EXP_GUARD:
                raise NoiseMagnitudeError(float(np.max(w_max)))
            tw = np.full(grid.n_t + 1, grid.dt)
            tw[0] = tw[-1] = 0.5 * grid.dt
            k_sq_integral = np.sum(k_sq * tw, axis=-1)
            sups = [CoefficientSups(
                g1_sup=float(g1_sup[j]), g2_sup=float(g2_sup[j]),
                div_g2_sup=float(div_sup[j]), c_w0=float(np.exp(dw0_max[j])),
                c_w=float(np.exp(w_max[j])), k_sq_integral=float(k_sq_integral[j]))
                for j in np.ndindex(self.paths)]
            self._sups = sups if self.paths else sups[0]
        return self._sups
