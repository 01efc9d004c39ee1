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
transform (``forward_transform(p, -W)`` is its inverse).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NoiseMagnitudeError
from .grid import Face, Field, boundary_faces, boundary_norm_sq
from .model import PopulationModel
from .noise import (BrownianBundle, NoiseField, _contract, amplitude_grids,
                    evaluate_noise, ito_correction)
from .rates import evaluate_on_faces

EXP_GUARD = 700.0


def _guarded_exp(w: np.ndarray, out: np.ndarray | None = None,
                 over: np.ndarray | None = None) -> np.ndarray:
    """``exp(w)``; a sup of ``|w|`` past :data:`EXP_GUARD` raises, or goes per
    path into ``over`` (0 until set) and zeroes that path's rows of ``w``."""
    sup = np.abs(w).max(axis=tuple(range(np.ndim(over), w.ndim)))
    if (past := sup > EXP_GUARD).any():
        if over is None:
            raise NoiseMagnitudeError(sup)
        np.copyto(over, sup, where=past & (over == 0))
        w[past] = 0.0
    return np.exp(w, out=out)


def forward_transform(y: Field, w: np.ndarray) -> Field:
    """Map the rescaled state back to the population density, ``p = exp(W) y``."""
    return Field(_guarded_exp(np.asarray(w, dtype=float)) * y.values, y.grid, copy=False)


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
    fields of every path are built at once from :func:`evaluate_noise`;
    nothing is cached with the node.  ``faces`` reads ``k0`` on the faces.
    """

    def __init__(self, model: PopulationModel,
                 bundles: BrownianBundle | Sequence[BrownianBundle], faces=evaluate_on_faces):
        grid = model.grid
        single = isinstance(bundles, BrownianBundle)
        for bundle in [bundles] if single else bundles:
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
        self.bundles = bundles if single else list(bundles)
        self.paths = () if single else (len(self.bundles),)
        self.mu = ito_correction(model.noise, grid).values
        self.faces = faces
        self._sups = None

    # -- per-node evaluation ------------------------------------------------

    def _noise(self, t_index: int, rows=None) -> NoiseField:
        return evaluate_noise(self.model.noise, self._bundles(rows), t_index, self.grid)

    def _bundles(self, rows):
        return self.bundles if rows is None else [self.bundles[j] for j in rows]

    def _g1(self, nf: NoiseField) -> np.ndarray:
        """``g1`` of the node, built in the buffer of ``nf.d_age``."""
        g1 = np.subtract(nf.d_age, nf.laplacian, out=nf.d_age)
        g1 -= sum(g * g for g in nf.gradient)
        g1 += self.mu
        return g1

    def node_fields(self, t_index: int, rows=None, over=None) -> dict:
        """``g1``, ``g2``, ``exp_w`` (``exp(W)``) and ``exp_dw0``
        (``exp(W - W(t,0,x))``) at one node for the bundles ``rows`` (all by
        default), built afresh in the noise's buffers; ``over`` as in :func:`_guarded_exp`."""
        nf = self._noise(t_index, rows)
        dw0 = nf.value - nf.value[self.grid.rows(np.s_[:1])]
        return {"g1": self._g1(nf), "g2": tuple(np.multiply(g, -2.0, out=g) for g in nf.gradient),
                "exp_w": _guarded_exp(nf.value, nf.value, over),
                "exp_dw0": _guarded_exp(dw0, dw0, over)}

    def k_face(self, face: Face, t_index: int, k0: dict, rows=None, over=None) -> np.ndarray:
        """Rescaled Robin datum ``k0 exp(-W)`` on one face, given ``k0``; see :meth:`k_faces`."""
        w = _contract(self._bundles(rows), amplitude_grids(self.model.noise, self.grid)
                      .face_values[face], t_index)
        return k0[face] * _guarded_exp(-w, over=over)

    def k_faces(self, t_index: int, rows=None, over=None) -> dict:
        k0 = self.faces(self.model.rates.k0, self.grid, self.grid.times[t_index])
        return {f: self.k_face(f, t_index, k0, rows, over) for f in boundary_faces(self.grid)}

    # -- whole-path bounds ----------------------------------------------------

    def coefficient_sups(self) -> CoefficientSups | list[CoefficientSups]:
        """Sups of g1, |g2|, div g2 and the exponential factors over all nodes.

        Also accumulates the squared boundary norm of the rescaled Robin
        datum per time node (trapezoid in time for the integral).  A batch
        gets one set of sups per path, in a list, or for a path whose noise
        passes the march's exp guard its :class:`NoiseMagnitudeError`, which one bundle raises.
        """
        if self._sups is None:
            grid = self.grid
            field_axes = tuple(range(-grid.dim - 1, 0))

            def sup(x):
                return np.max(x, axis=field_axes)

            g1_sup = g2_sup = div_sup = w_max = np.zeros(self.paths)
            dw0_max = np.full(self.paths, -np.inf)
            k_sq = np.zeros(self.paths + (grid.n_t + 1,))
            over = np.zeros(self.paths)
            for i in range(grid.n_t + 1):
                k_sq[..., i] = boundary_norm_sq(self.k_faces(i, over=over), grid)
                nf = self._noise(i)
                dw0 = nf.value - nf.value[grid.rows(np.s_[:1])]
                w_max = np.maximum(w_max, w_sup := sup(np.abs(nf.value)))
                for s in (w_sup, sup(np.abs(dw0))):   # the march's exp guard, in its order
                    np.copyto(over, s, where=(s > EXP_GUARD) & (over == 0))
                g1_sup = np.maximum(g1_sup, sup(np.abs(self._g1(nf))))
                g2_sup = np.maximum(g2_sup, 2.0 * np.sqrt(sup(sum(g * g for g in nf.gradient))))
                div_sup = np.maximum(div_sup, 2.0 * sup(np.abs(nf.laplacian)))
                dw0_max = np.maximum(dw0_max, sup(dw0))
            k_sq_integral = np.sum(k_sq * grid.time_weights, axis=-1)
            sups = [NoiseMagnitudeError(over[j]) if over[j] else CoefficientSups(
                g1_sup=float(g1_sup[j]), g2_sup=float(g2_sup[j]),
                div_g2_sup=float(div_sup[j]), c_w0=float(np.exp(dw0_max[j])),
                c_w=float(np.exp(w_max[j])), k_sq_integral=float(k_sq_integral[j]))
                for j in np.ndindex(self.paths)]
            self._sups = sups if self.paths else sups[0]
        if isinstance(self._sups, NoiseMagnitudeError):
            raise self._sups
        return self._sups
