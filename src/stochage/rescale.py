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

This module evaluates those coefficients on the grid for a batch of
sampled bundles of Brownian paths at once, and provides the
transform (``forward_transform(p, -W)`` is its inverse), which :func:`densities`
applies to a solve's report with the noise path that report carries.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidFieldError, NoiseMagnitudeError
from .grid import Face, boundary_faces, boundary_norm_sq
from .model import PopulationModel
from .noise import BrownianBundle, _contract, amplitude_grids, evaluate_noise, ito_correction
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


def forward_transform(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Map the rescaled state back to the population density, ``p = exp(W) y``."""
    return _guarded_exp(np.asarray(w, dtype=float)) * y


def densities(report, model: PopulationModel) -> np.ndarray:
    """The population densities of ``report``'s stored snapshots: the direct
    route's states, or the rescaled route's states times ``exp(W)`` of the
    report's own bundle at their time nodes."""
    if report.solver == "direct":
        return report.snapshots
    amp, bundles = amplitude_grids(model.noise, report.grid).values, [report.bundle]
    p = np.array([forward_transform(y, _contract(bundles, amp, i)[0])
                  for y, i in zip(report.snapshots, report.snapshot_indices)])
    if not np.all(np.isfinite(p)):
        raise InvalidFieldError("field contains non-finite entries")
    return p


@dataclass(frozen=True)
class CoefficientSups:
    """Path-dependent coefficient bounds over the time nodes of one path."""

    g1_sup: float
    g2_sup: float
    div_g2_sup: float
    c_w0: float
    c_w: float
    k_sq_integral: float
    k_sq: tuple   # per node: the squared boundary norm of the Robin datum k0 exp(-W)


class RescaledCoefficients:
    """Coefficient evaluators for one model and a sequence of Brownian
    bundles (a batch of one for one path).

    The coefficient fields carry a leading path axis.  Per time node the
    fields of every path are built at once from :func:`evaluate_noise`;
    nothing is cached with the node.  ``faces`` reads ``k0`` on the faces.
    Building a node folds its sups into running sups per bundle, which
    :meth:`sups_so_far` reads (a node built twice changes nothing).
    """

    def __init__(self, model: PopulationModel,
                 bundles: Sequence[BrownianBundle], faces=evaluate_on_faces):
        grid = model.grid
        for bundle in bundles:
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
        self.bundles = list(bundles)
        self.mu = ito_correction(model.noise, grid)
        self.faces = faces
        # running sups per bundle: |g1|, |g2|, div g2, |W|, W - W(t,0,x); k_sq per node
        self._max = {name: np.full(len(self.bundles), -np.inf if name == "dw0" else 0.0)
                     for name in ("g1", "g2", "div", "w", "dw0")}
        self._k_sq = np.zeros((len(self.bundles), grid.n_t + 1))

    # -- per-node evaluation ------------------------------------------------

    def _bundles(self, rows):
        return self.bundles if rows is None else [self.bundles[j] for j in rows]

    def node_fields(self, t_index: int, rows=None, over=None) -> dict:
        """``g1``, ``g2``, ``exp_w`` (``exp(W)``) and ``exp_dw0``
        (``exp(W - W(t,0,x))``) at one node for the bundles ``rows`` (all by
        default), built afresh in the noise's buffers; ``over`` as in :func:`_guarded_exp`."""
        nf = evaluate_noise(self.model.noise, self._bundles(rows), t_index, self.grid)
        w, grad_sq = nf.value, sum(g * g for g in nf.gradient)
        dw0 = w - w[self.grid.rows(np.s_[:1])]
        g1 = np.subtract(nf.d_age, nf.laplacian, out=nf.d_age)
        g1 -= grad_sq
        g1 += self.mu
        at, axes = Ellipsis if rows is None else rows, tuple(range(-self.grid.dim - 1, 0))
        for name, s in (("g1", np.abs(g1).max(axis=axes)),
                        ("g2", 2.0 * np.sqrt(grad_sq.max(axis=axes))),
                        ("div", 2.0 * np.abs(nf.laplacian).max(axis=axes)),
                        ("w", np.abs(w).max(axis=axes)), ("dw0", dw0.max(axis=axes))):
            self._max[name][at] = np.maximum(self._max[name][at], s)
        return {"g1": g1, "g2": tuple(np.multiply(g, -2.0, out=g) for g in nf.gradient),
                "exp_w": _guarded_exp(w, w, over), "exp_dw0": _guarded_exp(dw0, dw0, over)}

    def k_face(self, face: Face, t_index: int, k0: dict, rows=None, over=None) -> np.ndarray:
        """Rescaled Robin datum ``k0 exp(-W)`` on one face, given ``k0``; see :meth:`k_faces`."""
        w = _contract(self._bundles(rows), amplitude_grids(self.model.noise, self.grid)
                      .face_values[face], t_index)
        return k0[face] * _guarded_exp(-w, over=over)

    def k_faces(self, t_index: int, rows=None, over=None) -> dict:
        """:meth:`k_face` on every boundary face; keeps the node's squared boundary norm."""
        k0 = self.faces(self.model.rates.k0, self.grid, self.grid.times[t_index])
        k = {f: self.k_face(f, t_index, k0, rows, over) for f in boundary_faces(self.grid)}
        self._k_sq[Ellipsis if rows is None else rows, t_index] = boundary_norm_sq(k, self.grid)
        return k

    # -- bounds over the nodes built so far ------------------------------------

    def sups_so_far(self, rows=None) -> list:
        """Sups of g1, |g2|, div g2 and the exponential factors over the nodes
        built so far, and per node the squared boundary norm of the rescaled
        Robin datum with its trapezoid time integral (a node not built counts
        0; each only grows, so the sups of a march's last node are those of
        its whole path).  One :class:`CoefficientSups` per bundle of ``rows``
        (all by default), in a list."""
        k_sq_integral = np.sum(self._k_sq * self.grid.time_weights, axis=-1)
        m = self._max
        return [CoefficientSups(
            g1_sup=float(m["g1"][j]), g2_sup=float(m["g2"][j]),
            div_g2_sup=float(m["div"][j]), c_w0=float(np.exp(m["dw0"][j])),
            c_w=float(np.exp(m["w"][j])), k_sq_integral=float(k_sq_integral[j]),
            k_sq=tuple(self._k_sq[j].tolist()))
            for j in (range(len(self.bundles)) if rows is None else rows)]
