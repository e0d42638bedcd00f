"""Multilevel (MGARD-style) decomposition and recomposition.

The transform is a separable lifting scheme applied level by level:

* **predict** (both bases): along each axis, odd nodes are replaced by
  their residual against the linear interpolation of the even nodes;
* **update** (orthogonal basis only): the even nodes receive the L2
  projection correction computed from those residuals
  (:mod:`repro.transforms.l2projection`).

After all axes are lifted, the all-even corner holds the next-coarser
approximation and every other node holds a detail coefficient; the scheme
recurses on the corner.  The decomposition is exactly invertible in exact
arithmetic for both bases.

Error-propagation constants (used by the PMGARD compressors to convert
per-level coefficient bounds into a guaranteed L-infinity bound on the
reconstructed data), the ``kappa`` of :meth:`MultilevelTransform.kappa`:

* hierarchical basis: prediction is convex, so one lifted axis adds at most
  one coefficient-bound ``e_d`` to the running error, and ``kappa`` is
  ``d``;
* orthogonal basis: undoing the update adds ``1.5 * e_d`` at the even
  nodes *before* prediction re-adds ``e_d``, so a lifted axis contributes
  up to ``2.5 * e_d``, and ``kappa`` is ``2.5 * d`` — the loose
  orthogonal-basis estimates of the paper's Fig. 3.

Both are exact for one axis only.  With ``d > 1`` the axes are lifted one
after another, so a node odd along several axes adds up the errors of
every detail type it is predicted from: under the hierarchical basis a
level contributes up to ``(2**d - 1) * e_d`` (3 in 2-D, 7 in 3-D, against
``kappa`` 2 and 3).  The ``2**(e - k)`` coefficient bound's slack over the
decoder's midpoint error is what hides that in practice, so PMGARD
measures no tighter coefficient bound for such variables
(:meth:`MultilevelTransform.kappa_is_exact`; ``docs/soundness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.transforms.interpolation import (
    coarse_shape,
    fine_node_mask,
    predict_along_axis,
    split_even_odd,
)
from repro.transforms.l2projection import CORRECTION_NORM, l2_correction_along_axis

HIERARCHICAL = "hierarchical"
ORTHOGONAL = "orthogonal"


@dataclass
class MultilevelDecomposition:
    """Result of :meth:`MultilevelTransform.decompose`.

    Attributes
    ----------
    shapes:
        Fine-grid shape of every level, finest first.
    coefficients:
        One flat ``float64`` array per level (the non-corner nodes of the
        lifted array), finest first.
    coarse:
        The coarsest approximation array.
    basis:
        ``"hierarchical"`` or ``"orthogonal"``.
    """

    shapes: list = field(default_factory=list)
    coefficients: list = field(default_factory=list)
    coarse: np.ndarray | None = None
    basis: str = HIERARCHICAL

    @property
    def num_levels(self) -> int:
        return len(self.coefficients)


class MultilevelTransform:
    """Level-by-level lifting transform for arbitrary N-d shapes.

    Parameters
    ----------
    basis:
        ``"hierarchical"`` (predict only — PMGARD-HB) or ``"orthogonal"``
        (predict + L2-projection update — PMGARD/MGARD).
    max_levels:
        Upper bound on decomposition depth; ``None`` decomposes until the
        coarse corner is smaller than ``min_size`` in every axis.
    min_size:
        Stop recursing once every axis of the corner is below this size.
    """

    def __init__(self, basis: str = HIERARCHICAL, max_levels: int | None = None, min_size: int = 4):
        if basis not in (HIERARCHICAL, ORTHOGONAL):
            raise ValueError(f"unknown basis {basis!r}")
        if min_size < 2:
            raise ValueError("min_size must be >= 2")
        self.basis = basis
        self.max_levels = max_levels
        self.min_size = int(min_size)

    # -- error propagation ------------------------------------------------

    def kappa(self, ndim: int) -> float:
        """Per-level error amplification for a coefficient bound.

        See the module docstring for the derivation.
        """
        per_axis = 1.0 + CORRECTION_NORM if self.basis == ORTHOGONAL else 1.0
        return per_axis * ndim

    @staticmethod
    def kappa_is_exact(ndim: int) -> bool:
        """Whether :meth:`kappa` bounds the recomposition of *any*
        coefficient errors up to ``e_d``: for one axis only (module
        docstring), so only 1-D variables may report a coefficient bound
        tighter than ``2**(e - k)``."""
        return ndim == 1

    # -- forward ----------------------------------------------------------

    def _lift_level(self, a: np.ndarray) -> None:
        """In-place forward lifting of one level over all axes."""
        for axis in range(a.ndim):
            if a.shape[axis] < 2:
                continue
            even, odd = split_even_odd(a, axis)
            odd -= predict_along_axis(even, axis, odd.shape[axis])
            if self.basis == ORTHOGONAL:
                even += l2_correction_along_axis(odd, axis, even.shape[axis])

    def _unlift_level(self, a: np.ndarray) -> None:
        """In-place inverse lifting of one level (reverse axis order)."""
        for axis in range(a.ndim - 1, -1, -1):
            if a.shape[axis] < 2:
                continue
            even, odd = split_even_odd(a, axis)
            if self.basis == ORTHOGONAL:
                even -= l2_correction_along_axis(odd, axis, even.shape[axis])
            odd += predict_along_axis(even, axis, odd.shape[axis])

    def num_levels(self, shape: tuple) -> int:
        """Number of levels the transform will produce for *shape*."""
        levels = 0
        s = tuple(shape)
        while (self.max_levels is None or levels < self.max_levels) and max(s) >= self.min_size:
            s = coarse_shape(s)
            levels += 1
        return levels

    def decompose(self, data: np.ndarray) -> MultilevelDecomposition:
        """Decompose *data* into per-level coefficients + coarse corner."""
        a = np.array(data, dtype=np.float64)  # working copy
        out = MultilevelDecomposition(basis=self.basis)
        levels = self.num_levels(a.shape)
        for _ in range(levels):
            self._lift_level(a)
            mask = fine_node_mask(a.shape)
            out.shapes.append(a.shape)
            out.coefficients.append(a[mask].copy())
            corner = tuple(slice(0, None, 2) for _ in a.shape)
            a = a[corner].copy()
        out.coarse = a
        return out

    # -- inverse ----------------------------------------------------------

    def recompose(
        self,
        decomp: MultilevelDecomposition,
        coefficients: list | None = None,
        coarse: np.ndarray | None = None,
    ) -> np.ndarray:
        """Rebuild data from (possibly approximate) coefficient arrays.

        Parameters
        ----------
        decomp:
            The decomposition providing shapes/basis metadata.
        coefficients:
            Per-level flat coefficient arrays (finest first).  Defaults to
            the exact coefficients stored in *decomp*.
        coarse:
            Coarsest approximation.  Defaults to ``decomp.coarse``.
        """
        if coefficients is None:
            coefficients = decomp.coefficients
        if coarse is None:
            coarse = decomp.coarse
        if len(coefficients) != decomp.num_levels:
            raise ValueError("coefficient level count mismatch")
        a = np.array(coarse, dtype=np.float64)
        for level in range(decomp.num_levels - 1, -1, -1):
            shape = decomp.shapes[level]
            full = np.empty(shape, dtype=np.float64)
            corner = tuple(slice(0, None, 2) for _ in shape)
            full[corner] = a
            coeffs = np.asarray(coefficients[level], dtype=np.float64).ravel()
            if coeffs.size != full.size - a.size:
                raise ValueError(f"level {level}: coefficient count mismatch")
            if len(shape) == 1:
                full[1::2] = coeffs  # the fine nodes of a line are its odd ones
            else:
                full[fine_node_mask(shape)] = coeffs
            self._unlift_level(full)
            a = full
        return a
