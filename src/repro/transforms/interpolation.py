"""Per-axis even/odd splitting and linear prediction.

These are the *predict* primitives of the separable lifting scheme used by
:class:`repro.transforms.multilevel.MultilevelTransform`.  Along one axis,
the fine grid splits into even-index (coarse) and odd-index (detail) nodes;
each odd node is predicted as the average of its two even neighbours
(linear interpolation), with the last node copying its left neighbour when
the axis length is even.

Prediction is a convex combination, so the prediction of perturbed coarse
values never amplifies their L-infinity error — the property underpinning
the hierarchical-basis error estimate (sum of per-level bounds).

All functions are fully vectorized; axis handling uses slice tuples rather
than copies wherever possible.
"""

from __future__ import annotations

import numpy as np


def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple:
    """Build an index tuple selecting *sl* along *axis*."""
    index = [slice(None)] * ndim
    index[axis] = sl
    return tuple(index)


def split_even_odd(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the even- and odd-indexed hyperplanes along *axis*."""
    even = a[_axis_slice(a.ndim, axis, slice(0, None, 2))]
    odd = a[_axis_slice(a.ndim, axis, slice(1, None, 2))]
    return even, odd


def predict_along_axis(even: np.ndarray, axis: int, odd_size: int) -> np.ndarray:
    """Predict the odd-node values from the even nodes along *axis*.

    Odd node ``j`` (fine position ``2j+1``) is predicted as
    ``(even[j] + even[j+1]) / 2``; when ``j+1`` runs off the end (axis
    length even) the right neighbour clamps to the last even node, which
    degenerates to a copy of the left neighbour.

    Parameters
    ----------
    even:
        The even-node array (coarse values along *axis*).
    axis:
        Axis along which prediction happens.
    odd_size:
        Number of odd nodes along *axis* (``floor(n/2)`` for axis length n).

    Returns
    -------
    numpy.ndarray
        Prediction with *odd_size* entries along *axis*.
    """
    ce = even.shape[axis]
    if odd_size > ce:
        raise ValueError("odd_size cannot exceed even size for a valid split")
    left = even[_axis_slice(even.ndim, axis, slice(0, odd_size))]
    right = even[_axis_slice(even.ndim, axis, slice(1, odd_size + 1))]
    if odd_size == ce:  # even axis length: the last odd node has no right neighbour
        last = even[_axis_slice(even.ndim, axis, slice(ce - 1, ce))]
        right = np.concatenate([right, last], axis=axis)
    return 0.5 * (left + right)


def fine_node_mask(shape: tuple) -> np.ndarray:
    """Boolean mask of nodes that are *not* on the coarse (all-even) corner.

    Used to extract the coefficient set of one decomposition level from the
    in-place lifted array.
    """
    mask = np.ones(shape, dtype=bool)
    corner = tuple(slice(0, None, 2) for _ in shape)
    mask[corner] = False
    return mask


def coarse_shape(shape: tuple) -> tuple:
    """Shape of the all-even corner grid: ``ceil(n/2)`` per axis."""
    return tuple((n + 1) // 2 for n in shape)
