"""Adjacency-matrix forward pass from keypoint features and positions.

Each keypoint's refined position is sinusoidally encoded and concatenated
with its connection feature vector.  Two separate 2-layer MLPs project the
result into origin and destination embeddings; entry (i, j) of the adjacency
matrix is a sigmoid over a learned linear readout of the elementwise product
F_orig[i] * F_dest[j].  Weights are supplied externally (or seeded randomly
for tests); nothing here trains.

The head computes on the distinct keypoint rows, each row being a
keypoint's position and connection features, taken in the order of their
bytes (``_distinct_rows``), and expands the result back to every keypoint.
So any permutation of the keypoints hands the matrix products (BLAS, whose
sums depend on a row's position and on the matrix's shape) byte-identical
operands, and duplicate keypoints are computed once: permuting the keypoints
permutes the probabilities bitwise, by construction.  Rows are compared by
their bytes, so ``+0.0`` and ``-0.0`` make two rows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FINITE, ValidationError, check_int, check_real, float_array
from .graph import AdjacencyMatrix


@dataclass(frozen=True, eq=False)
class HeadWeights:
    """Two 2-layer MLPs plus the final readout; arrays are (in, out)."""

    origin_w1: np.ndarray
    origin_b1: np.ndarray
    origin_w2: np.ndarray
    origin_b2: np.ndarray
    dest_w1: np.ndarray
    dest_b1: np.ndarray
    dest_w2: np.ndarray
    dest_b2: np.ndarray
    final_w: np.ndarray
    final_b: float

    def __post_init__(self):
        # Each shape follows from the ones before it, so the MLPs chain.
        d_in = embed = None
        for side in ("origin", "dest"):
            d_in, hidden = self._field(f"{side}_w1", (d_in, None)).shape
            self._field(f"{side}_b1", (hidden,))
            embed = self._field(f"{side}_w2", (hidden, embed)).shape[1]
            self._field(f"{side}_b2", (embed,))
        self._field("final_w", (embed,))
        object.__setattr__(self, "final_b", float(check_real(self.final_b, "final_b")))

    def _field(self, name, shape):
        """Field ``name`` as a finite float array of the ``shape`` pattern."""
        array = float_array(getattr(self, name), name, shape, within=FINITE)
        object.__setattr__(self, name, array)
        return array

    @property
    def input_dim(self):
        return self.origin_w1.shape[0]


@dataclass(frozen=True, eq=False)
class ConnectionFeatures:
    """Per-keypoint connection features and refined (x+dx, y) positions."""

    f_c: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        f_c = float_array(self.f_c, "f_c", (None, None), within=FINITE)
        positions = float_array(self.positions, "positions", (len(f_c), 2), within=FINITE)
        object.__setattr__(self, "f_c", f_c)
        object.__setattr__(self, "positions", positions)


def relu(values):
    return np.maximum(values, 0.0)


def positional_encode(position, dims_per_axis=32):
    """Sinusoidal encoding, x block then y block, (sin, cos) pairs per
    frequency k with angular scale 10000^(2k/dims).  Accepts a single (x, y)
    or a batch (..., 2), each coordinate finite; output gains a trailing
    axis of 2*dims_per_axis.
    """
    if check_int(dims_per_axis, "dims_per_axis", 1) % 2:
        raise ValidationError("dims_per_axis must be positive and even")
    pos = float_array(position, "position", within=FINITE)
    if pos.shape[-1:] != (2,):
        raise ValidationError(f"position must have a trailing axis of length 2, "
                              f"got shape {pos.shape}")
    k = np.arange(dims_per_axis // 2)
    inv_freq = 10000.0 ** (-2.0 * k / dims_per_axis)
    angles = pos[..., :, np.newaxis] * inv_freq          # (..., 2, dims/2)
    pairs = np.stack([np.sin(angles), np.cos(angles)], axis=-1)
    return pairs.reshape(pos.shape[:-1] + (2 * dims_per_axis,))


def _mlp(x, w1, b1, w2, b2):
    return relu(x @ w1 + b1) @ w2 + b2


def _distinct_rows(rows):
    """``(first, inverse)`` for a C-contiguous 2-D array: ``first`` indexes
    one row of each distinct byte pattern, in the order of those bytes, and
    ``rows[first][inverse]`` is ``rows``.  A stable sort of each row read as
    one ``np.void`` scalar, which is far cheaper than ``np.unique(axis=0)``."""
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), bool)
    new[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(len(keys), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def adjacency_forward(features, weights):
    """Full head forward pass; returns probabilities strictly inside (0, 1).

    The positional-encoding width is whatever the weight matrices leave room
    for after the connection features.  The products run on the distinct
    keypoint rows only (module docstring).  scipy's ``expit`` is imported here,
    not at module level, so that importing lanekit loads numpy only.
    """
    from scipy.special import expit

    pe_len = weights.input_dim - features.f_c.shape[1]
    if pe_len <= 0 or pe_len % 4:
        raise ValidationError(
            f"weights expect input width {weights.input_dim} but features are "
            f"{features.f_c.shape[1]} wide; no room for an even-dim encoding per axis")
    first, inverse = _distinct_rows(
        np.concatenate([features.positions, features.f_c], axis=1))
    pe = positional_encode(features.positions[first], dims_per_axis=pe_len // 2)
    full = np.concatenate([pe, features.f_c[first]], axis=1)
    f_orig = _mlp(full, weights.origin_w1, weights.origin_b1,
                  weights.origin_w2, weights.origin_b2)
    f_dest = _mlp(full, weights.dest_w1, weights.dest_b1,
                  weights.dest_w2, weights.dest_b2)
    logits = (f_orig * weights.final_w) @ f_dest.T + weights.final_b
    return AdjacencyMatrix(expit(logits)[np.ix_(inverse, inverse)])


def random_head_weights(seed, d_c, dims_per_axis=32, hidden=64, embed=32):
    """Seeded Gaussian weights (1/sqrt(fan-in) scale) for tests and demos.
    ``d_c`` is a non-negative integer; ``dims_per_axis``, ``hidden`` and
    ``embed`` are positive ones."""
    d_c = check_int(d_c, "d_c", 0)
    dims_per_axis = check_int(dims_per_axis, "dims_per_axis", 1)
    hidden = check_int(hidden, "hidden", 1)
    embed = check_int(embed, "embed", 1)
    rng = np.random.default_rng(seed)
    d_in = 2 * dims_per_axis + d_c

    def layer(fan_in, fan_out):
        return (rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)),
                rng.normal(0.0, 0.1, size=fan_out))

    ow1, ob1 = layer(d_in, hidden)
    ow2, ob2 = layer(hidden, embed)
    dw1, db1 = layer(d_in, hidden)
    dw2, db2 = layer(hidden, embed)
    return HeadWeights(origin_w1=ow1, origin_b1=ob1, origin_w2=ow2, origin_b2=ob2,
                       dest_w1=dw1, dest_b1=db1, dest_w2=dw2, dest_b2=db2,
                       final_w=rng.normal(0.0, 1.0 / np.sqrt(embed), size=embed),
                       final_b=float(rng.normal(0.0, 0.1)))
