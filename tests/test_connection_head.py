from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lanekit.connection_head import (
    ConnectionFeatures,
    HeadWeights,
    adjacency_forward,
    positional_encode,
    random_head_weights,
    relu,
)


def make_features(seed, s, d_c=8):
    rng = np.random.default_rng(seed)
    return ConnectionFeatures(f_c=rng.normal(size=(s, d_c)),
                              positions=np.column_stack(
                                  [rng.uniform(-10, 10, s), rng.uniform(3, 100, s)]))


class TestPositionalEncode:
    def test_origin_alternates_zero_one(self):
        enc = positional_encode((0.0, 0.0), dims_per_axis=8)
        assert_allclose(enc, np.tile([0.0, 1.0], 8))

    def test_periodicity_of_base_frequency(self):
        enc_a = positional_encode((1.3, 4.0), dims_per_axis=8)
        enc_b = positional_encode((1.3 + 2 * np.pi, 4.0), dims_per_axis=8)
        # frequency k=0 has period 2*pi; only its (sin, cos) pair repeats
        assert_allclose(enc_b[:2], enc_a[:2], atol=1e-9)
        assert not np.allclose(enc_b[2:8], enc_a[2:8], atol=1e-3)

    def test_squared_norm_is_dims_per_axis(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            enc = positional_encode(rng.uniform(-100, 100, 2), dims_per_axis=32)
            assert np.dot(enc, enc) == pytest.approx(32.0, abs=1e-12)

    def test_batched_matches_single(self):
        pts = np.array([[1.0, 2.0], [-3.0, 4.5]])
        batch = positional_encode(pts, dims_per_axis=6)
        assert batch.shape == (2, 12)
        for row, p in zip(batch, pts):
            assert_array_equal(row, positional_encode(p, dims_per_axis=6))

    def test_axis_blocks_ordered_x_first(self):
        enc = positional_encode((1.0, 0.0), dims_per_axis=4)
        assert enc[0] == pytest.approx(np.sin(1.0))
        assert_allclose(enc[4:], [0.0, 1.0, 0.0, 1.0])

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            positional_encode((0.0, 0.0), dims_per_axis=5)


class TestHeadWeights:
    def test_dimension_chain_enforced(self):
        w = random_head_weights(0, d_c=4, dims_per_axis=4, hidden=6, embed=5)
        bad = dict(origin_w1=w.origin_w1, origin_b1=np.zeros(7),
                   origin_w2=w.origin_w2, origin_b2=w.origin_b2,
                   dest_w1=w.dest_w1, dest_b1=w.dest_b1,
                   dest_w2=w.dest_w2, dest_b2=w.dest_b2,
                   final_w=w.final_w, final_b=0.0)
        with pytest.raises(ValueError, match=r"^origin_b1 must have shape \(6,\)"):
            HeadWeights(**bad)

    def test_non_finite_rejected(self):
        w = random_head_weights(0, d_c=4, dims_per_axis=4)
        bad = {f: getattr(w, f) for f in w.__dataclass_fields__}
        bad["final_w"] = np.full_like(w.final_w, np.nan)
        with pytest.raises(ValueError, match="finite"):
            HeadWeights(**bad)

    @pytest.mark.parametrize("field", [f.name for f in fields(HeadWeights)])
    @pytest.mark.parametrize("kind", ["inf", "bool"])
    def test_each_field_rejects_a_bad_entry_naming_it(self, field, kind):
        # Every field passes through the same finite-number rule, so a bad
        # entry anywhere in the weights names the field it sits in.
        w = random_head_weights(0, d_c=4, dims_per_axis=4)
        values = {f.name: getattr(w, f.name) for f in fields(HeadWeights)}
        if field == "final_b":
            values[field] = np.inf if kind == "inf" else True
        elif kind == "inf":
            values[field] = values[field].copy()
            values[field].reshape(-1)[-1] = -np.inf
        else:
            values[field] = np.ones_like(values[field], bool)
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            HeadWeights(**values)

    def test_seeded_generation_is_deterministic(self):
        a = random_head_weights(123, d_c=8)
        b = random_head_weights(123, d_c=8)
        assert_array_equal(a.origin_w1, b.origin_w1)
        assert_array_equal(a.final_w, b.final_w)
        assert a.final_b == b.final_b


class TestAdjacencyForward:
    def test_zero_final_layer_gives_half(self):
        w = random_head_weights(5, d_c=4, dims_per_axis=4, hidden=6, embed=5)
        fields = {f: getattr(w, f) for f in w.__dataclass_fields__}
        fields["final_w"] = np.zeros(5)
        fields["final_b"] = 0.0
        adj = adjacency_forward(make_features(1, 4, d_c=4), HeadWeights(**fields))
        assert_allclose(adj.probs, 0.5)

    def test_single_keypoint_shape(self):
        w = random_head_weights(7, d_c=4, dims_per_axis=4)
        adj = adjacency_forward(make_features(2, 1, d_c=4), w)
        assert adj.probs.shape == (1, 1)

    def test_matches_loop_oracle(self):
        w = random_head_weights(11, d_c=5, dims_per_axis=4, hidden=7, embed=6)
        feats = make_features(3, 3, d_c=5)
        got = adjacency_forward(feats, w).probs

        def mlp_row(vec, w1, b1, w2, b2):
            hidden = np.maximum(vec @ w1 + b1, 0.0)
            return hidden @ w2 + b2

        for i in range(3):
            for j in range(3):
                pe_i = positional_encode(feats.positions[i], dims_per_axis=4)
                pe_j = positional_encode(feats.positions[j], dims_per_axis=4)
                orig = mlp_row(np.concatenate([pe_i, feats.f_c[i]]),
                               w.origin_w1, w.origin_b1, w.origin_w2, w.origin_b2)
                dest = mlp_row(np.concatenate([pe_j, feats.f_c[j]]),
                               w.dest_w1, w.dest_b1, w.dest_w2, w.dest_b2)
                logit = float(np.dot(w.final_w, orig * dest)) + w.final_b
                want = 1.0 / (1.0 + np.exp(-logit))
                assert got[i, j] == pytest.approx(want, abs=1e-9)

    def test_permutation_equivariance_is_exact(self):
        w = random_head_weights(13, d_c=6)
        feats = make_features(4, 20, d_c=6)
        perm = np.random.default_rng(17).permutation(20)
        permuted = ConnectionFeatures(f_c=feats.f_c[perm],
                                      positions=feats.positions[perm])
        a = adjacency_forward(feats, w).probs
        b = adjacency_forward(permuted, w).probs
        assert_array_equal(b, a[np.ix_(perm, perm)])

    def test_generically_directed(self):
        adj = adjacency_forward(make_features(5, 10, d_c=4),
                                random_head_weights(19, d_c=4)).probs
        assert np.abs(adj - adj.T).max() > 0.0

    def test_outputs_strictly_inside_unit_interval(self):
        adj = adjacency_forward(make_features(6, 12, d_c=4),
                                random_head_weights(23, d_c=4)).probs
        assert adj.min() > 0.0 and adj.max() < 1.0

    def test_bias_shift_is_monotone(self):
        w = random_head_weights(29, d_c=4)
        feats = make_features(7, 6, d_c=4)
        fields = {f: getattr(w, f) for f in w.__dataclass_fields__}
        fields["final_b"] = w.final_b + 2.0
        higher = adjacency_forward(feats, HeadWeights(**fields)).probs
        assert np.all(higher > adjacency_forward(feats, w).probs)

    def test_dimension_mismatch_rejected(self):
        w = random_head_weights(31, d_c=4, dims_per_axis=4)
        with pytest.raises(ValueError, match="width"):
            adjacency_forward(make_features(8, 3, d_c=9), w)


class TestConnectionFeatures:
    def test_row_count_must_match(self):
        with pytest.raises(ValueError):
            ConnectionFeatures(f_c=np.zeros((3, 4)), positions=np.zeros((2, 2)))
