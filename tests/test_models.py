import numpy as np
import pytest
from conftest import fd_check, to_f64

from orcakit import nn
from orcakit.errors import ContractError, FormatError, ShapeError
from orcakit.models import (
    BodySpec,
    EmbedderSpec,
    HeadSpec,
    Model,
    ParameterSet,
    body_forward,
    body_backward,
    build_embedder,
    embedder_forward,
    embedder_backward,
    head_forward,
    head_backward,
    init_body,
    init_embedder_params,
    init_head,
    merge_params,
    trainable_mask,
    warm_init_layernorm,
)
from orcakit.tensor import make_rng


class TestBuildEmbedder:
    def test_1d_kernel_rule(self):
        spec, _ = build_embedder((1, 1024), 8, 512, target_seq_len=256)
        assert spec.k == 4

    def test_2d_reuses_body_patch(self):
        spec, _ = build_embedder((3, 100, 100), 8, 3136, body_patch=4,
                                 body_resolution=(224, 224))
        assert spec.k == 4
        assert spec.resize_to == (224, 224)

    def test_short_input_defaults_to_k1(self):
        spec, _ = build_embedder((1, 8), 8, 512)
        assert spec.k == 1
        assert not spec.warn_small_input

    def test_impossible_target_warns(self):
        spec, _ = build_embedder((1, 16), 8, 64, target_seq_len=100)
        assert spec.k == 1
        assert spec.warn_small_input


class TestEmbedderForward:
    def test_2d_shape(self):
        spec, params = build_embedder((3, 32, 32), 8, 64, body_patch=4,
                                      body_resolution=(32, 32))
        x = make_rng(0).normal(size=(2, 3, 32, 32))
        out, _ = embedder_forward(spec, params, x)
        assert out.shape == (2, 64, 8)

    def test_constant_input_normalizes_to_zero(self):
        spec = EmbedderSpec(1, 1, 1, 4, 16)
        params = init_embedder_params(spec)
        params.set("embedder.conv.weight", np.ones((1, 4)))
        params.set("embedder.conv.bias", np.zeros(4))
        params.set("embedder.pos", np.zeros((16, 4)))
        x = np.full((1, 1, 16), 3.0)
        out, _ = embedder_forward(spec, params, x)
        assert np.abs(out).max() < 1e-5

    def test_hand_1d_conv(self):
        patches = nn.patch_fw(np.array([[[1.0, 2.0, 3.0, 4.0]]]), 2)
        proj, _ = nn.linear_fw(patches, np.array([[1.0], [1.0]]), np.zeros(1))
        assert np.allclose(proj[0, :, 0], [3.0, 7.0])

    def test_hand_2d_patch_order(self):
        # checkpoint conv weights are laid out (channel, row, column) per patch,
        # patches in row-major grid order; the odd fifth row and column drop
        x = np.arange(2 * 5 * 5, dtype=np.float64).reshape(1, 2, 5, 5)
        patches = nn.patch_fw(x, 2)
        assert patches.shape == (1, 4, 8)
        assert np.array_equal(patches[0, 0], [0, 1, 5, 6, 25, 26, 30, 31])
        assert np.array_equal(patches[0, 1], [2, 3, 7, 8, 27, 28, 32, 33])
        assert np.array_equal(patches[0, 2], [10, 11, 15, 16, 35, 36, 40, 41])

    def test_k1_variable_length(self):
        spec = EmbedderSpec(1, 1, 1, 4, 32)
        params = init_embedder_params(spec)
        x = make_rng(1).normal(size=(2, 1, 50))
        out, _ = embedder_forward(spec, params, x)
        assert out.shape == (2, 50, 4)

    def test_prefix_equality_without_positional(self):
        # pointwise embedders are resolution-invariant when positions are zero
        spec = EmbedderSpec(1, 1, 1, 8, 64)
        params = init_embedder_params(spec, seed=3)
        params.set("embedder.pos", np.zeros((64, 8)))
        rng = make_rng(2)
        x512 = rng.normal(size=(1, 1, 512))
        x256 = x512[:, :, :256]
        o512, _ = embedder_forward(spec, params, x512)
        o256, _ = embedder_forward(spec, params, x256)
        assert np.allclose(o512[:, :256], o256)

    def test_empty_spatial_rejected(self):
        spec = EmbedderSpec(1, 1, 1, 4, 8)
        params = init_embedder_params(spec)
        with pytest.raises(ContractError):
            embedder_forward(spec, params, np.zeros((1, 1, 0)))


class TestBodyForward:
    def test_zeroed_residual_branches_identity(self):
        spec = BodySpec(layers=2, heads=2, embed_dim=8, seq_len=4)
        params = init_body(spec, seed=0)
        for i in range(2):
            params.set(f"body.block{i}.attn.wo", np.zeros((8, 8)))
            params.set(f"body.block{i}.attn.bo", np.zeros(8))
            params.set(f"body.block{i}.mlp.w2", np.zeros((32, 8)))
            params.set(f"body.block{i}.mlp.b2", np.zeros(8))
        x = make_rng(4).normal(size=(2, 4, 8))
        out, _ = body_forward(spec, params, x)
        assert np.array_equal(out, x)

    def test_attention_rows_stochastic(self):
        spec = BodySpec(layers=1, heads=4, embed_dim=8, seq_len=6)
        params = init_body(spec, seed=1)
        x = make_rng(5).normal(size=(2, 6, 8))
        _, cache = body_forward(spec, params, x)
        probs = cache[0][1][7]  # block 0's attention cache keeps the softmax output
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-6

    def test_shape_mismatch(self):
        spec = BodySpec(layers=1, heads=2, embed_dim=8, seq_len=4)
        params = init_body(spec)
        with pytest.raises(ShapeError):
            body_forward(spec, params, np.zeros((1, 4, 9)))

    def test_gradients_match_fd_f64(self):
        spec = BodySpec(layers=1, heads=2, embed_dim=8, seq_len=4)
        params = to_f64(init_body(spec, seed=2))
        rng = make_rng(6)
        x = rng.normal(size=(2, 4, 8))
        proj = rng.normal(size=(2, 4, 8))

        def loss(p):
            out, _ = body_forward(spec, p, x)
            return float(np.sum(out * proj))

        out, cache = body_forward(spec, params, x)
        _, grads = body_backward(spec, params, cache, proj.copy())
        err = fd_check(loss, params, grads, rng, n_coords=25, h=1e-5)
        assert err < 1e-4

    def test_gradients_match_fd_f32(self):
        spec = BodySpec(layers=1, heads=2, embed_dim=8, seq_len=4)
        ps = init_body(spec, seed=2)
        params = {n: ps[n].astype(np.float32) for n in ps.names()}
        rng = make_rng(7)
        x = rng.normal(size=(2, 4, 8)).astype(np.float32)
        proj = rng.normal(size=(2, 4, 8)).astype(np.float32)

        def loss(p):
            p32 = {n: v.astype(np.float32) for n, v in p.items()}
            out, _ = body_forward(spec, p32, x)
            return float(np.sum(out.astype(np.float64) * proj))

        out, cache = body_forward(spec, params, x)
        _, grads = body_backward(spec, params, cache, proj.copy())
        p64 = {n: v.astype(np.float64) for n, v in params.items()}
        err = fd_check(loss, p64, grads, rng, n_coords=20, h=3e-3)
        assert err < 1e-2


class TestHead:
    def test_classification_identity_linear(self):
        spec = HeadSpec(mode="classification", classes=3)
        params = ParameterSet()
        w = np.zeros((8, 3))
        w[:3, :3] = np.eye(3)
        params.add("head.linear.weight", w)
        params.add("head.linear.bias", np.zeros(3))
        seq = np.ones((2, 5, 8))
        out, _ = head_forward(spec, params, seq)
        assert np.allclose(out, 1.0)

    def test_dense_shapes(self):
        spec = HeadSpec(mode="dense", classes=3, k=2, out_extents=(8, 8))
        params = init_head(spec, 16, seed=0)
        assert params["head.linear.weight"].shape == (16, 12)  # k^2 * K
        seq = make_rng(8).normal(size=(2, 16, 16))
        out, _ = head_forward(spec, params, seq)
        assert out.shape == (2, 3, 8, 8)

    def test_dense_wrong_seq_len(self):
        spec = HeadSpec(mode="dense", classes=1, k=2, out_extents=(8, 8))
        params = init_head(spec, 8)
        with pytest.raises(ShapeError):
            head_forward(spec, params, np.zeros((1, 15, 8)))

    def test_pixel_shuffle_hand_example(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        out = nn.pixel_shuffle(x, 2)
        assert np.array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])
        # 1-D: input channel k * r + j fills position l * r + j of output channel k
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]).reshape(1, 4, 2)
        out = nn.pixel_shuffle(x, 2)
        assert np.array_equal(out, [[[1.0, 3.0, 2.0, 4.0], [5.0, 7.0, 6.0, 8.0]]])

    def test_pixel_shuffle_r1_identity(self):
        x = make_rng(9).normal(size=(1, 3, 4, 4))
        assert nn.pixel_shuffle(x, 1) is x

    def test_pixel_shuffle_inverse(self):
        x = make_rng(10).normal(size=(2, 8, 3, 5))
        assert np.array_equal(nn.pixel_unshuffle(nn.pixel_shuffle(x, 2), 2), x)
        y = make_rng(11).normal(size=(2, 6, 7))
        assert np.array_equal(nn.pixel_unshuffle(nn.pixel_shuffle(y, 3), 3), y)

    def test_pixel_shuffle_divisibility(self):
        with pytest.raises(ShapeError):
            nn.pixel_shuffle(np.zeros((1, 3, 2, 2)), 2)

    def test_dense_roundtrip_extents(self):
        for k in (1, 2, 4):
            spec = HeadSpec(mode="dense", classes=2, k=k, out_extents=(8, 8))
            params = init_head(spec, 8, seed=1)
            s = (8 // k) * (8 // k)
            out, _ = head_forward(spec, params, make_rng(12).normal(size=(1, s, 8)))
            assert out.shape == (1, 2, 8, 8)


def small_model(head_mode="classification", seed=0):
    emb = EmbedderSpec(1, 1, 2, 8, 4)
    body = BodySpec(layers=1, heads=2, embed_dim=8, seq_len=4)
    if head_mode == "classification":
        head = HeadSpec(mode="classification", classes=3)
    else:
        head = HeadSpec(mode="dense", classes=1, k=2, out_extents=(8,))
    return Model.build(emb, body, head, seed=seed)


class TestModelBackward:
    def test_zero_loss_grad_gives_zero_grads(self):
        m = small_model()
        x = make_rng(13).normal(size=(2, 1, 8))
        out, cache = m.forward(x)
        grads = m.backward(cache, np.zeros_like(out))
        assert all(np.abs(g).max() == 0 for g in grads.values())

    def test_linear_grad_hand(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        _, cache = nn.linear_fw(x, w, np.zeros(2))
        _, gw, gb = nn.linear_bw(g, cache)
        assert np.array_equal(gw, x.T @ g)
        assert np.array_equal(gb, [2.0, 2.0])

    def test_end_to_end_fd(self):
        m = small_model(seed=3)
        rng = make_rng(14)
        x = rng.normal(size=(2, 1, 8))
        proj = rng.normal(size=(2, 3))
        params = to_f64(m.params)

        def loss(p):
            out, _ = m.forward(x, params=p)
            return float(np.sum(out * proj))

        out, cache = m.forward(x, params=params)
        grads = m.backward(cache, proj.copy(), params=params)
        err = fd_check(loss, params, grads, rng, n_coords=30, h=1e-5)
        assert err < 1e-4

    def test_end_to_end_fd_dense(self):
        m = small_model(head_mode="dense", seed=4)
        rng = make_rng(15)
        x = rng.normal(size=(2, 1, 8))
        params = to_f64(m.params)
        out, cache = m.forward(x, params=params)
        proj = rng.normal(size=out.shape)

        def loss(p):
            o, _ = m.forward(x, params=p)
            return float(np.sum(o * proj))

        grads = m.backward(cache, proj.copy(), params=params)
        err = fd_check(loss, params, grads, rng, n_coords=30, h=1e-5)
        assert err < 1e-4

    def test_backward_replay_bit_identical(self):
        # no backward writes into a cache, so a second pass gives the same bits
        for head_mode in ("classification", "dense"):
            m = small_model(head_mode=head_mode)
            x = make_rng(16).normal(size=(2, 1, 8)).astype(np.float32)
            out, cache = m.forward(x)
            g = make_rng(18).normal(size=out.shape).astype(np.float32)
            first = m.backward(cache, g.copy())
            second = m.backward(cache, g.copy())
            assert list(first) == list(second)
            assert all(first[n].tobytes() == second[n].tobytes() for n in first)

    def test_shape_composition(self):
        # embedder -> body -> head composes to the declared output shape
        rng = make_rng(17)
        for _ in range(6):
            k = int(rng.integers(1, 4))
            d = 8
            length = int(rng.integers(4, 20)) * k
            s = length // k
            classes = int(rng.integers(2, 5))
            emb = EmbedderSpec(1, 1, k, d, s)
            body = BodySpec(layers=1, heads=2, embed_dim=d, seq_len=s)
            head = HeadSpec(mode="classification", classes=classes)
            m = Model.build(emb, body, head, seed=int(rng.integers(100)))
            out, _ = m.forward(rng.normal(size=(2, 1, length)))
            assert out.shape == (2, classes)


class TestMaskAndWarmInit:
    def build_params(self):
        m = small_model(seed=5)
        return m.params

    def test_full(self):
        params = trainable_mask(self.build_params(), "full")
        assert all(params.entry(n).trainable for n in params.names())

    def test_layernorm_only_census(self):
        params = trainable_mask(self.build_params(), "layernorm_only")
        body_trainable = [n for n in params.names()
                         if n.startswith("body.") and params.entry(n).trainable]
        # 1 block x 2 layernorms x (scale, shift)
        assert sorted(body_trainable) == [
            "body.block0.ln1.scale", "body.block0.ln1.shift",
            "body.block0.ln2.scale", "body.block0.ln2.shift",
        ]
        assert not params.entry("embedder.pos").trainable
        assert params.entry("embedder.conv.weight").trainable
        assert params.entry("head.linear.weight").trainable

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            trainable_mask(self.build_params(), "bogus")

    def test_warm_init_copies_bitwise(self):
        params = self.build_params()
        params.set("body.block0.ln1.scale", make_rng(18).normal(size=8))
        warm_init_layernorm(params)
        assert np.array_equal(params["embedder.ln.scale"], params["body.block0.ln1.scale"])
        assert params.entry("embedder.ln.scale").provenance == "warm-init"
        assert params.entry("embedder.ln.shift").provenance == "warm-init"


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        m = small_model(seed=6)
        trainable_mask(m.params, "layernorm_only")
        p1 = tmp_path / "ck1"
        p2 = tmp_path / "ck2"
        m.params.save(p1, meta={"note": "x"})
        loaded, meta = ParameterSet.load(p1)
        assert meta == {"note": "x"}
        loaded.save(p2, meta=meta)
        assert (p1 / "manifest.json").read_bytes() == (p2 / "manifest.json").read_bytes()
        assert (p1 / "params.bin").read_bytes() == (p2 / "params.bin").read_bytes()

    def test_flags_and_provenance_survive(self, tmp_path):
        m = small_model(seed=7)
        trainable_mask(m.params, "layernorm_only")
        warm_init_layernorm(m.params)
        m.params.save(tmp_path / "ck")
        loaded, _ = ParameterSet.load(tmp_path / "ck")
        for n in m.params.names():
            assert loaded.entry(n).trainable == m.params.entry(n).trainable
            assert loaded.entry(n).provenance == m.params.entry(n).provenance
            assert np.array_equal(loaded[n], m.params[n])

    def test_corrupt_blob_detected(self, tmp_path):
        m = small_model(seed=8)
        m.params.save(tmp_path / "ck")
        blob = (tmp_path / "ck" / "params.bin").read_bytes()
        (tmp_path / "ck" / "params.bin").write_bytes(blob[:-8])
        with pytest.raises(FormatError, match=r"expected \d+ bytes, got \d+"):
            ParameterSet.load(tmp_path / "ck")
