import gc
import weakref

import numpy as np
import pytest

from fusionpose import autodiff as ad
from fusionpose.errors import ContractError, DimensionError
from fusionpose.params import ParameterStore


def ad_grad(fn, x0: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and tape gradient of a scalar-producing op chain."""
    x = ad.Tensor(x0)
    with ad.Tape() as tape:
        out = ad.sum_all(fn(x))
    g = ad.backward(tape, out, {"x": x}).get("x", np.zeros_like(x.data))
    return float(out.data), g


def fd_grad(fn, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of sum(fn(x)) wrt x."""
    x = x0.copy()
    flat = x.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = float(ad.sum_all(fn(ad.Tensor(x))).data)
        flat[i] = keep - h
        fm = float(ad.sum_all(fn(ad.Tensor(x))).data)
        flat[i] = keep
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(x0.shape)


def assert_grad_close(fn, x0, tol=1e-6):
    _, g = ad_grad(fn, x0)
    g_fd = fd_grad(fn, x0)
    np.testing.assert_allclose(g, g_fd, rtol=tol, atol=tol)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    a = np.array([[3.0, 4.0], [5.0, 6.0]])
    out = ad.matmul(np.eye(2), a)
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_arithmetic():
    out = ad.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 3))
    b0 = rng.normal(size=(3, 3))
    a, b = ad.Tensor(a0), ad.Tensor(b0)
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.matmul(a, b))
    grads = ad.backward(tape, loss, {"a": a, "b": b})
    ga, gb = grads["a"], grads["b"]

    def f(av, bv):
        return float((av @ bv).sum())

    h = 1e-5
    for arr, g in ((a0, ga), (b0, gb)):
        flat = arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = f(a0, b0)
            flat[i] = keep - h
            fm = f(a0, b0)
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(fd - g.reshape(-1)[i]) <= 1e-4 * max(1.0, abs(fd))


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    out = ad.softmax(np.array([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_no_overflow():
    out = ad.softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data[0], 1.0)
    assert out.data[1] < 1e-300


@pytest.mark.parametrize("magnitude", [1.0, 1e2, 1e4])
def test_softmax_rows_sum_to_one(magnitude):
    rng = np.random.default_rng(3)
    x = rng.uniform(-magnitude, magnitude, size=(8, 5))
    out = ad.softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_gradient():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=4)
    weights = rng.normal(size=4)  # break symmetry: sum(softmax) grad is 0
    assert_grad_close(lambda x: ad.mul(ad.softmax(x), weights), x0)


# -- layer_norm ---------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(np.full((2, 3), 7.0), np.ones(3), np.zeros(3))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    out = ad.layer_norm(np.array([[-1.0, 1.0]]), np.ones(2), np.zeros(2), eps=1e-15)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_gradient():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(1, 8))
    weights = rng.normal(size=(1, 8))
    gain = rng.normal(size=8)
    bias = rng.normal(size=8)
    _, g = ad_grad(lambda x: ad.mul(ad.layer_norm(x, gain, bias), weights), x0)
    g_fd = fd_grad(lambda x: ad.mul(ad.layer_norm(x, gain, bias), weights), x0)
    np.testing.assert_allclose(g, g_fd, rtol=1e-4, atol=1e-7)


def test_layer_norm_gain_bias_gradients():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 6))
    g0, b0 = rng.normal(size=6), rng.normal(size=6)
    weights = rng.normal(size=(3, 6))
    gain, bias = ad.Tensor(g0), ad.Tensor(b0)
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.layer_norm(x, gain, bias), weights))
    grads = ad.backward(tape, loss, {"gain": gain, "bias": bias})
    gg, gb = grads["gain"], grads["bias"]
    h = 1e-6

    def value(gv, bv):
        return float(ad.sum_all(ad.mul(ad.layer_norm(x, gv, bv), weights)).data)

    for arr, got in ((g0, gg), (b0, gb)):
        for i in range(6):
            keep = arr[i]
            arr[i] = keep + h
            fp = value(g0, b0)
            arr[i] = keep - h
            fm = value(g0, b0)
            arr[i] = keep
            assert abs((fp - fm) / (2 * h) - got[i]) < 1e-4


# -- misc primitives ----------------------------------------------------------


def test_relu_example():
    np.testing.assert_array_equal(ad.relu(np.array([-1.0, 2.0])).data, [0.0, 2.0])


def test_elementwise_gradients():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(4, 3)) + 2.5  # keep away from relu kink and div zero
    other = rng.normal(size=(4, 3)) + 4.0
    assert_grad_close(lambda x: ad.relu(x), x0)
    assert_grad_close(lambda x: ad.sigmoid(x), x0)
    assert_grad_close(lambda x: ad.tanh(x), x0)
    assert_grad_close(lambda x: ad.mul(x, other), x0)
    assert_grad_close(lambda x: ad.div(x, other), x0)
    assert_grad_close(lambda x: ad.div(other, x), x0)
    assert_grad_close(lambda x: ad.sub(x, other), x0)
    assert_grad_close(lambda x: ad.scale(ad.scale(x, -1.0), 2.5), x0)


def test_structural_gradients():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))
    assert_grad_close(lambda x: ad.mul(ad.transpose(ad.transpose(x)), w), x0)
    assert_grad_close(lambda x: ad.mul(ad.reshape(ad.reshape(x, (24,)), (4, 6)), w), x0)
    assert_grad_close(lambda x: ad.narrow(x, 1, 1, 3), x0)
    assert_grad_close(lambda x: ad.concat([ad.narrow(x, 0, 0, 2), ad.narrow(x, 0, 2, 2)]), x0)
    assert_grad_close(lambda x: ad.mul(ad.max_over_rows(x), w[:1]), x0)
    assert_grad_close(lambda x: ad.rownorm(x), x0)


def test_rownorm_zero_row_subgradient_is_zero():
    x = ad.Tensor(np.zeros((2, 3)))
    with ad.Tape() as tape:
        out = ad.sum_all(ad.rownorm(x))
    grads = ad.backward(tape, out, {"x": x})
    np.testing.assert_array_equal(grads["x"], 0.0)


def test_im2col_gradient_and_shape():
    rng = np.random.default_rng(17)
    x0 = rng.normal(size=(2, 6, 6))
    col = ad.im2col(x0, kernel=3, stride=2, pad=1)
    assert col.shape == (9, 18)
    w = rng.normal(size=(9, 18))
    assert_grad_close(lambda x: ad.mul(ad.im2col(x, 3, 2, 1), w), x0)


def test_add_broadcast_bias_gradient():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(5, 3))
    b0 = rng.normal(size=3)
    b = ad.Tensor(b0)
    with ad.Tape() as tape:
        out = ad.sum_all(ad.mul(ad.add(x, b), x))
    gb = ad.backward(tape, out, {"b": b})["b"]
    np.testing.assert_allclose(gb, x.sum(axis=0), atol=1e-12)


# -- gru_cell -----------------------------------------------------------------


def _gru_params(rng, d_in, d_h):
    return dict(
        wz=rng.normal(size=(d_in, d_h)), uz=rng.normal(size=(d_h, d_h)), bz=rng.normal(size=d_h),
        wr=rng.normal(size=(d_in, d_h)), ur=rng.normal(size=(d_h, d_h)), br=rng.normal(size=d_h),
        wh=rng.normal(size=(d_in, d_h)), uh=rng.normal(size=(d_h, d_h)), bh=rng.normal(size=d_h),
    )


def test_gru_cell_zero_weights_zero_state():
    z = np.zeros((1, 3))
    params = {k: np.zeros((3, 3)) if k[0] in "wu" else np.zeros(3)
              for k in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")}
    h = ad.gru_cell(z, z, **params)
    np.testing.assert_array_equal(h.data, 0.0)


def test_gru_cell_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(1, 3))
    h0 = rng.normal(size=(1, 4))
    raw = _gru_params(rng, 3, 4)
    params = {k: ad.Tensor(v) for k, v in raw.items()}
    hprev = ad.Tensor(h0)
    with ad.Tape() as tape:
        out = ad.sum_all(ad.gru_cell(x, hprev, **params))
    got = ad.backward(tape, out, {**params, "hprev": hprev})
    assert list(got) == [*params, "hprev"]

    def value():
        return float(ad.sum_all(ad.gru_cell(x, ad.Tensor(h0), **{
            k: ad.Tensor(v) for k, v in raw.items()})).data)

    h = 1e-6
    for name, arr in {**raw, "hprev": h0}.items():
        flat = arr.reshape(-1)
        gflat = got[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = value()
            flat[i] = keep - h
            fm = value()
            flat[i] = keep
            fd = (fp - fm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-4 * max(1.0, abs(fd)), name


# -- tape / backward ----------------------------------------------------------


def test_backward_sum_gives_ones():
    w = ad.Tensor(np.arange(6, dtype=float).reshape(2, 3))
    with ad.Tape() as tape:
        loss = ad.sum_all(w)
    grads = ad.backward(tape, loss, {"w": w})
    np.testing.assert_array_equal(grads["w"], np.ones((2, 3)))


def test_backward_half_norm_squared_gives_w():
    w0 = np.array([1.0, -2.0, 3.0])
    w = ad.Tensor(w0)
    with ad.Tape() as tape:
        loss = ad.scale(ad.sum_all(ad.mul(w, w)), 0.5)
    grads = ad.backward(tape, loss, {"w": w})
    np.testing.assert_allclose(grads["w"], w0)


def test_backward_identity_contributes_exactly_one():
    x = ad.Tensor(np.array(3.0))
    with ad.Tape() as tape:
        y = ad.add(x, 0.0)
    grads = ad.backward(tape, y, {"x": x})
    assert float(grads["x"]) == 1.0


def test_backward_unused_input_gradient_is_exactly_zero():
    used = ad.Tensor(np.ones(3))
    unused = ad.Tensor(np.ones(3))
    with ad.Tape() as tape:
        ad.sum_all(unused)  # on-tape but not feeding the loss
        loss = ad.sum_all(used)
    grads = ad.backward(tape, loss, {"used": used, "unused": unused})
    assert list(grads) == ["used"]  # absent: exactly zero


def test_backward_by_path_returns_only_parameters_on_the_tape():
    store = ParameterStore(seed=3)
    used = store.weight("a.w", (2, 2))
    store.weight("b.w", (2, 2))
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(used, used))
    grads = ad.backward(tape, loss, store)
    assert list(grads) == ["a.w"]
    np.testing.assert_array_equal(grads["a.w"], 2.0 * used.data)


def test_backward_rejects_non_scalar_loss():
    x = ad.Tensor(np.ones(3))
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ContractError, match="scalar"):
        ad.backward(tape, y, {"x": x})


def test_backward_is_bit_deterministic():
    rng = np.random.default_rng(29)
    store = ParameterStore(seed=4)
    w1 = store.weight("a.w", (6, 6))
    w2 = store.weight("b.w", (6, 6))
    x = rng.normal(size=(2, 6))

    def run():
        with ad.Tape() as tape:
            h = ad.relu(ad.matmul(x, w1))
            loss = ad.sum_all(ad.softmax(ad.matmul(h, w2)))
        return ad.backward(tape, loss, store)

    g1, g2 = run(), run()
    for path in g1:
        assert np.array_equal(g1[path], g2[path])


def test_forward_stays_finite_on_finite_inputs():
    rng = np.random.default_rng(31)
    x = rng.uniform(-1e4, 1e4, size=(5, 4))
    for out in (ad.softmax(x), ad.tanh(x), ad.sigmoid(x),
                ad.layer_norm(x, np.ones(4), np.zeros(4))):
        assert np.isfinite(out.data).all()


def test_nested_tapes_rejected():
    with ad.Tape():
        with pytest.raises(ContractError):
            with ad.Tape():
                pass


def test_backward_follows_wrt_order_and_omits_unreached_tensors():
    a, b, c = (ad.Tensor(np.full(2, v)) for v in (1.0, 2.0, 3.0))
    off_tape = ad.Tensor(np.ones(2))
    with ad.Tape() as tape:
        side = ad.sum_all(c)  # recorded but not feeding the loss
        loss = ad.sum_all(ad.mul(a, b))
    grads = ad.backward(tape, loss, {"b": b, "off": off_tape, "side": side,
                                     "c": c, "a": a, "loss": loss})
    assert list(grads) == ["b", "a", "loss"]
    np.testing.assert_array_equal(grads["b"], a.data)
    np.testing.assert_array_equal(grads["a"], b.data)
    assert float(grads["loss"]) == 1.0


def test_backward_rejects_a_loss_from_another_tape():
    x = ad.Tensor(np.ones(3))
    with ad.Tape() as first:
        loss = ad.sum_all(x)
    with ad.Tape() as second:
        ad.sum_all(x)
    with pytest.raises(ContractError, match="different tape"):
        ad.backward(second, loss, {"x": x})
    assert ad.backward(first, loss, {"x": x})["x"].tolist() == [1.0, 1.0, 1.0]


def test_backward_of_a_constant_loss_is_empty():
    # what total_loss returns when every loss weight is zero
    x = ad.Tensor(np.ones(3))
    with ad.Tape() as tape:
        ad.sum_all(x)
        loss = ad.Tensor(np.zeros(()))
    assert ad.backward(tape, loss, {"x": x}) == {}


def test_output_of_an_earlier_tape_is_a_leaf_on_the_next():
    x = ad.Tensor(np.array([1.0, -2.0]))
    with ad.Tape() as first:
        y = ad.scale(x, 3.0)
    node = y.node_id
    with ad.Tape() as second:
        loss = ad.sum_all(ad.mul(y, y))
    grads = ad.backward(second, loss, {"x": x, "y": y})
    assert list(grads) == ["y"]  # x reaches the loss only through the first tape
    np.testing.assert_array_equal(grads["y"], 2.0 * y.data)
    # neither tape stamps its leaves; y keeps its place on the first tape
    assert (y._tape, y.node_id) == (first, node)
    assert (x._tape, x.node_id) == (None, None)


def _forward_that_raises(store, seen):
    with ad.Tape() as tape:
        seen.append(weakref.ref(tape))
        ad.sum_all(ad.mul(store["a.w"], store["a.w"]))
        raise ValueError("bad frame")


def test_tape_is_freed_with_its_last_output():
    store = ParameterStore(seed=5)
    w = store.weight("a.w", (3, 3))
    gc.disable()
    try:
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(w, w))
        assert list(ad.backward(tape, loss, store)) == ["a.w"]
        alive = weakref.ref(tape)
        del tape
        assert alive() is not None  # the loss still points at it
        del loss
        assert alive() is None
        assert (w._tape, w.node_id) == (None, None)
    finally:
        gc.enable()


def test_tape_of_a_forward_that_raised_is_freed():
    store = ParameterStore(seed=5)
    w = store.weight("a.w", (3, 3))
    gc.disable()
    try:
        seen = []
        try:
            _forward_that_raises(store, seen)
        except ValueError:
            pass
        assert seen[0]() is None
        assert w._tape is None
    finally:
        gc.enable()
