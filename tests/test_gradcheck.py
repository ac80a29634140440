import numpy as np
import pytest

from fusionpose import autodiff as ad
from fusionpose.errors import InvalidInputError
from fusionpose.params import ParameterStore
from support import finite_diff_check


def test_quadratic_form_is_exact_to_roundoff():
    store = ParameterStore(seed=0)
    store.weight("theta", (5,))
    a = np.random.default_rng(1).normal(size=(5, 5))
    q = a @ a.T + np.eye(5)

    def f(s):
        theta = s["theta"]
        return ad.scale(ad.sum_all(ad.mul(ad.reshape(theta, (1, 5)),
                                          ad.matmul(ad.reshape(theta, (1, 5)), q))), 0.5)

    report = finite_diff_check(f, store, step=1e-5, tolerance=1e-8)
    assert report.max_error < 1e-8


def test_constant_function_reports_zero_everywhere():
    store = ParameterStore(seed=0)
    store.weight("w", (3, 3))

    def f(s):
        return ad.Tensor(np.asarray(4.25))

    report = finite_diff_check(f, store)
    assert report.max_error == 0.0


def test_softmax_cross_attention_composite():
    store = ParameterStore(seed=2)
    wq = store.weight("wq", (4, 4))
    wk = store.weight("wk", (4, 4))
    wv = store.weight("wv", (4, 4))
    rng = np.random.default_rng(3)
    fp = rng.normal(size=(3, 4))
    fi = rng.normal(size=(5, 4))
    target = rng.normal(size=(3, 4))

    def f(s):
        q = ad.matmul(fp, s["wq"])
        k = ad.matmul(fi, s["wk"])
        v = ad.matmul(fi, s["wv"])
        att = ad.matmul(ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), 0.5)), v)
        diff = ad.sub(att, target)
        return ad.scale(ad.sum_all(ad.mul(diff, diff)), 1.0 / diff.data.size)

    report = finite_diff_check(f, store)
    assert report.max_error < 1e-4, report.worst()


def test_non_finite_evaluation_names_the_parameter():
    store = ParameterStore(seed=0)
    w = store.weight("w.denom", (2,))
    floor = w.data[0]  # any downward perturbation goes non-finite

    def f(s):
        value = 0.0 if s["w.denom"].data[0] >= floor else float("nan")
        return ad.record_op(np.asarray(value),
                            [(s["w.denom"], lambda g: np.zeros(2))])

    with pytest.raises(InvalidInputError, match="w.denom"):
        finite_diff_check(f, store, step=1e-5)


def test_coordinate_subsampling_still_covers_every_parameter():
    store = ParameterStore(seed=5)
    store.weight("big", (40, 10))
    store.weight("small", (2,))
    x = np.random.default_rng(0).normal(size=(3, 40))

    def f(s):
        h = ad.tanh(ad.matmul(x, s["big"]))
        return ad.sum_all(ad.mul(ad.sum_all(h), ad.sum_all(ad.mul(s["small"], s["small"]))))

    report = finite_diff_check(f, store, max_coords_per_param=7)
    assert set(report.per_param) == {"big", "small"}
    assert report.max_error < 1e-4
