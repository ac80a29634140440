"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run: operations executed while a :class:`Tape` is active are
recorded and can be differentiated with ``backward(tape, loss, wrt)``.
With no active tape the same functions run forward-only, which is what
evaluation uses. The operation set is exactly what the pose model needs;
there is no general broadcasting beyond the documented cases.

Everything is double precision and single-threaded. Two backward passes
over identical inputs produce bit-identical gradients: node ids are
assigned in execution order and the backward walk visits them in strict
reverse, accumulating contributions in that fixed order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

_ACTIVE_TAPE = None


class Tensor:
    """A value participating in differentiable computation.

    Wraps a float64 ndarray. An op output recorded on a tape holds that
    tape and its ``node_id`` on it; every other tensor (a parameter, a
    constant, a value computed with no tape) holds None in both.
    """

    __slots__ = ("data", "node_id", "_tape")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.node_id = None
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node_id={self.node_id})"


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Use as a context manager; nesting is not supported. The tape is
    rebuilt every forward pass, which keeps per-frame control flow
    trivially correct. Only its op outputs point at it, so it is freed
    with the last of them.
    """

    def __init__(self):
        self._parents = []  # node id -> tuple of (parent_id, vjp); () for a leaf
        # id(tensor) -> (node id, tensor) for the leaves; holding the tensor
        # keeps its id from being reused while the tape lives
        self._leaves = {}

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("tapes cannot be nested")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _node(self, t: Tensor, add: bool) -> int | None:
        """Node id of ``t`` on this tape; a new leaf if ``add``, else None."""
        if t._tape is self:
            return t.node_id
        leaf = self._leaves.get(id(t))
        if leaf is None and add:
            leaf = self._leaves[id(t)] = (len(self._parents), t)
            self._parents.append(())
        return None if leaf is None else leaf[0]

    def _emit(self, value: np.ndarray, parents) -> Tensor:
        out = Tensor(value)
        out._tape = self
        out.node_id = len(self._parents)
        self._parents.append(tuple(parents))
        return out


def _value(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _apply(value, *parent_specs):
    """Record an op if a tape is active; parent_specs are (input, vjp) pairs.

    Non-Tensor inputs are constants and never receive gradients.
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        return Tensor(value)
    parents = []
    for inp, vjp in parent_specs:
        if isinstance(inp, Tensor):
            parents.append((tape._node(inp, add=True), vjp))
    return tape._emit(value, parents)


def record_op(value, parent_specs) -> Tensor:
    """Public hook for custom primitives with hand-written vjps.

    ``parent_specs`` is an iterable of (input, vjp) pairs where ``vjp``
    maps the output gradient to that input's gradient.
    """
    return _apply(np.asarray(value, dtype=np.float64), *parent_specs)


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b) -> Tensor:
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    out = av @ bv
    return _apply(
        out,
        (a, lambda g, bv=bv: g @ bv.T),
        (b, lambda g, av=av: av.T @ g),
    )


def add(a, b) -> Tensor:
    """Elementwise sum; also matrix + trailing-axis vector, tensor + scalar."""
    av, bv = _value(a), _value(b)
    if av.shape == bv.shape:
        out = av + bv
        return _apply(out, (a, lambda g: g), (b, lambda g: g))
    if bv.ndim == 1 and av.ndim >= 1 and av.shape[-1] == bv.shape[0]:
        out = av + bv
        d = bv.shape[0]
        return _apply(
            out,
            (a, lambda g: g),
            (b, lambda g, d=d: g.reshape(-1, d).sum(axis=0)),
        )
    if bv.ndim == 0:
        out = av + bv
        return _apply(out, (a, lambda g: g), (b, lambda g: g.sum()))
    raise DimensionError(f"add: incompatible shapes {av.shape} + {bv.shape}")


def sub(a, b) -> Tensor:
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape and av.ndim != 0 and bv.ndim != 0:
        raise DimensionError(f"sub: incompatible shapes {av.shape} - {bv.shape}")
    out = av - bv
    spec_a = (a, (lambda g: g) if av.ndim else (lambda g: g.sum()))
    spec_b = (b, (lambda g: -g) if bv.ndim else (lambda g: -g.sum()))
    return _apply(out, spec_a, spec_b)


def mul(a, b) -> Tensor:
    """Elementwise product of same-shape operands (either may be constant)."""
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape and av.ndim != 0 and bv.ndim != 0:
        raise DimensionError(f"mul: incompatible shapes {av.shape} * {bv.shape}")
    out = av * bv

    def vjp_for(other, own_ndim):
        if own_ndim == 0 and other.ndim != 0:
            return lambda g: (g * other).sum()
        return lambda g: g * other

    return _apply(out, (a, vjp_for(bv, av.ndim)), (b, vjp_for(av, bv.ndim)))


def div(a, b) -> Tensor:
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise DimensionError(f"div: incompatible shapes {av.shape} / {bv.shape}")
    out = av / bv
    return _apply(
        out,
        (a, lambda g, bv=bv: g / bv),
        (b, lambda g, av=av, bv=bv: -g * av / (bv * bv)),
    )


def scale(x, s: float) -> Tensor:
    s = float(s)
    return _apply(_value(x) * s, (x, lambda g: g * s))


def relu(x) -> Tensor:
    xv = _value(x)
    out = np.maximum(xv, 0.0)
    return _apply(out, (x, lambda g, m=(xv > 0.0): g * m))


def sigmoid(x) -> Tensor:
    xv = _value(x)
    # Two-branch form: stable for large |x| in either direction.
    e = np.exp(-np.abs(xv))
    out = np.where(xv >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _apply(out, (x, lambda g, out=out: g * out * (1.0 - out)))


def tanh(x) -> Tensor:
    out = np.tanh(_value(x))
    return _apply(out, (x, lambda g, out=out: g * (1.0 - out * out)))


def softmax(x) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    xv = _value(x)
    shifted = xv - xv.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, out=out):
        return out * (g - (g * out).sum(axis=-1, keepdims=True))

    return _apply(out, (x, vjp))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last axis to zero mean / unit variance,
    then apply the affine (gain, bias)."""
    xv, gv, bv = _value(x), _value(gain), _value(bias)
    d = xv.shape[-1]
    if gv.shape != (d,) or bv.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias {gv.shape}/{bv.shape} do not match width {d}"
        )
    mu = xv.mean(axis=-1, keepdims=True)
    var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv
    out = gv * xhat + bv

    def vjp_x(g, gv=gv, xhat=xhat, inv=inv):
        gh = g * gv
        return inv * (
            gh
            - gh.mean(axis=-1, keepdims=True)
            - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        )

    def vjp_gain(g, xhat=xhat, d=d):
        return (g * xhat).reshape(-1, d).sum(axis=0)

    def vjp_bias(g, d=d):
        return g.reshape(-1, d).sum(axis=0)

    return _apply(out, (x, vjp_x), (gain, vjp_gain), (bias, vjp_bias))


def concat(parts, axis: int = 0) -> Tensor:
    values = [_value(p) for p in parts]
    out = np.concatenate(values, axis=axis)
    specs = []
    offset = 0
    for p, v in zip(parts, values):
        n = v.shape[axis]

        def vjp(g, start=offset, stop=offset + n, axis=axis):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            return g[tuple(index)]

        specs.append((p, vjp))
        offset += n
    return _apply(out, *specs)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    xv = _value(x)
    index = [slice(None)] * xv.ndim
    index[axis] = slice(start, start + length)
    out = xv[tuple(index)]

    def vjp(g, shape=xv.shape, index=tuple(index)):
        full = np.zeros(shape)
        full[index] = g
        return full

    return _apply(out, (x, vjp))


def transpose(x) -> Tensor:
    xv = _value(x)
    if xv.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {xv.shape}")
    return _apply(xv.T.copy(), (x, lambda g: g.T))


def reshape(x, shape) -> Tensor:
    xv = _value(x)
    out = xv.reshape(shape)
    return _apply(out, (x, lambda g, s=xv.shape: g.reshape(s)))


def max_over_rows(x) -> Tensor:
    """Column-wise max of a matrix, shape (n, d) -> (1, d).

    Ties route the gradient to the lowest row index (deterministic).
    """
    xv = _value(x)
    if xv.ndim != 2:
        raise DimensionError(f"max_over_rows expects a matrix, got {xv.shape}")
    arg = xv.argmax(axis=0)
    out = xv[arg, np.arange(xv.shape[1])][None, :]

    def vjp(g, arg=arg, shape=xv.shape):
        full = np.zeros(shape)
        full[arg, np.arange(shape[1])] = g[0]
        return full

    return _apply(out, (x, vjp))


def rownorm(x) -> Tensor:
    """Euclidean norm of each row, (n, d) -> (n,).

    The subgradient at an all-zero row is taken as zero.
    """
    xv = _value(x)
    if xv.ndim != 2:
        raise DimensionError(f"rownorm expects a matrix, got {xv.shape}")
    out = np.sqrt((xv * xv).sum(axis=1))

    def vjp(g, xv=xv, out=out):
        safe = np.where(out > 0.0, out, 1.0)
        return (g / safe)[:, None] * xv * (out > 0.0)[:, None]

    return _apply(out, (x, vjp))


def sum_all(x) -> Tensor:
    xv = _value(x)
    return _apply(np.asarray(xv.sum()), (x, lambda g, s=xv.shape: np.broadcast_to(g, s).copy()))


_IM2COL_CACHE: dict[tuple, np.ndarray] = {}


def _im2col_index(c: int, h: int, w: int, kernel: int, stride: int, pad: int):
    """Flat gather indices mapping a padded (c,h,w) image to patch rows.

    Out-of-bounds taps point at a trailing zero slot so padding needs no
    copy of the input.
    """
    key = (c, h, w, kernel, stride, pad)
    cached = _IM2COL_CACHE.get(key)
    if cached is not None:
        return cached
    h_out = (h + 2 * pad - kernel) // stride + 1
    w_out = (w + 2 * pad - kernel) // stride + 1
    zero_slot = c * h * w
    idx = np.full((h_out * w_out, c * kernel * kernel), zero_slot, dtype=np.int64)
    col = 0
    for ci in range(c):
        for ki in range(kernel):
            for kj in range(kernel):
                rows = np.arange(h_out) * stride + ki - pad
                cols = np.arange(w_out) * stride + kj - pad
                rr, cc = np.meshgrid(rows, cols, indexing="ij")
                valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
                flat = ci * h * w + rr * w + cc
                idx[:, col] = np.where(valid, flat, zero_slot).ravel()
                col += 1
    _IM2COL_CACHE[key] = (idx, (h_out, w_out))
    return _IM2COL_CACHE[key]


def im2col(x, kernel: int, stride: int, pad: int) -> Tensor:
    """Extract convolution patches from a (c, h, w) image.

    Output is (h_out * w_out, c * kernel * kernel); a convolution is then
    a plain matmul with a (c*k*k, c_out) weight matrix.
    """
    xv = _value(x)
    if xv.ndim != 3:
        raise DimensionError(f"im2col expects (c, h, w), got {xv.shape}")
    c, h, w = xv.shape
    idx, _ = _im2col_index(c, h, w, kernel, stride, pad)
    flat = np.append(xv.ravel(), 0.0)
    out = flat[idx]

    def vjp(g, idx=idx, c=c, h=h, w=w):
        # bincount sums in the same order as np.add.at, many times faster
        acc = np.bincount(idx.ravel(), weights=g.ravel(), minlength=c * h * w + 1)
        return acc[:-1].reshape(c, h, w)

    return _apply(out, (x, vjp))


# ---------------------------------------------------------------------------
# composites


def linear(x, w, b) -> Tensor:
    return add(matmul(x, w), b)


def gru_cell(x, h_prev, wz, uz, bz, wr, ur, br, wh, uh, bh) -> Tensor:
    """One gated recurrent unit step for row vectors.

    z and r are sigmoid update/reset gates; the candidate state is tanh
    with the reset gate applied to the recurrent term.
    """
    z = sigmoid(add(add(matmul(x, wz), matmul(h_prev, uz)), bz))
    r = sigmoid(add(add(matmul(x, wr), matmul(h_prev, ur)), br))
    n = tanh(add(add(matmul(x, wh), mul(r, matmul(h_prev, uh))), bh))
    return add(mul(sub(1.0, z), n), mul(z, h_prev))


def backward(tape: Tape, loss: Tensor, wrt) -> dict:
    """Gradients of a scalar loss recorded on ``tape``, keyed like ``wrt``.

    ``wrt`` has ``.items()`` of (key, Tensor), e.g. a dict or a
    ParameterStore. The result follows its order and holds only the
    tensors the loss reaches on this tape; an absent key has an exactly
    zero gradient. Nodes are swept in strict reverse and each gradient
    is dropped once passed on, unless it was asked for.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    if loss._tape is None:
        return {}  # constant loss: every gradient is exactly zero
    if loss._tape is not tape:
        raise ContractError("loss tensor was recorded on a different tape")
    wanted = {key: tape._node(t, add=False) for key, t in wrt.items()}
    keep = set(wanted.values())
    grads: list = [None] * len(tape._parents)
    grads[loss.node_id] = np.ones_like(loss.data)
    for nid in range(loss.node_id, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        if nid not in keep:
            grads[nid] = None
        for pid, vjp in tape._parents[nid]:
            contrib = vjp(g)
            # Never accumulate in place: vjps may return views.
            grads[pid] = contrib if grads[pid] is None else grads[pid] + contrib
    return {key: grads[nid] for key, nid in wanted.items()
            if nid is not None and grads[nid] is not None}
