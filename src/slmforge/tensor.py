"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array plus an optional gradient. Ops record a dynamic
graph; ``backward(scale=1.0)`` on a scalar loss walks it in reverse
topological order from ``scale`` as the loss's gradient (a batch mean seeds
each item's loss with 1/n) and frees it as it goes, so one graph is walked
once. Any op producing NaN/Inf aborts immediately with an error naming the op.

The graph ops are ``add``, ``linear``, ``concat``, ``relu``, ``gelu``,
``attention``, ``layer_norm``, ``embedding_lookup`` and ``cross_entropy``
(``asr.ctc_loss`` is the tenth). Each takes (rows, dim) matrices, 1-D
parameter vectors or scalars, and none broadcasts one graph operand against
another: ``add`` takes two tensors of one shape, and each backward hands
every operand a gradient of that operand's own shape. An affine layer is one
op, ``linear``, with the bias added in place. A row swap, such as a masked
frame taking a learned embedding, is ``embedding_lookup`` over ``concat``.
Multi-head attention is one op over (rows, dim) tensors that splits and
joins the heads inside; it divides its output rows, not its probabilities,
by the softmax row sums, so it matches the op-by-op composition to 1e-12
relative, not bit for bit. Loss ops take logits and exactly the rows they
score, and normalise them with ``log_softmax``, a plain array helper that
records no graph node.

Gradient flow stops at tensors with ``requires_grad=False``; frozen model
parameters therefore never accumulate gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError, NonFiniteError

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph recording (inference / decoding)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = "leaf"

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __add__(self, other):
        return add(self, other)

    def backward(self, scale: float = 1.0) -> None:
        """Populate grads of every reachable requires_grad leaf tensor.

        The receiver must be a scalar (size-1) loss; the walk starts from
        ``scale`` as its gradient, so the leaves get the gradients of
        ``scale`` times the loss. The graph is released as the walk goes:
        once an op node has passed its gradient on, its ``grad``, backward
        closure and parents are dropped, so interior gradients are not kept
        and the forward arrays are freed as soon as nothing else holds them.
        Leaves (parameters, inputs) keep their gradients. A later
        ``backward()`` that reaches a released node (the same loss again, or
        another loss built on a shared subgraph) is a GraphError.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward_fn is None and node.requires_grad and node._op != "leaf":
                raise GraphError(
                    f"backward() reached the output of op '{node._op}', whose graph an "
                    "earlier backward() already released; build the loss again"
                )
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.full_like(self.data, scale)
        while topo:
            node = topo.pop()
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node.grad = None
                node._backward_fn = None
                node._parents = ()


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += grad


def _make(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values in output of op '{op}'")
    out = Tensor(data)
    out._op = op
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# Element-wise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """The sum of two tensors of one shape; other shapes are a GraphError."""
    if a.data.shape != b.data.shape:
        raise GraphError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = a.data + b.data

    def backward(grad):
        _accumulate(a, grad)
        _accumulate(b, grad)

    return _make(out, (a, b), backward, "add")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for (rows, in) ``x``: one graph node for a ``nn.Linear``.

    The forward adds ``b`` in place to the product, and the backward
    accumulates ``grad @ wᵀ``, ``xᵀ @ grad`` and ``grad``'s column sums. That
    is the arithmetic of ``add(matmul(x, w), b)``, whose matmul node received
    ``0.0 + grad``: the two differ only where ``grad`` holds -0.0, and there
    only in the sign of zeros, which ``_accumulate`` adds onto +0.0 and so
    writes as +0.0. Every gradient therefore has the two-node path's bytes.
    """
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise GraphError(f"matmul shape mismatch in linear: {x.data.shape} @ {w.data.shape}")
    out = np.matmul(x.data, w.data)
    out += b.data

    def backward(grad):
        _accumulate(x, np.matmul(grad, w.data.T))
        _accumulate(w, np.matmul(x.data.T, grad))
        _accumulate(b, grad.sum(axis=0))

    return _make(out, (x, w, b), backward, "linear")


def concat(tensors) -> Tensor:
    """The rows of ``tensors``, stacked in order; a 1-D tensor is one row,
    and its gradient is handed back as 1-D."""
    rows = [np.atleast_2d(t.data) for t in tensors]
    out = np.concatenate(rows)
    offsets = np.cumsum([0] + [len(r) for r in rows])

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, grad[lo:hi].reshape(t.data.shape))

    return _make(out, tuple(tensors), backward, "concat")


# ---------------------------------------------------------------------------
# Nonlinearities and normalization


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward(grad):
        _accumulate(a, grad * (a.data > 0.0))

    return _make(out, (a,), backward, "relu")


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    from scipy.special import erf  # here, not at import: commands without a model skip scipy

    x = a.data
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    out = x * cdf

    def backward(grad):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        _accumulate(a, grad * (cdf + x * pdf))

    return _make(out, (a,), backward, "gelu")


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, positions=None) -> Tensor:
    """Multi-head scaled dot-product attention over (rows, dim) tensors.

    Each of ``n_heads`` heads takes its own dim / ``n_heads`` columns of q,
    k and v and computes softmax(q kᵀ / sqrt(head dim)) v; the heads'
    outputs side by side are the (rows of q, dim) result. ``positions``,
    one integer in [0, rows of k) per row of q, makes the attention causal:
    query row i sees key rows 0 .. ``positions[i]`` only. Its scores at
    later keys are set to -inf before the row max, and their exp is written
    as 0.0, the value a -1e9 bias underflows to. ``None`` lets every query
    see every key.

    One graph node in place of the composition of head split, matmul,
    transpose, scale, mask, softmax, matmul and head join; the split and
    join are numpy views. The softmax is never divided out of the (heads,
    rows, rows) array: the forward scales q by 1/sqrt(head dim), turns the
    scores in place into e = exp(s - row max), and divides the (rows, head
    dim) product e v by the row sums l. The node saves e, l and that output
    o. The backward takes g = dO / l and forms dS = e ∘ (g vᵀ - rowsum(g ∘
    o)) in place in the g vᵀ product (FlashAttention's rowsum(dO ∘ O) in
    place of rowsum(dP ∘ P)), and scales dQ = dS k and dK = dSᵀ q after
    their (rows, head dim) products. This is the composition in exact
    arithmetic, but rounds apart from it: outputs and gradients agree with
    it to 1e-12 of each array's largest magnitude (the tests keep the
    composition as their reference). Masked scores give e exactly 0.0, so a
    query's output and dQ rows do not depend on the keys and values after
    its position. Query rows are not split into blocks: blocks of 64 rows
    gained 1-3% more on a training round and cost 1-2% on decoding, whose
    calls are single rows and short encoder inputs. No input or incoming
    gradient is written.
    """
    d = q.data.shape[1]
    dh = d // n_heads

    def split(m):  # (rows, dim) -> (heads, rows, head dim)
        return m.reshape(m.shape[0], n_heads, dh).transpose(1, 0, 2)

    def join(m):  # (heads, rows, head dim) -> (rows, dim)
        return m.transpose(1, 0, 2).reshape(m.shape[1], d)

    t, t_all = q.data.shape[0], k.data.shape[0]
    if positions is not None:
        positions = np.asarray(positions)
        if positions.shape != (t,):
            raise GraphError(f"attention positions shape {positions.shape} does not "
                             f"match {t} query rows")
        if t and (positions.min() < 0 or positions.max() >= t_all):
            raise GraphError(f"attention position out of range [0, {t_all}) of the key rows")
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(dh)
    e = np.matmul(qh * scale, np.swapaxes(kh, -1, -2))  # scores, then e in place
    if positions is None:
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
    else:
        masked = np.arange(t_all) > positions[:, None]
        np.copyto(e, -np.inf, where=masked)
        e -= e.max(axis=-1, keepdims=True)
        # exp(-inf) takes numpy's slow special-value path; its 0.0 is written
        np.exp(e, out=e, where=~masked)
        np.copyto(e, 0.0, where=masked)
    row_sums = e.sum(axis=-1, keepdims=True)
    o = np.matmul(e, vh) / row_sums
    out = join(o)

    def backward(grad):
        g = split(grad) / row_sums
        d_v = np.matmul(np.swapaxes(e, -1, -2), g)
        d_s = np.matmul(g, np.swapaxes(vh, -1, -2))  # g vᵀ, then dS in place
        d_s -= (g * o).sum(axis=-1, keepdims=True)
        d_s *= e
        _accumulate(q, join(np.matmul(d_s, kh)) * scale)
        _accumulate(k, join(np.matmul(np.swapaxes(d_s, -1, -2), qh)) * scale)
        _accumulate(v, join(d_v))

    return _make(out, (q, k, v), backward, "attention")


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of an array; no graph node."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of (rows, dim) ``a`` to zero mean / unit variance
    (eps 1e-8), then apply the (dim,) ``gain`` and ``bias``."""
    d = a.data.shape[-1]
    if a.data.ndim != 2 or gain.data.shape != (d,) or bias.data.shape != (d,):
        raise GraphError(f"layer_norm takes (rows, dim) input with (dim,) gain and bias, got "
                         f"{a.data.shape}, {gain.data.shape} and {bias.data.shape}")
    # the ufunc calls of numpy's mean and var, with the row centred once
    centred = a.data - np.add.reduce(a.data, -1, keepdims=True) / d
    var = np.add.reduce(np.square(centred), -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-8)
    xhat = centred * inv
    out = gain.data * xhat + bias.data

    def backward(grad):
        _accumulate(gain, (grad * xhat).sum(axis=0))
        _accumulate(bias, grad.sum(axis=0))
        gx = grad * gain.data
        gmean = np.add.reduce(gx, -1, keepdims=True) / d
        gproj = np.add.reduce(gx * xhat, -1, keepdims=True) / d
        _accumulate(a, inv * (gx - gmean - xhat * gproj))

    return _make(out, (a, gain, bias), backward, "layer_norm")


# ---------------------------------------------------------------------------
# Lookup and loss


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer index (also the row-gather op)."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise GraphError(f"embedding table must be 2-D, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise GraphError(
            f"index out of range for table with {table.data.shape[0]} rows"
        )
    out = table.data[ids]

    def backward(grad):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, grad)

    return _make(out, (table,), backward, "embedding_lookup")


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of (N, K) ``logits`` against N integer class ids.

    Every row is scored: a caller that scores some positions only passes
    those rows. No rows at all is a GraphError.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise GraphError(f"cross_entropy logits must be 2-D, got {logits.data.shape}")
    n, k = logits.data.shape
    if targets.shape != (n,):
        raise GraphError(
            f"cross_entropy targets shape {targets.shape} does not match logits rows {n}"
        )
    if n == 0:
        raise GraphError("cross_entropy needs at least one row")
    if targets.min() < 0 or targets.max() >= k:
        raise GraphError(f"cross_entropy target out of range for {k} classes")
    logp = log_softmax(logits.data)
    out = np.asarray(-logp[np.arange(n), targets].sum() / n)

    def backward(grad):
        soft = np.exp(logp)
        onehot = np.zeros_like(soft)
        onehot[np.arange(n), targets] = 1.0
        _accumulate(logits, grad * (soft - onehot) / n)

    return _make(out, (logits,), backward, "cross_entropy")
