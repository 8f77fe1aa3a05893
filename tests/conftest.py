"""Shared test helpers: finite-difference oracle, the reference graph ops
the tests build losses and the reference attention path from (the
log-softmax op and masked cross-entropy the loss ops once took among
them, the matmul that ``tensor.linear`` replaced, and the broadcasting
``mul`` and ``add`` that the masked-frame row gather and
``backward(scale)`` replaced), the completion mask and masked fusion loss
that the completion rule replaced, the joint training step that the
one-item-at-a-time step replaced, subprocess environments, and the
benchmark's input writer."""

import importlib.util
import os
import sys
import types
from pathlib import Path

import numpy as np

from slmforge import tensor as T
from slmforge.errors import GraphError
from slmforge.slm import ChatTemplate
from slmforge.tensor import Tensor, _accumulate, _make

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"


def cli_env():
    """Environment for a ``python -m slmforge`` subprocess.

    The checkout's ``src`` goes first on PYTHONPATH by absolute path, so the
    package imports from any cwd and without being installed.
    """
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def bench_inputs(monkeypatch):
    """``bench/inputs.py``, the benchmark's seeded input writer, loaded as a
    module for the length of one test."""
    # bench/bootstrap.py pins BLAS threads for a fresh benchmark process
    monkeypatch.setitem(sys.modules, "bootstrap", types.ModuleType("bootstrap"))
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    return inputs


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, the scalar loss of most gradient tests."""
    out = np.asarray(a.data.sum())

    def backward(grad):
        _accumulate(a, np.broadcast_to(grad, a.data.shape).copy())

    return _make(out, (a,), backward, "sum")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting element-wise product: the cotangent weighting of the
    ``tsum(mul(out, W))`` checks, the ``h * keep + mask_embed * fill`` masked
    frames and the ``loss / n`` seed of the references."""
    out = a.data * b.data

    def backward(grad):
        _accumulate(a, _unbroadcast(grad * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(grad * a.data, b.data.shape))

    return _make(out, (a, b), backward, "mul")


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """``tensor.add`` as it was when it broadcast: the bias add of the
    two-node path that ``tensor.linear`` replaced, and the masked-frame
    reference's sum."""
    out = a.data + b.data

    def backward(grad):
        _accumulate(a, _unbroadcast(grad, a.data.shape))
        _accumulate(b, _unbroadcast(grad, b.data.shape))

    return _make(out, (a, b), backward, "add")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product as one graph node: with ``broadcast_add`` for the bias,
    the two-node path that ``tensor.linear`` replaced, and the products of
    the reference attention composition."""
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise GraphError("matmul needs at least 1-D operands")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise GraphError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
        ) from None

    def backward(grad):
        ga = np.matmul(grad, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), grad)
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), backward, "matmul")


def reference_train_step(opt, losses) -> float:
    """``nn.train_step`` as it was when each trainer ran its own loop around
    it: one optimizer step on the mean loss of the batch ``losses``, one
    loss builder per item, each item's loss built and run backward from 1/n
    before the next is built; returns the mean loss."""
    n = len(losses)
    opt.module.zero_grad()
    total = None
    for build in losses:
        loss = build()
        loss.backward(1.0 / n)
        total = loss.item() if total is None else total + loss.item()
    opt.step()
    return total * (1.0 / n)


def trained_bytes(opt) -> tuple:
    """The parameters of ``opt``'s module and its Adam moments, as bytes."""
    return ([p.data.tobytes() for p in opt.module.parameters()],
            [(name, opt._m[name].tobytes(), opt._v[name].tobytes()) for name in opt._m])


def joint_train_step(opt, losses) -> float:
    """One step of ``nn.fit`` as it was before it built and ran one item's
    loss at a time: the built ``losses`` added left to right into one graph,
    divided by their count and run backward once, so every item's graph is
    alive until that one walk; returns the mean loss."""
    loss = losses[0]
    for extra in losses[1:]:
        loss = loss + extra
    loss = mul(loss, Tensor(1.0 / len(losses)))
    opt.module.zero_grad()
    loss.backward()
    opt.step()
    return loss.item()


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to one. ``tensor.attention``'s
    reference composition uses it."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(grad):
        dot = (grad * out).sum(axis=-1, keepdims=True)
        _accumulate(a, out * (grad - dot))

    return _make(out, (a,), backward, "softmax")


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis as a graph op, the CTC lattice the
    reference ``ctc_loss`` composition in ``test_asr`` reads."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def backward(grad):
        _accumulate(a, grad - soft * grad.sum(axis=-1, keepdims=True))

    return _make(out, (a,), backward, "log_softmax")


def masked_cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Cross-entropy averaged over the rows where ``mask`` is nonzero, each
    row weighted by its mask value; an all-zero mask is loss 0 with no
    gradient. The reference for losses that now pass only their scored
    rows to ``tensor.cross_entropy``."""
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    n = logits.data.shape[0]
    assert targets.shape == mask.shape == (n,)
    n_active = mask.sum()
    if n_active == 0.0:
        return _make(np.asarray(0.0), (logits,), lambda grad: None, "cross_entropy")
    safe_targets = np.where(mask > 0, targets, 0)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = logp[np.arange(n), safe_targets]
    out = np.asarray(-(picked * mask).sum() / n_active)

    def backward(grad):
        soft = np.exp(logp)
        onehot = np.zeros_like(soft)
        onehot[np.arange(n), safe_targets] = 1.0
        _accumulate(logits, grad * mask[:, None] * (soft - onehot) / n_active)

    return _make(out, (logits,), backward, "cross_entropy")


def completion_mask(ids, tokenizer) -> list:
    """1 exactly on assistant-completion positions (after the assistant
    marker, through the end marker inclusive): the 0/1 list the fusion loss
    once took in place of ``slm.completion_start``."""
    assistant = tokenizer.symbols.index(ChatTemplate.assistant_marker)
    end = tokenizer.symbols.index(ChatTemplate.end_marker)
    mask = [0] * len(ids)
    try:
        start = ids.index(assistant) + 1
    except ValueError:
        return mask
    for i in range(start, len(ids)):
        mask[i] = 1
        if ids[i] == end:
            break
    return mask


def masked_fusion_loss(lm, aligner, speech_features, ids, loss_mask, tokenizer,
                       targets_override=None) -> Tensor:
    """``slm.fusion_loss`` as it was when it took a loss mask: the mask
    selects the scored positions (every one but the first and the
    placeholder is predicted by the fused row before it), the targets are
    ``ids`` or ``targets_override``, and nothing scored is a loss of 0 with
    no gradient."""
    ids = list(ids)
    assert len(ids) == len(loss_mask)
    speech = aligner.align(speech_features)
    t_prime = speech.data.shape[0]
    placeholder = tokenizer.symbols.index(ChatTemplate.audio_marker)
    positions = [i for i, t in enumerate(ids) if t == placeholder]
    assert len(positions) == 1
    p = positions[0]
    before, after = ids[:p], ids[p + 1 :]
    parts = [lm.embed(np.asarray(before, dtype=np.int64))] if before else []
    parts.append(speech)
    if after:
        parts.append(lm.embed(np.asarray(after, dtype=np.int64)))
    fused = T.concat(parts)
    targets = np.asarray(targets_override if targets_override is not None else ids,
                         dtype=np.int64)
    assert len(targets) == len(ids)
    j = np.arange(1, len(ids))
    j = j[(j != p) & (np.asarray(loss_mask)[j] != 0)]
    if not len(j):
        return Tensor(0.0)
    rows = np.where(j < p, j - 1, j + t_prime - 2)
    return T.cross_entropy(lm.forward_embeddings(fused, rows=rows), targets[j])


def transpose(a: Tensor, axes) -> Tensor:
    """``a`` with its axes permuted; the reference attention path splits
    and merges heads with it."""
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def backward(grad):
        _accumulate(a, np.transpose(grad, inverse))

    return _make(out, (a,), backward, "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    """``a`` in a new shape; the reference attention path splits and merges
    heads with it."""
    out = a.data.reshape(shape)

    def backward(grad):
        _accumulate(a, grad.reshape(a.data.shape))

    return _make(out, (a,), backward, "reshape")


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grad_against_fd(op, arrays, grad_indices=None, rtol=1e-4, seed=0):
    """Compare analytic grads of sum(mul(op(*tensors), W)) against central FD.

    ``arrays`` are the op's numpy inputs; ``grad_indices`` selects which of
    them to differentiate (default: all). Returns the worst relative error.
    """
    rng = np.random.default_rng(seed)
    if grad_indices is None:
        grad_indices = list(range(len(arrays)))

    tensors = [Tensor(a.copy(), requires_grad=(i in grad_indices))
               for i, a in enumerate(arrays)]
    out = op(*tensors)
    cotangent = rng.standard_normal(out.data.shape)

    loss = tsum(mul(out, Tensor(cotangent)))
    loss.backward()

    worst = 0.0
    for i in grad_indices:
        def f(x, i=i):
            fresh = [Tensor(x if j == i else arrays[j]) for j in range(len(arrays))]
            return float((op(*fresh).data * cotangent).sum())

        numeric = finite_diff_grad(f, arrays[i].copy())
        worst = max(worst, max_rel_error(tensors[i].grad, numeric))
    return worst
