"""Parameter/module tree, neural layers, Adam, the training step, and
checkpoint serialization.

A parameter's ``requires_grad`` is its only trainability flag: ``freeze``
clears it, so the parameter receives no gradients and the optimizer skips
it, which is how encoder/LM freezing during fusion training is enforced.
Every trainer updates its weights through ``train_step``.

Checkpoint byte layout (little-endian throughout):

    magic   4 bytes  b"SLMF"
    version u32      currently 1
    n_meta  u32      then n_meta x (key, value) strings, each u32 length + UTF-8
    n_tens  u32      then the tensor directory:
                       name   u32 length + UTF-8
                       dtype  u8   (0 = float64, the only code)
                       rank   u8
                       dims   rank x u32
    payload          raw little-endian tensor bytes, directory order

A checkpointed model class (``pretrain.SpeechEncoder``, ``asr.CtcModel``,
``slm.FusionModel``) holds its ``kind``, a ``record()`` of the metadata
entries that rebuild it and a ``from_record(path, metadata)`` classmethod
that builds it untrained; a ``CtcModel`` or ``FusionModel`` record starts
with its ``SpeechEncoder``'s. ``save_checkpoint`` and ``load_checkpoint`` are
the one save and load path of every kind. Loading checks the kind, is
strict (names and shapes must match the module tree exactly), names the
file in every error and restores weights only; optimizer state always
starts fresh.
"""

from __future__ import annotations

import struct

import numpy as np

from . import tensor as T
from .errors import CheckpointError, ConfigError, GraphError
from .fileio import atomic_open
from .tensor import Tensor

CHECKPOINT_MAGIC = b"SLMF"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {0: "<f8"}


class Parameter(Tensor):
    """A trainable leaf tensor; ``freeze``/``unfreeze`` set ``requires_grad``
    and clear any gradient."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def freeze(self):
        self.requires_grad = False
        self.grad = None

    def unfreeze(self):
        self.requires_grad = True
        self.grad = None


class Module:
    """Tree of named parameters and submodules.

    Assigning a Parameter or Module attribute registers it under the
    attribute name; parameter paths are dot-joined and unique per tree.
    """

    def __init__(self):
        self._params = {}
        self._modules = {}

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def freeze(self):
        for p in self.parameters():
            p.freeze()
        return self

    def unfreeze(self):
        for p in self.parameters():
            p.unfreeze()
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def state_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self.named_parameters()}


class ModuleList(Module):
    """Submodules registered as "0", "1", ... and iterated in that order."""

    def __init__(self, modules):
        super().__init__()
        for i, mod in enumerate(modules):
            setattr(self, str(i), mod)

    def __iter__(self):
        return iter(self._modules.values())


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) with rejection outside two standard deviations."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


# ---------------------------------------------------------------------------
# Layers


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(trunc_normal(rng, (d_in, d_out)))
        self.bias = Parameter(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class Embedding(Module):
    def __init__(self, n_rows: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.table = Parameter(trunc_normal(rng, (n_rows, dim)))

    def __call__(self, ids) -> Tensor:
        return T.embedding_lookup(self.table, ids)


class Conv1d(Module):
    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(trunc_normal(rng, (c_out, c_in, kernel)))
        self.bias = Parameter(np.zeros(c_out))
        self.stride = stride
        self.kernel = kernel

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, self.stride)


def sinusoidal_positions(n: int, dim: int, start: int = 0) -> np.ndarray:
    """Rows ``start .. start + n`` of the fixed sin/cos position table, shape
    (n, dim); a row's values do not depend on ``n`` or ``start``."""
    pos = np.arange(start, start + n)[:, None]
    half = (dim + 1) // 2
    i = np.arange(half)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((n, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    return table


class MultiHeadSelfAttention(Module):
    def __init__(self, dim: int, n_heads: int, causal: bool, rng: np.random.Generator):
        super().__init__()
        if dim % n_heads != 0:
            raise GraphError(f"dim {dim} not divisible by {n_heads} heads")
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.n_heads = n_heads
        self.causal = causal

    def __call__(self, x: Tensor, cache=None) -> Tensor:
        """Self-attention over the rows of ``x``. Given a ``cache`` (a list,
        empty at first), the rows of ``x`` follow those of earlier calls with
        that cache and attend to their keys and values too; the cache then
        holds ``[k, v]`` of every row so far, each (heads, rows, head dim)."""
        t, d = x.data.shape
        h = self.n_heads
        dh = d // h

        def split_heads(m):
            return T.transpose(T.reshape(m, (t, h, dh)), (1, 0, 2))  # (h, t, dh)

        q = split_heads(self.wq(x))
        k = split_heads(self.wk(x))
        v = split_heads(self.wv(x))
        if cache is not None:
            if cache:
                k = T.concat([cache[0], k], axis=1)
                v = T.concat([cache[1], v], axis=1)
            cache[:] = [k, v]
        t_all = k.data.shape[1]
        scores = T.matmul(q, T.transpose(k, (0, 2, 1))) * Tensor(1.0 / np.sqrt(dh))
        if self.causal and t > 1:
            # large negative bias keeps every intermediate value finite
            bias = np.triu(np.full((t, t_all), -1e9), k=t_all - t + 1)
            scores = scores + Tensor(bias)
        attn = T.softmax(scores)
        ctx = T.matmul(attn, v)  # (h, t, dh)
        merged = T.reshape(T.transpose(ctx, (1, 0, 2)), (t, d))
        return self.wo(merged)


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


class TransformerLayer(Module):
    """Pre-norm transformer block with residual connections."""

    def __init__(self, dim: int, n_heads: int, ff_mult: int, causal: bool,
                 rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, causal, rng)
        self.ln2 = LayerNorm(dim)
        self.ff = FeedForward(dim, ff_mult * dim, rng)

    def __call__(self, x: Tensor, cache=None) -> Tensor:
        x = x + self.attn(self.ln1(x), cache)
        return x + self.ff(self.ln2(x))


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """Bias-corrected Adam over a module tree; parameters without
    ``requires_grad`` are skipped.

    Update: m_hat = m / (1 - b1^t); v_hat = v / (1 - b2^t);
    p -= lr * m_hat / (sqrt(v_hat) + eps). A fresh state has m = v = 0, t = 0.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, module: Module, lr: float):
        self.module = module
        self.lr = lr
        self.t = 0
        self._m = {}
        self._v = {}

    def zero_grad(self):
        self.module.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.module.named_parameters():
            if not p.requires_grad:
                continue
            if p.grad is None:
                raise GraphError(f"missing grad on trainable parameter '{name}'")
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m += (1.0 - self.beta1) * (p.grad - m)
            v += (1.0 - self.beta2) * (p.grad * p.grad - v)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def train_step(opt: Adam, losses) -> float:
    """One optimizer step on the mean of ``losses``; returns that mean.

    The losses are added left to right and then divided by their count
    (division by 1 is exact). Callers pass the list without keeping it, so
    the graph is freed before the next step builds its own.
    """
    loss = losses[0]
    for extra in losses[1:]:
        loss = loss + extra
    loss = loss / len(losses)
    opt.zero_grad()
    loss.backward()
    opt.step()
    return loss.item()


# ---------------------------------------------------------------------------
# Checkpoints


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError("checkpoint file truncated")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def checkpoint_bytes(arrays: dict, metadata: dict | None = None) -> bytes:
    metadata = metadata or {}
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    parts.append(struct.pack("<I", len(metadata)))
    for key in metadata:
        parts.append(_pack_str(str(key)))
        parts.append(_pack_str(str(metadata[key])))
    parts.append(struct.pack("<I", len(arrays)))
    payloads = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype != np.float64:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for tensor '{name}'")
        parts.append(_pack_str(name))
        parts.append(struct.pack("<BB", 0, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payloads.append(arr.astype("<f8").tobytes())
    return b"".join(parts) + b"".join(payloads)


def parse_checkpoint_bytes(raw: bytes):
    r = _Reader(raw)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    metadata = {}
    for _ in range(r.u32()):
        key = r.string()
        metadata[key] = r.string()
    directory = []
    for _ in range(r.u32()):
        name = r.string()
        code = r.u8()
        rank = r.u8()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"unknown dtype code {code} for tensor '{name}'")
        directory.append((name, code, dims))
    arrays = {}
    for name, code, dims in directory:
        dt = np.dtype(_DTYPE_CODES[code])
        count = int(np.prod(dims)) if dims else 1
        arrays[name] = np.frombuffer(r.take(count * dt.itemsize), dtype=dt).reshape(dims)
    return arrays, metadata


def save_checkpoint(model: Module, path, provenance: dict) -> None:
    """Write ``model``'s checkpoint: metadata ``kind``, then the entries of
    ``model.record()``, then ``provenance``; tensors in parameter order."""
    metadata = {"kind": model.kind, **model.record(), **provenance}
    with atomic_open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model.state_arrays(), metadata))


def read_checkpoint(path):
    """Return (arrays, metadata) from one read of ``path``; parse errors
    name the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_checkpoint_bytes(raw)
    except (CheckpointError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def load_checkpoint(path, cls):
    """The ``cls`` model stored at ``path``.

    The file's ``kind`` entry must be ``cls.kind``; ``cls.from_record(path,
    metadata)`` builds the untrained module, and the file's tensors must
    match its parameters exactly in names and shapes. Every error names
    ``path``.
    """
    arrays, metadata = read_checkpoint(path)
    if metadata.get("kind") != cls.kind:
        raise ConfigError(
            f"{path}: checkpoint kind {metadata.get('kind')!r} is not {cls.kind!r}"
        )
    model = cls.from_record(path, metadata)
    params = dict(model.named_parameters())
    for name, arr in arrays.items():
        p = params.pop(name, None)
        if p is None:
            raise CheckpointError(f"{path}: checkpoint tensor '{name}' not in module tree")
        if tuple(arr.shape) != tuple(p.data.shape):
            raise CheckpointError(
                f"{path}: shape mismatch for parameter '{name}': "
                f"checkpoint {tuple(arr.shape)} vs module {tuple(p.data.shape)}"
            )
        p.data = arr.astype(np.float64)
    if params:
        raise CheckpointError(f"{path}: checkpoint missing parameters: "
                              f"{', '.join(sorted(params))}")
    return model
