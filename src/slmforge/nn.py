"""Parameter/module tree, neural layers, Adam, and checkpoint serialization.

Parameters carry a ``frozen`` flag: frozen parameters receive no gradients
and are never touched by the optimizer, which is how encoder/LM freezing
during fusion training is enforced.

Checkpoint byte layout (little-endian throughout):

    magic   4 bytes  b"SLMF"
    version u32      currently 1
    n_meta  u32      then n_meta x (key, value) strings, each u32 length + UTF-8
    n_tens  u32      then the tensor directory:
                       name   u32 length + UTF-8
                       dtype  u8   (0 = float64, 1 = float32)
                       rank   u8
                       dims   rank x u32
    payload          raw little-endian tensor bytes, directory order

Loading restores weights only; optimizer state always starts fresh.
"""

from __future__ import annotations

import logging
import struct

import numpy as np

from . import tensor as T
from .errors import CheckpointError, GraphError
from .tensor import Tensor

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"SLMF"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {0: "<f8", 1: "<f4"}


class Parameter(Tensor):
    __slots__ = ("frozen",)

    def __init__(self, data, frozen: bool = False):
        super().__init__(data, requires_grad=not frozen)
        self.frozen = frozen

    def freeze(self):
        self.frozen = True
        self.requires_grad = False
        self.grad = None

    def unfreeze(self):
        self.frozen = False
        self.requires_grad = True


class Module:
    """Tree of named parameters and submodules.

    Assigning a Parameter or Module attribute registers it under the
    attribute name; parameter paths are dot-joined and unique per tree.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

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

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())


class ModuleList(Module):
    """Submodules registered as "0", "1", ... and iterated in that order."""

    def __init__(self, modules):
        super().__init__()
        for i, mod in enumerate(modules):
            setattr(self, str(i), mod)

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with rejection outside two standard deviations."""
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
    def __init__(self, dim: int, eps: float = 1e-8):
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        object.__setattr__(self, "eps", eps)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.eps)


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
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "kernel", kernel)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, self.stride)


def sinusoidal_positions(n: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table, shape (n, dim)."""
    pos = np.arange(n)[:, None]
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
        object.__setattr__(self, "n_heads", n_heads)
        object.__setattr__(self, "causal", causal)

    def __call__(self, x: Tensor) -> Tensor:
        t, d = x.data.shape
        h = self.n_heads
        dh = d // h

        def split_heads(m):
            return T.transpose(T.reshape(m, (t, h, dh)), (1, 0, 2))  # (h, t, dh)

        q = split_heads(self.wq(x))
        k = split_heads(self.wk(x))
        v = split_heads(self.wv(x))
        scores = T.matmul(q, T.transpose(k, (0, 2, 1))) * Tensor(1.0 / np.sqrt(dh))
        if self.causal:
            # large negative bias keeps every intermediate value finite
            bias = np.triu(np.full((t, t), -1e9), k=1)
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

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.ff(self.ln2(x))


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """Bias-corrected Adam over a module tree; frozen parameters are skipped.

    Update: m_hat = m / (1 - b1^t); v_hat = v / (1 - b2^t);
    p -= lr * m_hat / (sqrt(v_hat) + eps). A fresh state has m = v = 0, t = 0.
    """

    def __init__(self, module: Module, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.module = module
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
            if p.frozen:
                continue
            if p.grad is None:
                raise GraphError(f"missing grad on non-frozen parameter '{name}'")
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m += (1.0 - self.beta1) * (p.grad - m)
            v += (1.0 - self.beta2) * (p.grad * p.grad - v)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


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
        if arr.dtype == np.float64:
            code, dt = 0, "<f8"
        elif arr.dtype == np.float32:
            code, dt = 1, "<f4"
        else:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for tensor '{name}'")
        parts.append(_pack_str(name))
        parts.append(struct.pack("<BB", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payloads.append(arr.astype(dt).tobytes())
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


def save_checkpoint(module_or_arrays, path, metadata: dict | None = None) -> None:
    if isinstance(module_or_arrays, Module):
        arrays = module_or_arrays.state_arrays()
    else:
        arrays = module_or_arrays
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(arrays, metadata))


def read_checkpoint(path):
    """Return (arrays, metadata) without touching any module."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_checkpoint_bytes(raw)


def load_checkpoint(path, module: Module, strict: bool = True) -> dict:
    """Copy checkpoint tensors into matching module parameters.

    Strict mode requires an exact match between file tensors and tree
    parameters (names and shapes); permissive mode skips mismatches with a
    log line. Optimizer state is never restored.
    """
    arrays, metadata = read_checkpoint(path)
    params = dict(module.named_parameters())
    for name, arr in arrays.items():
        p = params.pop(name, None)
        if p is None:
            if strict:
                raise CheckpointError(f"checkpoint tensor '{name}' not in module tree")
            log.warning("skipping checkpoint tensor %r: not in module tree", name)
            continue
        if tuple(arr.shape) != tuple(p.data.shape):
            if strict:
                raise CheckpointError(
                    f"shape mismatch for parameter '{name}': "
                    f"checkpoint {tuple(arr.shape)} vs module {tuple(p.data.shape)}"
                )
            log.warning("skipping checkpoint tensor %r: shape mismatch", name)
            continue
        p.data = arr.astype(np.float64).copy()
    if params and strict:
        missing = ", ".join(sorted(params))
        raise CheckpointError(f"checkpoint missing parameters: {missing}")
    return metadata
