"""Parameter/module tree, neural layers, Adam, the training loop, and
checkpoint serialization.

A parameter's ``requires_grad`` is its only trainability flag: ``freeze``
clears it, so the parameter receives no gradients and the optimizer skips
it; ``slm.train_aligner`` freezes the encoder and LM of the model it trains
this way.
Every trainer is a generator of batches for ``fit``, the one training loop,
which takes a batch as one loss builder per item and runs one item's graph
at a time, so a step's peak memory is that of its largest item.

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
that builds it with ``seed=None``, which draws no weights (they stay zero
until the load sets them); a ``CtcModel`` or ``FusionModel`` record starts
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
    """A trainable leaf tensor; ``freeze`` clears ``requires_grad`` and any
    gradient."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def freeze(self):
        self.requires_grad = False
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


def trunc_normal(rng: np.random.Generator | None, shape) -> np.ndarray:
    """Normal(0, 0.02) with rejection outside two standard deviations; zeros,
    with no draw, when ``rng`` is None (a module a checkpoint load fills)."""
    if rng is None:
        return np.zeros(shape)
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
        return T.linear(x, self.weight, self.bias)


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


# dim -> the read-only sin/cos table of that width, grown by doubling
_position_tables: dict = {}


def sinusoidal_positions(n: int, dim: int, start: int = 0) -> np.ndarray:
    """Rows ``start .. start + n`` of the fixed sin/cos position table, shape
    (n, dim); a row's values do not depend on ``n`` or ``start``. The rows
    are a read-only view of one table per ``dim``, built once and rebuilt at
    twice the length when a call reads past its end; a view returned earlier
    keeps the table it was cut from."""
    table = _position_tables.get(dim)
    if table is None or len(table) < start + n:
        rows = max(start + n, 2 * len(table) if table is not None else 64)
        pos = np.arange(rows)[:, None]
        i = np.arange((dim + 1) // 2)[None, :]
        angles = pos / np.power(10000.0, 2.0 * i / dim)
        table = np.zeros((rows, dim))
        table[:, 0::2] = np.sin(angles)
        table[:, 1::2] = np.cos(angles[:, : dim // 2])
        table.flags.writeable = False
        _position_tables[dim] = table
    return table[start:start + n]


class MultiHeadSelfAttention(Module):
    """Projects the rows of its input to queries, keys and values, runs
    ``tensor.attention`` over ``n_heads`` heads on them and projects the
    result back: one call records its four ``Linear``s and one attention
    node."""

    def __init__(self, dim: int, n_heads: int, causal: bool, rng: np.random.Generator):
        super().__init__()
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.n_heads = n_heads
        self.causal = causal

    def __call__(self, x: Tensor, cache=None, rows=None) -> Tensor:
        """Self-attention over the rows of ``x``. Given a ``cache`` (a list,
        empty at first), the rows of ``x`` follow those of earlier calls with
        that cache and attend to their keys and values too; the cache then
        holds ``[k, v]`` of every row so far, each (rows, dim). Given
        ``rows``, indices into ``x``, only those rows query: keys and values
        still come from every row, and the result has one row per entry of
        ``rows``."""
        q = self.wq(x if rows is None else T.embedding_lookup(x, rows))
        k, v = self.wk(x), self.wv(x)
        if cache is not None:
            if cache:
                k = T.concat([cache[0], k])
                v = T.concat([cache[1], v])
            cache[:] = [k, v]
        t, t_all = x.data.shape[0], k.data.shape[0]
        positions = None
        if self.causal and rows is not None:
            positions = t_all - t + np.asarray(rows)
        elif self.causal and t > 1:
            positions = np.arange(t_all - t, t_all)
        return self.wo(T.attention(q, k, v, self.n_heads, positions))


class FeedForward(Module):
    """GELU MLP with one hidden layer 4 * ``dim`` wide."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(dim, 4 * dim, rng)
        self.fc2 = Linear(4 * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


class TransformerLayer(Module):
    """Pre-norm transformer block with residual connections.

    Called with ``rows``, indices into its input, the block returns its
    output at those rows only: keys and values (and ``cache``) still cover
    every row, while the queries, the residual and the FFN run at ``rows``.
    """

    def __init__(self, dim: int, n_heads: int, causal: bool, rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, causal, rng)
        self.ln2 = LayerNorm(dim)
        self.ff = FeedForward(dim, rng)

    def __call__(self, x: Tensor, cache=None, rows=None) -> Tensor:
        h = self.attn(self.ln1(x), cache, rows)
        x = (x if rows is None else T.embedding_lookup(x, rows)) + h
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


def fit(opt: Adam, batches) -> list:
    """One ``opt`` step per batch of ``batches``; returns [(opt.t, mean loss)].

    A batch holds one zero-argument callable per item, which builds that
    item's loss. Each loss is built and run backward from 1/n, n being the
    batch size, before the next is built, so one item's graph is alive at a
    time. The mean is the losses added left to right, times 1/n. These are
    the bytes of summing the losses into one graph, dividing by n and
    running one ``backward``: that seeds every item with the same 1/n and
    walks item 1's subgraph, then item 2's, and so on, since items share
    only leaves, so each parameter gradient gets the same additions in the
    same order. A generator resumes after each step, so it can read ``opt.t``
    and the stepped model, or stop. An empty batch is a GraphError.
    """
    history = []
    for losses in batches:
        n = len(losses)
        if n == 0:
            raise GraphError(f"step {opt.t + 1} got an empty batch: no loss to step on")
        opt.module.zero_grad()
        total = None
        for build in losses:
            loss = build()
            loss.backward(1.0 / n)
            total = loss.item() if total is None else total + loss.item()
        opt.step()
        history.append((opt.t, total * (1.0 / n)))
    return history


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
    metadata)`` builds the module without drawing weights, and the file's
    tensors must match its parameters exactly in names and shapes: a shape
    mismatch names the tensor and both shapes. Every error names ``path``.
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
