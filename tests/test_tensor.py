"""Autodiff core: op gradients vs finite differences, Adam, checkpoints."""

import json
import re
import tracemalloc
import zlib
from functools import partial

import numpy as np
import pytest

from conftest import (
    broadcast_add, check_grad_against_fd, finite_diff_grad, joint_train_step, log_softmax,
    masked_cross_entropy, matmul, max_rel_error, mul, reshape, softmax, trained_bytes, transpose,
    tsum,
)

from slmforge import asr, nn, pretrain, slm
from slmforge import tensor as T
from slmforge.asr import BLANK_SYMBOL, CtcModel, FinetuneConfig, Vocab, finetune_ctc
from slmforge.curate import SegmentRecord
from slmforge.errors import CheckpointError, ConfigError, GraphError, NonFiniteError
from slmforge.nn import (
    Adam,
    Linear,
    Module,
    MultiHeadSelfAttention,
    Parameter,
    TransformerLayer,
    checkpoint_bytes,
    fit,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from slmforge.pretrain import (
    PretrainConfig, SpeechEncoder, SpeechEncoderConfig, continued_pretrain, masked_prediction_loss,
)
from slmforge.slm import (
    CausalLM, CausalLMConfig, FusionModel, FusionTrainConfig, build_instruction_dataset,
    chat_vocab, extract_multilayer_features, train_aligner, train_lm,
)
from slmforge.tensor import Tensor, _accumulate, _make


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def test_square_gradient_analytic():
    x = Tensor(3.0, requires_grad=True)
    loss = mul(x, x)
    loss.backward()
    assert x.grad == pytest.approx(6.0)


def test_add_gradient():
    rng = np.random.default_rng(0)
    err = check_grad_against_fd(T.add, [rand(rng, 3, 4), rand(rng, 3, 4)])
    assert err < 1e-4


@pytest.mark.parametrize("a, b", [((3, 4), (4,)), ((3, 4), (4, 3)), ((1, 4), (3, 4)),
                                  ((), (2,))],
                         ids=["bias-row", "transposed", "one-row", "scalar"])
def test_add_of_two_shapes_is_a_graph_error_naming_both(a, b):
    with pytest.raises(GraphError, match=re.escape(f"add shape mismatch: {a} + {b}")):
        T.add(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


def test_mul_gradient():
    rng = np.random.default_rng(1)
    err = check_grad_against_fd(mul, [rand(rng, 3, 4), rand(rng, 3, 4)])
    assert err < 1e-4


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    a = rand(rng, 2, 3)
    b = rand(rng, 3, 2)
    got = matmul(Tensor(a), Tensor(b)).data
    want = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(GraphError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def _linear_bytes(op, x, w, b, incoming):
    """Output and input gradients of ``op``, its backward given
    ``incoming`` as it is (an accumulated gradient holds no -0.0), and then
    the backward of the node before it, if any; as bytes."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    out = op(*leaves)
    out._backward_fn(incoming)
    for node in out._parents:
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linear_gives_the_bytes_of_add_over_matmul(seed):
    """One node with the bias added in place: the output and every gradient
    are the two-node path's bytes, also from a gradient row of -0.0, which
    reached that path's matmul as 0.0 + grad."""
    rng = np.random.default_rng(seed)
    x, w, b = rand(rng, 5, 4), rand(rng, 4, 3), rand(rng, 3)
    incoming = rand(rng, 5, 3)
    incoming[1] = -0.0
    incoming[3, 0] = -0.0
    two_nodes = lambda x, w, b: broadcast_add(matmul(x, w), b)  # noqa: E731
    assert _linear_bytes(T.linear, x, w, b, incoming) == _linear_bytes(
        two_nodes, x, w, b, incoming)


@pytest.mark.parametrize("x", [(4,), (2, 3, 4), (3, 5)], ids=["1-D", "3-D", "narrow"])
def test_linear_of_other_than_rows_of_its_input_width_is_a_graph_error(x):
    with pytest.raises(GraphError, match=re.escape(
            f"matmul shape mismatch in linear: {x} @ (4, 2)")):
        T.linear(Tensor(np.zeros(x)), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


def test_concat_joins_rows():
    a = Tensor(np.zeros((3, 4)))
    b = Tensor(np.ones((2, 4)))
    assert T.concat([a, b]).data.tobytes() == np.concatenate([a.data, b.data]).tobytes()


def test_concat_reads_a_1d_tensor_as_one_row_and_hands_its_gradient_back_1d():
    rng = np.random.default_rng(8)
    a, row = Tensor(rand(rng, 3, 4), requires_grad=True), Tensor(rand(rng, 4), requires_grad=True)
    out = T.concat([a, row])
    assert out.data.tobytes() == np.concatenate([a.data, row.data[None]]).tobytes()
    grad = rand(rng, 4, 4)
    tsum(mul(out, Tensor(grad))).backward()
    assert a.grad.tobytes() == grad[:3].tobytes()
    assert row.grad.shape == (4,) and row.grad.tobytes() == grad[3].tobytes()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    out = softmax(Tensor(rand(rng, 6, 9))).data
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-9


def test_log_softmax_is_log_of_softmax():
    rng = np.random.default_rng(4)
    x = rand(rng, 5, 7)
    assert np.max(np.abs(T.log_softmax(x) - np.log(softmax(Tensor(x)).data))) < 1e-9


def test_layer_norm_statistics_before_affine():
    rng = np.random.default_rng(5)
    x = Tensor(rand(rng, 8, 16))
    out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6


def _reference_layer_norm(a, gain, bias):
    """``tensor.layer_norm`` as it was written with numpy's ``mean`` and
    ``var``, which centre each row twice."""
    mean = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-8)
    xhat = (a.data - mean) * inv
    out = gain.data * xhat + bias.data

    def backward(grad):
        lead = tuple(range(grad.ndim - 1))
        _accumulate(gain, (grad * xhat).sum(axis=lead))
        _accumulate(bias, grad.sum(axis=lead))
        gx = grad * gain.data
        gmean = gx.mean(axis=-1, keepdims=True)
        gproj = (gx * xhat).mean(axis=-1, keepdims=True)
        _accumulate(a, inv * (gx - gmean - xhat * gproj))

    return _make(out, (a, gain, bias), backward, "layer_norm")


@pytest.mark.parametrize("shape, offset, constant", [
    ((1, 32), 0.0, False),
    ((7, 64), 0.0, False),
    ((600, 32), 0.0, False),
    ((9, 1), 0.0, False),
    ((6, 24), 0.0, True),
    ((8, 48), 1e8, False),
], ids=["one-token", "7x64", "600x32", "d=1", "constant-rows", "offset-1e8"])
def test_layer_norm_is_byte_equal_to_the_mean_and_var_reference(shape, offset, constant):
    results = []
    for op in (T.layer_norm, _reference_layer_norm):
        rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
        x = rand(rng, *shape)
        if constant:
            x = np.repeat(x[..., :1], shape[-1], axis=-1)
        args = [Tensor(x + offset, requires_grad=True),
                Tensor(rand(rng, shape[-1]), requires_grad=True),
                Tensor(rand(rng, shape[-1]), requires_grad=True)]
        out = op(*args)
        tsum(mul(out, Tensor(rng.standard_normal(shape)))).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in args])
    assert results[0] == results[1]


@pytest.mark.parametrize("x, gain", [((2, 5, 16), (16,)), ((16,), (16,)), ((5, 16), (8,))],
                         ids=["3-D", "1-D", "narrow-gain"])
def test_layer_norm_of_other_than_rows_and_dim_vectors_is_a_graph_error(x, gain):
    with pytest.raises(GraphError, match=re.escape(
            f"layer_norm takes (rows, dim) input with (dim,) gain and bias, got {x}, {gain}")):
        T.layer_norm(Tensor(np.zeros(x)), Tensor(np.ones(gain)), Tensor(np.zeros(gain)))


def _reference_positions(n, dim, start=0):
    """``nn.sinusoidal_positions`` as it was written, computing its rows per call."""
    pos = np.arange(start, start + n)[:, None]
    half = (dim + 1) // 2
    i = np.arange(half)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((n, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    return table


@pytest.fixture
def fresh_position_tables(monkeypatch):
    """An empty table cache, so each test sees the tables grow from nothing."""
    monkeypatch.setattr(nn, "_position_tables", {})
    return nn._position_tables


@pytest.mark.parametrize("dim", [1, 2, 7, 32, 64, 128])
def test_position_rows_are_byte_equal_to_the_per_call_formula(fresh_position_tables, dim):
    # small calls first, then calls that grow the table past them
    for n, start in [(0, 0), (1, 0), (5, 0), (1, 31), (3, 62), (0, 300), (40, 25),
                     (129, 0), (1, 500), (600, 7), (2, 1300)]:
        got = nn.sinusoidal_positions(n, dim, start)
        assert got.shape == (n, dim)
        assert got.tobytes() == _reference_positions(n, dim, start).tobytes(), (n, start)
    assert len(fresh_position_tables[dim]) >= 1302


def test_position_rows_are_read_only(fresh_position_tables):
    rows = nn.sinusoidal_positions(4, 8, 2)
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0


def test_position_rows_keep_their_bytes_when_the_table_grows(fresh_position_tables):
    rows = nn.sinusoidal_positions(3, 16, 5)
    before, table = rows.tobytes(), fresh_position_tables[16]
    nn.sinusoidal_positions(10 * len(table), 16)
    assert fresh_position_tables[16] is not table
    assert rows.tobytes() == before == _reference_positions(3, 16, 5).tobytes()


def test_cross_entropy_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((5, 4)))
    loss = T.cross_entropy(logits, np.array([0, 1, 2, 3, 0]))
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_bit_identical_to_the_all_ones_masked_reference(seed):
    """What the next-token losses pass, every row scored, gives the loss and
    gradient bytes of the masked cross-entropy with an all-ones mask."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    logits_data = 3.0 * rng.standard_normal((n, 7))
    targets = rng.integers(0, 7, size=n)

    def run(loss_fn):
        logits = Tensor(logits_data.copy(), requires_grad=True)
        loss = loss_fn(logits)
        loss.backward(1 / 3)
        return loss.data.tobytes(), logits.grad.tobytes()

    assert run(lambda lg: T.cross_entropy(lg, targets)) == run(
        lambda lg: masked_cross_entropy(lg, targets, np.ones(n)))


@pytest.mark.parametrize("logits, targets, cause", [
    (np.zeros((0, 3)), [], "at least one row"),
    (np.zeros((2, 3)), [0, 3], "out of range for 3 classes"),
    (np.zeros((2, 3)), [-1, 0], "out of range for 3 classes"),
    (np.zeros((2, 3)), [0], r"targets shape \(1,\) does not match logits rows 2"),
])
def test_cross_entropy_rejects_no_rows_and_bad_targets(logits, targets, cause):
    with pytest.raises(GraphError, match=cause):
        T.cross_entropy(Tensor(logits), targets)


def test_non_finite_forward_names_op():
    big = Tensor(np.array([1e308]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="'add'"):
        _ = big + big


@pytest.mark.parametrize("scale", [1.0, 0.25, 1 / 3, -2.0])
def test_backward_from_a_scale_gives_scale_times_the_unit_gradients(scale):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    tsum(T.gelu(x)).backward()
    unit = x.grad
    x.grad = None
    tsum(T.gelu(x)).backward(scale)
    assert x.grad.tobytes() == (unit * scale).tobytes()


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        (x + x).backward()


@pytest.mark.parametrize("op_name", [
    "add", "mul", "matmul", "linear", "transpose", "reshape", "concat",
    "softmax", "log_softmax", "relu", "gelu", "layer_norm",
    "embedding_lookup", "cross_entropy",
])
def test_op_gradients_match_finite_differences(op_name):
    """Every layer op: analytic vs central differences, seeded trials."""
    trials = 10
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()) + trial)
        if op_name == "add":
            worst = max(worst, check_grad_against_fd(
                T.add, [rand(rng, 3, 4), rand(rng, 3, 4)], seed=trial))
        elif op_name == "mul":
            worst = max(worst, check_grad_against_fd(
                mul, [rand(rng, 3, 4), rand(rng, 4)], seed=trial))
        elif op_name == "matmul":
            worst = max(worst, check_grad_against_fd(
                matmul, [rand(rng, 3, 4), rand(rng, 4, 2)], seed=trial))
        elif op_name == "transpose":
            worst = max(worst, check_grad_against_fd(
                lambda a: transpose(a, (1, 0)), [rand(rng, 3, 4)], seed=trial))
        elif op_name == "reshape":
            worst = max(worst, check_grad_against_fd(
                lambda a: reshape(a, (2, 6)), [rand(rng, 3, 4)], seed=trial))
        elif op_name == "linear":
            worst = max(worst, check_grad_against_fd(
                T.linear, [rand(rng, 3, 4), rand(rng, 4, 2), rand(rng, 2)], seed=trial))
        elif op_name == "concat":
            worst = max(worst, check_grad_against_fd(
                lambda a, b: T.concat([a, b]),
                [rand(rng, 2, 3), rand(rng, 3, 3)], seed=trial))
        elif op_name == "softmax":
            worst = max(worst, check_grad_against_fd(
                softmax, [rand(rng, 4, 5)], seed=trial))
        elif op_name == "log_softmax":
            worst = max(worst, check_grad_against_fd(
                log_softmax, [rand(rng, 4, 5)], seed=trial))
        elif op_name == "relu":
            x = rand(rng, 4, 5)
            x[np.abs(x) < 1e-3] = 0.5  # keep FD away from the kink
            worst = max(worst, check_grad_against_fd(T.relu, [x], seed=trial))
        elif op_name == "gelu":
            worst = max(worst, check_grad_against_fd(T.gelu, [rand(rng, 4, 5)],
                                                     seed=trial))
        elif op_name == "layer_norm":
            worst = max(worst, check_grad_against_fd(
                T.layer_norm,
                [rand(rng, 3, 6), rand(rng, 6), rand(rng, 6)], seed=trial))
        elif op_name == "embedding_lookup":
            ids = rng.integers(0, 5, size=7)
            worst = max(worst, check_grad_against_fd(
                lambda t: T.embedding_lookup(t, ids), [rand(rng, 5, 4)], seed=trial))
        elif op_name == "cross_entropy":
            targets = rng.integers(0, 5, size=6)
            worst = max(worst, check_grad_against_fd(
                lambda lg: T.cross_entropy(lg, targets),
                [rand(rng, 6, 5)], seed=trial))
    assert worst < 1e-4, f"{op_name}: worst relative error {worst}"


def test_composite_graph_gradient_matches_fd():
    rng = np.random.default_rng(11)
    x_data = rand(rng, 4, 3)
    w_data = rand(rng, 3, 3)

    def network(x_arr):
        x = Tensor(x_arr)
        w = Tensor(w_data)
        h = T.gelu(matmul(x, w))
        s = softmax(h)
        return float(tsum(mul(s, s)).data)

    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data)
    h = T.gelu(matmul(x, w))
    s = softmax(h)
    loss = tsum(mul(s, s))
    loss.backward()
    numeric = finite_diff_grad(network, x_data.copy())
    assert max_rel_error(x.grad, numeric) < 1e-4


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_closed_form():
    # first Adam step: delta = -lr * g / (|g| + eps); param 1.0, g 0.5, lr 0.1
    mod = Module()
    mod.p = Parameter(np.array([1.0]))
    mod.p.grad = np.array([0.5])
    opt = Adam(mod, lr=0.1)
    opt.step()
    expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    assert mod.p.data[0] == pytest.approx(expected, abs=1e-12)
    assert mod.p.data[0] == pytest.approx(0.9, abs=1e-7)
    assert opt.t == 1


def test_adam_zero_grad_leaves_parameter():
    mod = Module()
    mod.p = Parameter(np.array([2.0]))
    mod.p.grad = np.array([0.0])
    opt = Adam(mod, lr=0.1)
    opt.step()
    assert mod.p.data[0] == 2.0


def test_adam_skips_frozen_and_errors_on_missing_grad():
    mod = Module()
    mod.a = Parameter(np.array([1.0]))
    mod.b = Parameter(np.array([1.0]))
    mod.b.freeze()
    opt = Adam(mod, lr=0.1)
    with pytest.raises(GraphError, match="'a'"):
        opt.step()
    mod.a.grad = np.array([1.0])
    opt.step()
    assert mod.a.data[0] != 1.0
    assert mod.b.data[0] == 1.0


def test_adam_skips_parameter_without_requires_grad():
    mod = Module()
    mod.a = Parameter(np.array([1.0]))
    mod.b = Parameter(np.array([1.0]))
    mod.b.requires_grad = False
    for p in mod.parameters():
        p.grad = np.array([1.0])
    Adam(mod, lr=0.1).step()
    assert mod.a.data[0] != 1.0
    assert mod.b.data[0] == 1.0


def test_freeze_clears_requires_grad_and_grad():
    net = _Net()
    for p in net.parameters():
        p.grad = np.ones_like(p.data)
    net.fc1.freeze()
    assert [p.requires_grad for p in net.parameters()] == [False, False, True, True]
    assert [p.grad is None for p in net.parameters()] == [True, True, False, False]
    assert net.freeze() is net
    assert not any(p.requires_grad or p.grad is not None for p in net.parameters())


def test_frozen_parameter_gets_no_grad():
    w = Parameter(np.array([[2.0]]))
    w.freeze()
    x = Tensor(np.array([[3.0]]), requires_grad=True)
    loss = tsum(matmul(x, w))
    loss.backward()
    assert w.grad is None
    assert x.grad is not None


# ---------------------------------------------------------------------------
# Checkpoints


class _Net(Module):
    kind = "test"

    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng)
        self.fc2 = Linear(8, 2, rng)

    def record(self):
        return {}

    @classmethod
    def from_record(cls, path, meta):
        return cls(seed=99)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = _Net(seed=3)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path, {"note": "hello"})
    assert read_checkpoint(path)[1] == {"kind": "test", "note": "hello"}
    fresh = load_checkpoint(path, _Net)
    for (_, a), (_, b) in zip(net.named_parameters(), fresh.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_checkpoint_strict_shape_mismatch_names_parameter(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(_Net(), path, {})

    class Other(_Net):
        def __init__(self, seed=0):
            Module.__init__(self)
            rng = np.random.default_rng(seed)
            self.fc1 = Linear(4, 9, rng)
            self.fc2 = Linear(9, 2, rng)

    with pytest.raises(CheckpointError, match="fc1.weight") as info:
        load_checkpoint(path, Other)
    assert str(path) in str(info.value)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_truncated_checkpoint_error_names_path(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(_Net(), path, {})
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError, match="truncated") as info:
        load_checkpoint(path, _Net)
    assert str(path) in str(info.value)


def _encoder():
    return SpeechEncoder(SpeechEncoderConfig(input_dim=4, dim=8, n_layers=1), 3, seed=1)


def _asr():
    return CtcModel(_encoder(), Vocab.from_texts(["ab"], (BLANK_SYMBOL,)), seed=2)


def _fusion():
    tok = chat_vocab("ab")
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1), seed=3)
    return FusionModel(_encoder(), lm, tok, aligner_hidden=4, seed=4)


# kind -> (model class, a small model of it, the metadata entry holding its
# model config as JSON, the config entry its CLI command wrote before the
# seed left the config dataclasses)
MODELS = {
    "encoder": (SpeechEncoder, _encoder, "encoder_cfg", {
        "PretrainConfig": {"batch_seconds": 13.0, "epochs": 1000, "k": 16, "lr": 0.01,
                           "mask": {"mask_prob": 0.065, "seed": 0, "span_len": 10},
                           "max_steps": 6, "n_mfcc": 13, "refresh_schedule": [1],
                           "target_layer": 1},
        "SpeechEncoderConfig": {"conv_activation": "gelu", "conv_kernel": 2,
                                "conv_stride": 2, "dim": 8, "ff_mult": 4, "input_dim": 4,
                                "n_heads": 2, "n_layers": 1},
        "seed": 0}),
    "asr": (CtcModel, _asr, "encoder_cfg", {
        "FinetuneConfig": {"batch_size": 4, "eval_every": 6, "lr": 0.01, "seed": 0,
                           "steps": 6},
        "seed": 0}),
    "fusion": (FusionModel, _fusion, "lm_cfg", {
        "CausalLMConfig": {"dim": 8, "ff_mult": 4, "n_heads": 2, "n_layers": 1,
                           "vocab_size": 6},
        "FusionTrainConfig": {"aligner_hidden": None, "batch_size": 4, "lm_lr": 0.01,
                              "lm_steps": 30, "lr": 0.01, "seed": 0, "steps": 4},
        "seed": 0}),
}


def _save(kind, path, provenance=None):
    model = MODELS[kind][1]()
    save_checkpoint(model, path, provenance or {})
    return model


def _assert_same_model(a, b):
    assert a.record() == b.record()
    names = [name for name, _ in a.named_parameters()]
    assert names and names == [name for name, _ in b.named_parameters()]
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_round_trip_rebuilds_the_record_and_the_exact_weights(tmp_path, kind):
    cls = MODELS[kind][0]
    path = tmp_path / f"{kind}.ckpt"
    model = _save(kind, path, {"note": "hi"})
    assert cls.kind == kind
    assert read_checkpoint(path)[1] == {"kind": kind, **model.record(), "note": "hi"}
    _assert_same_model(model, load_checkpoint(path, cls))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_loaders_draw_no_initial_weights(tmp_path, monkeypatch, kind):
    # the load sets every parameter, so initial draws would be thrown away
    cls = MODELS[kind][0]
    path = tmp_path / f"{kind}.ckpt"
    model = _save(kind, path)

    def no_generator(*args, **kwargs):
        raise AssertionError("a checkpoint load made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    _assert_same_model(model, load_checkpoint(path, cls))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_a_checkpoint_with_a_seed_in_its_config_dataclasses_still_loads(tmp_path, kind):
    # the `config` entry is provenance that no loader reads
    cls, _, _, config = MODELS[kind]
    path = tmp_path / f"{kind}.ckpt"
    model = _save(kind, path, {"config": json.dumps(config, sort_keys=True),
                               "config_hash": "0123456789abcdef"})
    _assert_same_model(model, load_checkpoint(path, cls))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_loaders_read_once_and_check_kind(tmp_path, monkeypatch, kind):
    cls = MODELS[kind][0]
    path = tmp_path / f"{kind}.ckpt"
    _save(kind, path)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(nn, "open", counting_open, raising=False)
    load_checkpoint(path, cls)
    assert opened == [path]

    other = "asr" if kind == "encoder" else "encoder"
    wrong = tmp_path / "wrong.ckpt"
    _save(other, wrong)
    with pytest.raises(ConfigError, match=f"'{other}' is not '{kind}'") as info:
        load_checkpoint(wrong, cls)
    assert str(wrong) in str(info.value)


def _resave(path, edit):
    """Rewrite the checkpoint at ``path`` after ``edit(arrays, metadata)``."""
    arrays, meta = read_checkpoint(path)
    edit(arrays, meta)
    path.write_bytes(checkpoint_bytes(arrays, meta))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_loaders_reject_a_missing_metadata_key_naming_it(tmp_path, kind):
    cls = MODELS[kind][0]
    reference = tmp_path / "reference.ckpt"
    _save(kind, reference)
    keys = [k for k in read_checkpoint(reference)[1] if k != "kind"]
    assert MODELS[kind][2] in keys
    for key in keys:
        path = tmp_path / f"no-{key}.ckpt"
        _save(kind, path)
        _resave(path, lambda arrays, meta: meta.pop(key))
        with pytest.raises(ConfigError, match=f"missing key '{key}'") as info:
            load_checkpoint(path, cls)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("blob", ['{"foo": 1}', "[1, 2]", "not json"])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_model_loaders_reject_a_bad_config_naming_its_key(tmp_path, kind, blob):
    cls, _, entry, _ = MODELS[kind]
    path = tmp_path / f"{kind}.ckpt"
    _save(kind, path)
    _resave(path, lambda arrays, meta: meta.update({entry: blob}))
    with pytest.raises(ConfigError, match=f"bad value for '{entry}'") as info:
        load_checkpoint(path, cls)
    assert str(path) in str(info.value)


# entry -> (its config dataclass, the fields it held before the encoder front
# end became a Linear over frame pairs)
OLD_FIELDS = {
    "encoder_cfg": ("SpeechEncoderConfig", {"conv_activation": "gelu", "conv_kernel": 2,
                                            "conv_stride": 2, "ff_mult": 4}),
    "lm_cfg": ("CausalLMConfig", {"ff_mult": 4}),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_a_model_config_with_removed_fields_names_file_entry_and_keys(tmp_path, kind):
    cls, _, entry, _ = MODELS[kind]
    owner, old = OLD_FIELDS[entry]
    path = tmp_path / f"{kind}.ckpt"
    _save(kind, path)
    _resave(path, lambda arrays, meta: meta.update(
        {entry: json.dumps({**json.loads(meta[entry]), **old})}))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path, cls)
    keys = ", ".join(map(repr, sorted(old)))
    assert str(info.value) == f"{path}: bad value for {entry!r}: unknown key(s) {keys} for {owner}"


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_a_missing_or_misshapen_tensor_names_the_file(tmp_path, kind):
    cls = MODELS[kind][0]
    path = tmp_path / f"{kind}.ckpt"
    _save(kind, path)
    name = list(read_checkpoint(path)[0])[-1]
    _resave(path, lambda arrays, meta: arrays.pop(name))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path, cls)
    assert str(info.value) == f"{path}: checkpoint missing parameters: {name}"

    _save(kind, path)
    _resave(path, lambda arrays, meta: arrays.update({name: np.zeros(7)}))
    with pytest.raises(CheckpointError, match=f"shape mismatch for parameter '{name}'") as info:
        load_checkpoint(path, cls)
    assert str(path) in str(info.value)


def test_float32_tensors_are_not_checkpointed_and_code_1_is_unknown():
    with pytest.raises(CheckpointError, match="unsupported dtype float32"):
        nn.checkpoint_bytes({"w": np.ones(2, dtype=np.float32)})
    raw = nn.checkpoint_bytes({"w": np.ones(2)})
    code_at = raw.index(b"w") + 1  # the dtype byte follows the tensor's name
    raw = raw[:code_at] + b"\x01" + raw[code_at + 1 :]
    with pytest.raises(CheckpointError, match="unknown dtype code 1 for tensor 'w'"):
        nn.parse_checkpoint_bytes(raw)


def _losses(net, n):
    """``n`` loss builders over ``net``, one per batch item."""
    rng = np.random.default_rng(4)
    xs = [Tensor(rng.standard_normal((3, 4))) for _ in range(n)]

    def build(x):
        y = net.fc2(T.relu(net.fc1(x)))
        return tsum(mul(y, y))

    return [partial(build, x) for x in xs]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_fit_matches_inline_step(n):
    """Each item's loss built and run backward in turn gives the bytes of
    the joint step, which sums the items into one graph: parameters, Adam
    moments and the mean loss in the history."""
    inline, stepped = _Net(seed=2), _Net(seed=2)
    opt_inline, opt_stepped = Adam(inline, lr=1e-2), Adam(stepped, lr=1e-2)
    for _ in range(3):
        want = joint_train_step(opt_inline, [build() for build in _losses(inline, n)])
        [(_, got)] = fit(opt_stepped, [_losses(stepped, n)])
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert trained_bytes(opt_stepped) == trained_bytes(opt_inline)


def _divided_train_step(opt, losses) -> float:
    """One step of ``nn.fit`` as it was before ``backward`` took a scale:
    each item's loss divided by the batch size n in the graph, ``loss / n``,
    and run backward from 1; returns the mean loss."""
    n = len(losses)
    opt.module.zero_grad()
    total = None
    for build in losses:
        loss = build()
        mul(loss, Tensor(1.0 / n)).backward()
        total = loss.item() if total is None else total + loss.item()
    opt.step()
    return total * (1.0 / n)


def _masked_batch(encoder, n, step):
    """``n`` masked-prediction loss builders over seeded utterances of
    different lengths, as ``continued_pretrain`` batches them."""
    rng = np.random.default_rng(100 * n + step)
    losses = []
    for t in rng.integers(10, 60, size=n):
        feats = rng.standard_normal((int(t), 8))
        t_out = encoder.output_len(int(t))
        mask = rng.random(t_out) < 0.4
        mask[rng.integers(t_out)] = True
        labels = rng.integers(0, 5, size=t_out)
        losses.append(partial(masked_prediction_loss, encoder, feats, labels, mask))
    return losses


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fit_from_a_backward_scale_gives_the_divided_loss_bytes(n):
    """Each loss run backward from 1/n gives the bytes of ``loss / n`` run
    backward from 1: parameters, Adam moments and the mean loss in the
    history, over three steps of an encoder's masked-prediction batches."""
    cfg = SpeechEncoderConfig(input_dim=8, dim=16, n_layers=2, n_heads=2)
    scaled, divided = SpeechEncoder(cfg, 5, seed=n), SpeechEncoder(cfg, 5, seed=n)
    opt_scaled, opt_divided = Adam(scaled, lr=1e-2), Adam(divided, lr=1e-2)
    for step in range(3):
        [(_, got)] = fit(opt_scaled, [_masked_batch(scaled, n, step)])
        want = _divided_train_step(opt_divided, _masked_batch(divided, n, step))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert trained_bytes(opt_scaled) == trained_bytes(opt_divided)


_ENC = SpeechEncoderConfig(input_dim=8, dim=8, n_layers=1, n_heads=2)


def _pretrain(n, rng):
    dataset = [rng.standard_normal((40, 8)) for _ in range(2 * n)]
    # 40 frames are 0.4 s, so a batch closes at its n-th utterance
    cfg = PretrainConfig(epochs=1, lr=1e-2, batch_seconds=0.4 * n - 0.2, k=3, n_mfcc=4,
                         mask_prob=0.3, span_len=3)
    continued_pretrain(dataset, cfg, SpeechEncoder(_ENC, 3, seed=1), seed=1)


def _finetune_ctc(n, rng):
    texts = ["ab", "ba", "aab", "bb", "bab", "a", "abb", "b", "baa", "aa"][:2 * n]
    examples = [(rng.standard_normal((40, 8)), text) for text in texts]
    finetune_ctc(SpeechEncoder(_ENC, 3, seed=1), examples,
                 Vocab.from_texts(texts, (BLANK_SYMBOL,)),
                 FinetuneConfig(steps=2, lr=1e-2, batch_size=n), seed=1)


def _train_lm(n, rng):
    lm = CausalLM(CausalLMConfig(vocab_size=6, dim=8, n_layers=1, n_heads=2), seed=1)
    train_lm(lm, [rng.integers(0, 6, size=7) for _ in range(3)], steps=2, lr=1e-2, seed=1)


def _train_aligner(n, rng):
    records = [SegmentRecord(id=f"r{i}", source_path="x.wav", offset_s=0.0, duration_s=1.0,
                             speaker=None, quality_score=4.0, sample_rate=16000,
                             transcript="ab"[i % 2] * (i + 1)) for i in range(2 * n)]
    examples, tok, _ = build_instruction_dataset(records, ["transcribe"])
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1, n_heads=2), seed=1)
    model = FusionModel(SpeechEncoder(_ENC, 3, seed=1), lm, tok, aligner_hidden=8, seed=2)
    pairs = [(extract_multilayer_features(model.encoder, rng.standard_normal((20, 8))), ex)
             for ex in examples]
    train_aligner(model, pairs, FusionTrainConfig(steps=2, lr=1e-2, batch_size=n), seed=1)


def _trained_bytes(monkeypatch, trainer, n, joint):
    """Batch sizes, losses, parameters and Adam moments, as bytes, after
    ``trainer`` runs its batches through a reference loop in place of its
    ``fit``: one ``nn.fit`` step per batch or, with ``joint``, the joint
    reference step."""
    module, run = {"continued_pretrain": (pretrain, _pretrain),
                   "finetune_ctc": (asr, _finetune_ctc),
                   "train_lm": (slm, _train_lm),
                   "train_aligner": (slm, _train_aligner)}[trainer]
    steps = []

    def reference_fit(opt, batches):
        history = []
        for losses in batches:
            if joint:
                loss = joint_train_step(opt, [build() for build in losses])
            else:
                [(_, loss)] = fit(opt, [losses])
            steps.append((opt, len(losses), np.float64(loss).tobytes()))
            history.append((opt.t, loss))
        return history

    monkeypatch.setattr(module, "fit", reference_fit)
    run(n, np.random.default_rng(n))
    opt = steps[-1][0]
    return ([size for _, size, _ in steps], [loss for *_, loss in steps], *trained_bytes(opt))


@pytest.mark.parametrize("trainer, n", [
    *[(trainer, n) for trainer in ("continued_pretrain", "finetune_ctc", "train_aligner")
      for n in (1, 3, 5)],
    ("train_lm", 1),
])
def test_every_trainer_steps_to_the_bytes_of_the_joint_step(monkeypatch, trainer, n):
    got = _trained_bytes(monkeypatch, trainer, n, joint=False)
    assert set(got[0]) == {n}
    assert got == _trained_bytes(monkeypatch, trainer, n, joint=True)


def test_a_step_on_an_empty_batch_names_the_cause():
    net = _Net()
    with pytest.raises(GraphError, match="empty batch"):
        fit(Adam(net, lr=1e-2), [[]])
    assert all(p.grad is None for p in net.parameters())
    vocab = Vocab.from_texts(["ab"], (BLANK_SYMBOL,))
    with pytest.raises(GraphError, match="empty batch"):
        finetune_ctc(SpeechEncoder(_ENC, 3, seed=1), [], vocab)
    _, tok, _ = build_instruction_dataset([], ["transcribe"])
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1, n_heads=2), seed=1)
    with pytest.raises(GraphError, match="empty batch"):
        train_aligner(FusionModel(SpeechEncoder(_ENC, 3, seed=1), lm, tok, 8, seed=2), [])


def _encoder_item(encoder, rng, frames):
    """A loss builder for one ``frames``-long masked-prediction item."""
    features = rng.standard_normal((frames, encoder.cfg.input_dim))
    t_out = encoder.output_len(frames)
    labels = rng.integers(0, 16, size=t_out)
    mask = np.zeros(t_out, dtype=bool)
    mask[::4] = True
    return partial(masked_prediction_loss, encoder, features, labels, mask)


def _step_peak_bytes(n, frames=1200):
    """tracemalloc peak of one ``fit`` step on ``n`` items of ``frames``
    input frames each, after one warm-up step on the same items."""
    rng = np.random.default_rng(0)
    # the bench's encoder shape: 24 mel bins, width 32, 2 layers, 16 classes
    encoder = SpeechEncoder(SpeechEncoderConfig(input_dim=24, dim=32, n_layers=2, n_heads=2),
                            16, seed=0)
    opt = Adam(encoder, lr=1e-3)
    items = [_encoder_item(encoder, rng, frames) for _ in range(n)]
    fit(opt, [items])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit(opt, [items])
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_batch_of_four_items_peaks_at_about_the_memory_of_one():
    """One item's graph is alive at a time, so the step's peak does not grow
    with the batch; the joint step held every item's graph at once (about
    3.5 times the one-item peak here)."""
    one, four = _step_peak_bytes(1), _step_peak_bytes(4)
    assert four <= 1.25 * one, f"4 items peak at {four / 1e6:.1f} MB, 1 item at {one / 1e6:.1f} MB"


def test_load_never_restores_optimizer_state(tmp_path):
    net = _Net(seed=5)
    opt = Adam(net, lr=1e-3)
    for p in net.parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path, {})

    fresh_opt = Adam(load_checkpoint(path, _Net), lr=1e-3)
    assert fresh_opt.t == 0
    assert fresh_opt._m == {} and fresh_opt._v == {}


def test_seeded_init_reproducible_training_trajectory():
    def run():
        net = _Net(seed=42)
        opt = Adam(net, lr=1e-2)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((6, 4))
        losses = []
        for _ in range(5):
            out = net.fc2(T.relu(net.fc1(Tensor(xs))))
            loss = mul(tsum(mul(out, out)), Tensor(1.0 / out.data.size))
            net.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        return losses

    assert run() == run()


def test_transformer_layer_gradients_flow():
    rng = np.random.default_rng(13)
    layer = TransformerLayer(8, 2, causal=True, rng=rng)
    x = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    loss = tsum(layer(x))
    loss.backward()
    assert x.grad is not None and np.all(np.isfinite(x.grad))
    for _, p in layer.named_parameters():
        assert p.grad is not None


# ---------------------------------------------------------------------------
# The attention op against the graph path it replaced: heads split and merged
# by graph ops around a six-node composition


def _reference_attention(q, k, v, bias=None):
    """The composition the one-node attention replaced, over (heads, rows,
    head dim) tensors: matmul, transpose, scale, bias add, softmax and
    matmul, one graph node each."""
    scores = mul(matmul(q, transpose(k, (0, 2, 1))), Tensor(1.0 / np.sqrt(q.data.shape[-1])))
    if bias is not None:
        scores = broadcast_add(scores, Tensor(bias))
    return matmul(softmax(scores), v)


def _split_heads(m, n_heads):
    """(rows, dim) -> (heads, rows, head dim) by graph ops."""
    rows, d = m.data.shape
    return transpose(reshape(m, (rows, n_heads, d // n_heads)), (1, 0, 2))


def _merge_heads(m):
    """(heads, rows, head dim) -> (rows, dim) by graph ops."""
    h, rows, dh = m.data.shape
    return reshape(transpose(m, (1, 0, 2)), (rows, h * dh))


def _reference_multi_head(q, k, v, n_heads, bias=None):
    """``T.attention`` as graph ops around the six-node composition."""
    return _merge_heads(_reference_attention(
        *(_split_heads(m, n_heads) for m in (q, k, v)), bias))


def _join_rows(a, b):
    """(heads, rows, head dim) tensors joined along their rows by graph ops."""
    return transpose(T.concat([transpose(a, (1, 0, 2)), transpose(b, (1, 0, 2))]), (1, 0, 2))


def _reference_self_attention(self, x, cache=None, rows=None):
    """``MultiHeadSelfAttention.__call__`` before attention took rows: heads
    split and merged by graph ops, a cache that holds ``[k, v]`` each
    (heads, rows, head dim) and a causal -1e9 bias. Given ``rows``, every
    row queries and the output rows at ``rows`` are picked afterwards."""
    q, k, v = (_split_heads(lin(x), self.n_heads) for lin in (self.wq, self.wk, self.wv))
    if cache is not None:
        if cache:
            k, v = _join_rows(cache[0], k), _join_rows(cache[1], v)
        cache[:] = [k, v]
    t, t_all = x.data.shape[0], k.data.shape[1]
    bias = None
    if self.causal and t > 1:
        bias = np.triu(np.full((t, t_all), -1e9), k=t_all - t + 1)
    out = self.wo(_merge_heads(_reference_attention(q, k, v, bias)))
    return out if rows is None else T.embedding_lookup(out, rows)


def _rows(rng, t, h, dh=3):
    return Tensor(rng.standard_normal((t, h * dh)), requires_grad=True)


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


def _assert_near(got, want):
    """Each array of ``got`` within 1e-12 of the largest magnitude of its
    reference array in ``want``, or of 1 if that is larger. The inputs are
    of unit scale, and some values are 0 in exact arithmetic, so both sides
    hold only rounding: dQ and dK at one key row, where the composition
    gives exactly 0 but g vᵀ and rowsum(g ∘ o) round apart, and a key bias,
    whose gradient is 0 because a row's softmax ignores a shift of its
    scores."""
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * max(np.max(np.abs(w)), 1.0)


def _op_and_composition(t, h, seed, positions=None, t_all=None, dh=3):
    """Output and q, k, v gradients of ``T.attention`` (masked by
    ``positions``) and of the six-node composition (masked by a -1e9 bias),
    on the same seeded (t, h·dh) queries and (t_all, h·dh) keys and values."""
    t_all = t if t_all is None else t_all
    bias = None
    if positions is not None:
        bias = np.where(np.arange(t_all) > positions[:, None], -1e9, 0.0)
    results = []
    for op, mask in ((T.attention, positions), (_reference_multi_head, bias)):
        rng = np.random.default_rng(seed)
        q, k, v = _rows(rng, t, h, dh), _rows(rng, t_all, h, dh), _rows(rng, t_all, h, dh)
        out = op(q, k, v, h, mask)
        tsum(mul(out, Tensor(rng.standard_normal(out.data.shape)))).backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    return results


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("t", [1, 2, 7, 33])
def test_attention_matches_the_six_node_composition(t, h, causal):
    _assert_near(*_op_and_composition(t, h, 1000 * t + 10 * h + causal,
                                      np.arange(t) if causal else None))


@pytest.mark.parametrize("t, t_all, positions", [
    (150, 150, None), (300, 300, None), (600, 600, None),
    (115, 115, np.arange(115)),
    (1, 116, None),
    (5, 115, np.array([114, 3, 60, 61, 0])),
], ids=["encoder-150", "encoder-300", "encoder-600", "causal-prefill", "cached-step", "rows"])
def test_attention_matches_the_composition_at_the_bench_shapes(t, t_all, positions):
    """2 heads of 16 columns, as the benchmark's encoder and LM run them:
    encoder rows, an LM prefill, one decode step after 115 cached rows and
    a scored subset of an LM's rows."""
    _assert_near(*_op_and_composition(t, 2, t_all, positions, t_all, dh=16))


def _masked_cases(shape, n=22):
    """``n`` seeded (t_all, heads, positions) cases of one query shape, with
    t_all up to 700 taking every residue mod 8, so every SIMD tail length of
    the masked rows occurs."""
    rng = np.random.default_rng(zlib.crc32(shape.encode()))
    cases = []
    for i in range(n):
        t_all = max(8 * int(rng.integers(0, 88)) + i % 8, 2)
        if shape == "square":
            positions = np.arange(t_all)
        elif shape == "cached":  # the new rows after cached ones
            positions = np.arange(int(rng.integers(1, t_all)), t_all)
        else:  # a scored subset of the rows, as fusion asks for
            positions = rng.choice(t_all, size=int(rng.integers(1, min(t_all, 80) + 1)),
                                   replace=False)
        cases.append((t_all, (1, 2, 4)[i % 3], positions))
    return cases


@pytest.mark.parametrize("shape", ["square", "cached", "rows"])
def test_causal_positions_match_the_composition_with_a_bias(shape):
    """Output and q/k/v gradients of the masked op agree with the
    composition under the -1e9 bias it replaced, in 22 cases per shape."""
    for t_all, h, positions in _masked_cases(shape):
        _assert_near(*_op_and_composition(len(positions), h, t_all, positions, t_all, dh=4))


@pytest.mark.parametrize("shape", ["square", "cached", "rows"])
def test_later_keys_and_values_leave_a_query_s_output_and_dq_rows_byte_identical(shape):
    """Masked keys get e = 0.0 exactly, so new key and value rows after a
    cut leave the output and dQ rows of every query at or before the cut
    byte for byte as they were."""
    for t_all, h, positions in _masked_cases(shape, n=8):
        rng = np.random.default_rng(t_all)
        q = rng.standard_normal((len(positions), h * 4))
        kv = rng.standard_normal((2, t_all, h * 4))
        grad = rng.standard_normal(q.shape)
        cut = int(np.median(positions))
        changed = kv.copy()
        changed[:, cut + 1:] = rng.standard_normal(changed[:, cut + 1:].shape)
        seen = positions <= cut
        rows = []
        for k, v in (kv, changed):
            qt = Tensor(q, requires_grad=True)
            out = T.attention(qt, Tensor(k), Tensor(v), h, positions)
            tsum(mul(out, Tensor(grad))).backward()
            rows.append((out.data[seen].tobytes(), qt.grad[seen].tobytes()))
        assert rows[0] == rows[1], (t_all, h, cut)


@pytest.mark.parametrize("positions, message", [
    (np.arange(4), r"attention positions shape \(4,\) does not match 3 query rows"),
    (np.arange(3)[:, None], r"attention positions shape \(3, 1\) does not match 3"),
    (np.array([0, -1, 2]), r"attention position out of range \[0, 5\)"),
    (np.array([0, 5, 2]), r"attention position out of range \[0, 5\)"),
], ids=["long", "2-D", "negative", "past-the-keys"])
def test_bad_positions_are_a_graph_error_naming_attention(positions, message):
    rng = np.random.default_rng(1)
    q, k, v = _rows(rng, 3, 2), _rows(rng, 5, 2), _rows(rng, 5, 2)
    with pytest.raises(GraphError, match=message):
        T.attention(q, k, v, 2, positions)


def _graph_nodes(out):
    """The op nodes of the graph that ends at ``out``."""
    nodes, stack = {}, [out]
    while stack:
        node = stack.pop()
        if node._op != "leaf" and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


@pytest.mark.parametrize("module, count", [
    (MultiHeadSelfAttention, 5), (TransformerLayer, 12),
], ids=["attention", "layer"])
def test_one_call_records_its_linears_and_one_attention_node(module, count):
    rng = np.random.default_rng(4)
    nodes = _graph_nodes(module(8, 2, causal=True, rng=rng)(Tensor(rng.standard_normal((5, 8)))))
    assert len(nodes) == count
    assert [n._op for n in nodes].count("attention") == 1


def _layer_grads(seed, causal, steps=2):
    """Parameters and input gradients after ``steps`` Adam steps of one
    transformer layer on two losses each."""
    rng = np.random.default_rng(seed)
    layer = TransformerLayer(8, 2, causal=causal, rng=rng)
    opt = Adam(layer, lr=1e-2)
    xs = [Tensor(rng.standard_normal((t, 8)), requires_grad=True) for t in (5, 9)]
    for _ in range(steps):
        fit(opt, [[lambda x=x: tsum(mul(layer(x), layer(x))) for x in xs]])
    return [p.data for p in layer.parameters()] + [x.grad for x in xs]


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_transformer_training_matches_the_six_node_composition(monkeypatch, causal):
    got = _layer_grads(3, causal)
    monkeypatch.setattr(MultiHeadSelfAttention, "__call__", _reference_self_attention)
    _assert_near(got, _layer_grads(3, causal))


def _cached_rows(seed, pieces):
    """A causal layer's outputs for 12 rows fed with a cache in ``pieces``
    (row bounds), under no_grad."""
    rng = np.random.default_rng(seed)
    layer = TransformerLayer(8, 2, causal=True, rng=rng)
    x = rng.standard_normal((12, 8))
    cache = []
    with T.no_grad():
        return [layer(Tensor(x[lo:hi]), cache).data for lo, hi in pieces]


def test_cached_prefill_and_single_rows_are_byte_equal_to_the_composition(monkeypatch):
    pieces = [(0, 6)] + [(i, i + 1) for i in range(6, 12)]
    got = _cached_rows(8, pieces)
    monkeypatch.setattr(MultiHeadSelfAttention, "__call__", _reference_self_attention)
    assert _bytes(got) == _bytes(_cached_rows(8, pieces))


def test_cached_multi_row_pieces_match_the_composition(monkeypatch):
    pieces = [(0, 5), (5, 8), (8, 9), (9, 12)]
    got = _cached_rows(9, pieces)
    monkeypatch.setattr(MultiHeadSelfAttention, "__call__", _reference_self_attention)
    _assert_near(got, _cached_rows(9, pieces))


def _scored_rows(seed, rows, cached=0):
    """Output and input gradient of a causal layer over 20 rows (after
    ``cached`` rows fed first), returned at ``rows``, plus the cache."""
    rng = np.random.default_rng(seed)
    layer = TransformerLayer(8, 2, causal=True, rng=rng)
    x = Tensor(rng.standard_normal((20, 8)), requires_grad=True)
    cache = []
    if cached:
        with T.no_grad():
            layer(Tensor(rng.standard_normal((cached, 8))), cache)
    out = layer(x, cache, rows)
    tsum(mul(out, Tensor(rng.standard_normal(out.data.shape)))).backward()
    return out.data, x.grad, [c.data for c in cache]


@pytest.mark.parametrize("cached", [0, 6], ids=["prefill", "after-cache"])
@pytest.mark.parametrize("rows", [[19], [3, 4, 5, 11], [12, 0, 7]], ids=["last", "run", "any"])
def test_a_layer_at_scored_rows_matches_the_full_layer_at_those_rows(monkeypatch, rows, cached):
    """Queries, residual and FFN at ``rows`` only: the output and input
    gradient agree with the full layer's rows to 1e-12 (BLAS rounds a row
    by the row count it multiplies), and the cache is the same bytes."""
    got = _scored_rows(7, rows, cached)
    monkeypatch.setattr(MultiHeadSelfAttention, "__call__", _reference_self_attention)
    want = _scored_rows(7, rows, cached)
    for g, w in zip(got[:2], want[:2]):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
    # the reference cache holds (heads, rows, head dim), the layer's (rows, dim)
    assert [c.tobytes() for c in got[2]] == [
        _merge_heads(Tensor(c)).data.tobytes() for c in want[2]]


def test_non_finite_attention_input_names_attention():
    rng = np.random.default_rng(0)
    q, k, v = (_rows(rng, 4, 2) for _ in range(3))
    q.data[1, 2] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="'attention'"):
        T.attention(q, k, v, 2)


# ---------------------------------------------------------------------------
# Tensor.backward releases the graph it walks


def _retaining_backward(self, scale=1.0):
    """``Tensor.backward`` as it was before it released the graph."""
    topo, seen, stack = [], set(), [(self, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    self.grad = np.full_like(self.data, scale)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    h = T.gelu(x)
    loss = tsum(mul(h, h))
    loss.backward()
    assert x.grad is not None
    for node in (h, loss):
        assert node.grad is None and node._backward_fn is None and node._parents == ()


def test_a_second_backward_on_the_same_loss_is_a_graph_error():
    x = Tensor(np.arange(3.0), requires_grad=True)
    loss = tsum(mul(x, x))
    loss.backward()
    with pytest.raises(GraphError, match="op 'sum'.*already released"):
        loss.backward()


def test_a_second_loss_on_a_released_shared_subgraph_is_a_graph_error():
    x = Tensor(np.arange(3.0), requires_grad=True)
    shared = T.relu(x)
    tsum(shared).backward()
    with pytest.raises(GraphError, match="op 'relu'.*already released"):
        tsum(mul(shared, shared)).backward()


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_released_training_gives_the_retained_leaf_gradients(monkeypatch, causal):
    got = _layer_grads(4, causal)
    monkeypatch.setattr(Tensor, "backward", _retaining_backward)
    assert _bytes(got) == _bytes(_layer_grads(4, causal))


def _two_losses_own_graphs():
    """Leaf gradients of two losses over shared leaves, each loss with its
    own graph, accumulated by two walks."""
    rng = np.random.default_rng(6)
    layer = TransformerLayer(8, 2, causal=True, rng=rng)
    x = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
    tsum(layer(x)).backward()
    tsum(T.gelu(layer(x))).backward()
    return [p.grad.tobytes() for p in layer.parameters()] + [x.grad.tobytes()]


def test_two_losses_with_their_own_graphs_give_the_retained_gradients(monkeypatch):
    got = _two_losses_own_graphs()
    monkeypatch.setattr(Tensor, "backward", _retaining_backward)
    assert got == _two_losses_own_graphs()
