"""Training helpers: gradient clipping, the non-finite-loss guard, and the
shared ``train_epoch`` loop."""

import numpy as np
import pytest

from m3d_fault_loc.cli import train as train_cli
from m3d_fault_loc.data.dataset import CircuitGraphDataset
from m3d_fault_loc.data.synthetic import synthesize_fault_dataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.model.optim import (
    Adam,
    NonFiniteLossError,
    clip_by_global_norm,
    global_grad_norm,
    train_epoch,
)


def tiny_dataset(n_graphs=6):
    rng = np.random.default_rng(0)
    return CircuitGraphDataset.from_graphs(
        synthesize_fault_dataset(rng, n_graphs=n_graphs, n_gates=10, n_inputs=3)
    )


# -- clipping --------------------------------------------------------------


def test_global_grad_norm_flattens_across_entries():
    grads = {"a": np.array([3.0]), "b": np.array([[4.0]])}
    assert global_grad_norm(grads) == pytest.approx(5.0)


def test_clip_scales_in_place_and_returns_preclip_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    returned = clip_by_global_norm(grads, max_norm=1.0)
    assert returned == pytest.approx(5.0)
    assert global_grad_norm(grads) == pytest.approx(1.0)
    assert grads["a"][0] == pytest.approx(0.6)
    assert grads["b"][0] == pytest.approx(0.8)


def test_clip_is_a_noop_under_the_limit():
    grads = {"a": np.array([0.3, 0.4])}
    returned = clip_by_global_norm(grads, max_norm=2.0)
    assert returned == pytest.approx(0.5)
    np.testing.assert_array_equal(grads["a"], [0.3, 0.4])


def test_clip_leaves_non_finite_gradients_alone():
    grads = {"a": np.array([np.inf, 1.0])}
    assert clip_by_global_norm(grads, max_norm=1.0) == np.inf
    assert np.isinf(grads["a"][0]), "scaling inf grads would yield NaN, not a clip"


def test_clip_rejects_non_positive_max_norm():
    with pytest.raises(ValueError, match="positive"):
        clip_by_global_norm({"a": np.zeros(2)}, max_norm=0.0)


# -- non-finite-loss guard -------------------------------------------------


def test_train_aborts_on_nan_loss_with_context(monkeypatch):
    def nan_loss(self, graph):
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        return float("nan"), grads

    monkeypatch.setattr(DelayFaultLocalizer, "loss_and_grads", nan_loss)
    dataset = tiny_dataset()
    with pytest.raises(NonFiniteLossError) as exc_info:
        train_cli.train(dataset, np.random.default_rng(0), epochs=1, hidden=8, log=None)
    message = str(exc_info.value)
    assert "epoch 0" in message and "--clip-norm" in message


def test_train_cli_exits_nonzero_on_nan_loss(tmp_path, monkeypatch, capsys):
    def inf_loss(self, graph):
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        return float("inf"), grads

    monkeypatch.setattr(DelayFaultLocalizer, "loss_and_grads", inf_loss)
    out = tmp_path / "model.npz"
    rc = train_cli.main(
        ["--n-graphs", "8", "--n-gates", "10", "--epochs", "1", "--hidden", "8",
         "--out", str(out)]
    )
    assert rc == 1
    assert "training aborted" in capsys.readouterr().err
    assert not out.exists(), "a poisoned model must never reach disk"


def test_train_cli_accepts_clip_norm_end_to_end(tmp_path, capsys):
    out = tmp_path / "model.npz"
    rc = train_cli.main(
        ["--n-graphs", "12", "--n-gates", "10", "--epochs", "2", "--hidden", "8",
         "--clip-norm", "1.0", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()
    assert "held-out localization accuracy" in capsys.readouterr().out


# -- train_epoch -----------------------------------------------------------


class _ScalarModel:
    """Each "graph" is a float g with loss g and gradient [g]."""

    def __init__(self):
        self.params = {"w": np.zeros(1)}

    def loss_and_grads(self, graph):
        return float(graph), {"w": np.array([float(graph)])}


class _RecordingOptimizer:
    def __init__(self):
        self.steps = []

    def step(self, grads):
        self.steps.append(grads["w"].copy())


def test_train_epoch_divides_each_gradient_by_its_own_minibatch_size():
    optimizer = _RecordingOptimizer()
    total_loss, max_norm = train_epoch(
        _ScalarModel(), optimizer, [1.0, 2.0, 3.0, 4.0, 5.0], batch_size=4
    )
    # (1 + 2 + 3 + 4) / 4, then the short last batch of one divided by 1.
    assert [float(g[0]) for g in optimizer.steps] == [2.5, 5.0]
    assert total_loss == 15.0
    assert max_norm == 5.0  # unclipped: the largest global norm of the epoch


def test_train_epoch_clips_and_returns_max_preclip_norm():
    optimizer = _RecordingOptimizer()
    _, max_norm = train_epoch(
        _ScalarModel(), optimizer, [1.0, 2.0, 3.0, 4.0, 5.0], batch_size=4, clip_norm=1.0
    )
    assert max_norm == 5.0
    assert [float(g[0]) for g in optimizer.steps] == [1.0, 1.0]


def test_train_epoch_nan_loss_names_epoch_graph_and_hint(monkeypatch):
    def nan_loss(self, graph):
        return float("nan"), {k: np.zeros_like(v) for k, v in self.params.items()}

    monkeypatch.setattr(DelayFaultLocalizer, "loss_and_grads", nan_loss)
    graphs = list(tiny_dataset(n_graphs=3))
    model = DelayFaultLocalizer(hidden=8)
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(NonFiniteLossError) as exc_info:
        train_epoch(model, Adam(model.params), graphs, batch_size=2, epoch=3)
    message = str(exc_info.value)
    assert "epoch 3" in message
    assert graphs[0].name in message
    assert "--clip-norm" in message
    for key, value in before.items():  # no optimizer step after the bad loss
        assert np.array_equal(model.params[key], value)


def test_seeded_train_runs_write_byte_identical_models(tmp_path, capsys):
    outs = [tmp_path / "a.npz", tmp_path / "b.npz"]
    for out in outs:
        rc = train_cli.main(
            ["--seed", "3", "--n-graphs", "12", "--n-gates", "10", "--epochs", "3",
             "--hidden", "8", "--batch-size", "5", "--out", str(out)]
        )
        assert rc == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
