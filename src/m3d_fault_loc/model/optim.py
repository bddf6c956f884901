"""Minimal numpy Adam optimizer for the localizer's parameter dict,
training-stability helpers (global-norm gradient clipping and the
non-finite-loss guard exception), and :func:`train_epoch`, the one epoch
loop that ``m3d-train`` and the ``m3d-bench`` training cases share."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.obs.profile import phase

if TYPE_CHECKING:
    from m3d_fault_loc.model.localizer import DelayFaultLocalizer


class NonFiniteLossError(RuntimeError):
    """Training loss went NaN/inf — abort loudly instead of saving a
    silently-corrupt checkpoint."""


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """L2 norm over every gradient entry, treated as one flat vector."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    return float(np.sqrt(total))


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm so callers can log it."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(grads)
    if norm > max_norm and np.isfinite(norm):
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class Adam:
    """Adam over a ``dict[str, np.ndarray]`` parameter set."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for key, param in self.params.items():
            g = grads[key]
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def train_epoch(
    model: DelayFaultLocalizer,
    optimizer: Adam,
    graphs: Sequence[CircuitGraph],
    batch_size: int,
    clip_norm: float | None = None,
    epoch: int = 0,
) -> tuple[float, float]:
    """One pass over ``graphs`` in order, one optimizer step per minibatch.

    Each graph's gradient is divided by the size of its own minibatch (a
    short last batch included) and accumulated; ``clip_norm`` clips the
    accumulated gradient to that global L2 norm before the step. Returns
    ``(total_loss, max_norm)``: the summed per-graph loss and the largest
    pre-clip gradient norm of the epoch. A NaN/inf loss raises
    :class:`NonFiniteLossError` before any further step — a model trained
    past that point is garbage. ``epoch`` only labels that error.
    """
    total_loss = 0.0
    max_norm = 0.0
    for start in range(0, len(graphs), batch_size):
        n = min(batch_size, len(graphs) - start)
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        for i in range(start, start + n):
            # Bracketed per graph: --profile reports one data_gen call per graph.
            with phase("data_gen"):
                graph = graphs[i]
            loss, g = model.loss_and_grads(graph)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss {loss!r} at epoch {epoch}, graph {graph.name!r}; "
                    "lower --lr or pass --clip-norm"
                )
            total_loss += loss
            for k in grads:
                grads[k] += g[k] / n
        with phase("optimizer_step"):
            if clip_norm is not None:
                norm = clip_by_global_norm(grads, clip_norm)
            else:
                norm = global_grad_norm(grads)
            max_norm = max(max_norm, norm)
            optimizer.step(grads)
    return total_loss, max_norm
