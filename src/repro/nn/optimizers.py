"""First-order optimizers.

The paper trains the synthetic benchmarks with **RMSprop** (initial lr 0.01,
multiplicative decay 0.995 per round) and FEMNIST with **SGD** (lr 0.004);
both are implemented here.  A model calls :meth:`Optimizer.update` once
per step, on its whole parameter arena and the gradient arena beside it
(:func:`repro.nn.model.bind_arena`), under one key -- so the state an
optimizer holds for a model is one array shaped like the arena.  State
lives in the optimizer, keyed, not in the model, so it survives the
weight swaps the federated server performs between rounds; ``update``
serves any ``(key, param, grad)`` triple, contiguous or not.

One calling convention, two arena shapes
----------------------------------------
:class:`~repro.nn.model.Sequential` passes a ``(P,)`` arena,
:class:`repro.nn.stacked.StackedSequential` a ``(C, P)`` one, a row per
client.  Neither needs a variant of its own because every update rule
here is strictly **elementwise**: SGD velocity, RMSprop's
squared-gradient average and the parameter updates themselves never
reduce across any axis.  An element's result therefore depends on
nothing but its own history -- not on which key it is filed under, how
the array around it is shaped, or where a block boundary falls -- so the
arena pass is bit-identical to per-tensor updates, and row ``c`` of a
stacked state array evolves bit-identically to the state a private
per-client optimizer would hold (``C`` independent optimizers in one
instance).  Keep it that way: an update rule that mixed elements (e.g. a
global-norm clip) would silently couple layers, and clients in stacked
mode, and must grow an explicit reduction first.  The independence
property is hypothesis-tested in ``tests/nn/test_stacked.py``; the arena
pass against per-tensor updates in ``tests/nn/test_model.py``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np

__all__ = ["Optimizer", "SGD", "RMSprop"]

ParamKey = Tuple[Hashable, str]


class Optimizer:
    """Base optimizer: learning-rate schedule plus per-parameter state."""

    def __init__(self, lr: float, decay: float = 1.0) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.base_lr = lr
        self.decay = decay
        self.steps = 0

    @property
    def lr(self) -> float:
        """Current learning rate under multiplicative decay."""
        return self.base_lr * (self.decay**self.steps)

    def update(self, key: ParamKey, param: np.ndarray, grad: np.ndarray) -> None:
        """Apply one in-place update to ``param`` given ``grad``."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, lr: float, momentum: float = 0.0, decay: float = 1.0) -> None:
        super().__init__(lr, decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: Dict[ParamKey, np.ndarray] = {}
        self._scratch: Dict[ParamKey, np.ndarray] = {}

    def update(self, key: ParamKey, param: np.ndarray, grad: np.ndarray) -> None:
        # In-place ufuncs with a per-key scratch buffer: an arena is
        # updated every step, and allocating a fresh temporary of its
        # size each call costs more than the arithmetic (multi-MB for a
        # stacked cohort).  Operand order matches the textbook
        # ``v = momentum * v - lr * grad; param += v`` exactly (only
        # commutative swaps), so results stay bit-identical to it.
        tmp = self._scratch.get(key)
        if tmp is None or tmp.shape != param.shape:
            tmp = np.empty_like(param)
            self._scratch[key] = tmp
        np.multiply(grad, self.lr, out=tmp)
        if self.momentum == 0.0:
            param -= tmp
            return
        v = self._velocity.get(key)
        if v is None:
            v = np.zeros_like(param)
            self._velocity[key] = v
        v *= self.momentum
        v -= tmp
        param += v


class RMSprop(Optimizer):
    """RMSprop as used by the paper's local trainer.

    ``rho`` is the moving-average coefficient of the squared gradient;
    ``eps`` guards the division.
    """

    def __init__(
        self,
        lr: float = 0.01,
        rho: float = 0.9,
        eps: float = 1e-7,
        decay: float = 0.995,
    ) -> None:
        super().__init__(lr, decay)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.rho = rho
        self.eps = eps
        self._sq_avg: Dict[ParamKey, np.ndarray] = {}
        self._scratch: Dict[ParamKey, Tuple[np.ndarray, np.ndarray]] = {}

    #: Elements per update block.  The nine ufunc passes below run
    #: block by block so the five slices a block touches (parameter,
    #: gradient, squared average and two scratch: 640 KB here) stay
    #: L2-resident instead of streaming the whole arena through the
    #: cache hierarchy nine times -- even a small model's arena is
    #: several blocks (the 99 722-parameter MLP: 4 MB over the five).
    #: Per element the op sequence is unchanged, so blocking never
    #: changes a result.  Chosen by a sweep inside real train steps
    #: (CHANGES.md, PR 19): 16 384 and 32 768 tie, 8 192 and 65 536 are
    #: ~10 % slower, one unblocked pass ~12-40 %.
    BLOCK = 16_384

    def update(self, key: ParamKey, param: np.ndarray, grad: np.ndarray) -> None:
        # In-place ufuncs with per-key scratch, for the same reason as
        # :meth:`SGD.update`.  Per element this computes exactly
        # ``s = rho * s + (1 - rho) * grad * grad`` then
        # ``param -= lr * grad / (sqrt(s) + eps)`` (only commutative
        # operand swaps), so results stay bit-identical to the
        # allocating form while touching no fresh memory after the
        # first call for a key.
        s = self._sq_avg.get(key)
        if s is None:
            s = np.zeros_like(param)
            self._sq_avg[key] = s
        scratch = self._scratch.get(key)
        if scratch is None:
            size = min(param.size, self.BLOCK)
            scratch = (
                np.empty(size, dtype=param.dtype),
                np.empty(size, dtype=param.dtype),
            )
            self._scratch[key] = scratch
        tmp, den = scratch
        if not (param.flags.c_contiguous and grad.flags.c_contiguous):
            # Rare fallback: flattening a non-contiguous array would
            # silently copy and drop the in-place write-back.
            s *= self.rho
            s += (1.0 - self.rho) * grad * grad
            param -= self.lr * grad / (np.sqrt(s) + self.eps)
            return
        p_flat = param.reshape(-1)
        g_flat = grad.reshape(-1)
        s_flat = s.reshape(-1)
        for start in range(0, p_flat.size, self.BLOCK):
            pb = p_flat[start : start + self.BLOCK]
            gb = g_flat[start : start + self.BLOCK]
            sb = s_flat[start : start + self.BLOCK]
            tb = tmp[: pb.size]
            db = den[: pb.size]
            np.multiply(gb, 1.0 - self.rho, out=tb)
            tb *= gb
            sb *= self.rho
            sb += tb
            np.sqrt(sb, out=db)
            db += self.eps
            np.multiply(gb, self.lr, out=tb)
            tb /= db
            pb -= tb
