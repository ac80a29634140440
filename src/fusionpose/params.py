"""Named parameter storage, checkpoint serialization, and the optimizer.

Checkpoints use a flat little-endian binary layout (extension ``.fpck``):
magic ``FPCK``, u32 version, u32 parameter count, then per parameter a
u16 path length, the UTF-8 path, u8 rank (at most 2), rank u32 dims, and
the float64 data. Optimizer moments are stored in the same file under
reserved ``__opt__.*`` paths so a checkpoint fully resumes training.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .binfile import Reader, write_atomic
from .errors import CheckpointMismatchError, ContractError

_MAGIC = b"FPCK"
_VERSION = 1


class ParameterStore:
    """Map from dot-separated parameter paths to tensors.

    Paths are unique; all iteration is in lexicographic path order so
    that initialization draws, optimizer updates and serialization are
    deterministic. Weights initialize uniform in [-1/sqrt(fan_in),
    +1/sqrt(fan_in)], fan_in being the first dimension, from the seeded
    generator; biases start at zero.
    """

    def __init__(self, seed: int = 0):
        self._params: dict[str, Tensor] = {}
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.state: dict[str, np.ndarray] = {}  # optimizer slots etc.

    def weight(self, path: str, shape: tuple[int, ...]) -> Tensor:
        bound = 1.0 / np.sqrt(float(shape[0]))
        return self._register(path, lambda: self._rng.uniform(-bound, bound, size=shape))

    def zeros(self, path: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(path, lambda: np.zeros(shape))

    def from_value(self, path: str, value) -> Tensor:
        return self._register(path, lambda: np.array(value, dtype=np.float64))

    def _register(self, path: str, make_data) -> Tensor:
        """A new parameter at ``path``; ``make_data`` runs only once the
        path is known to be free, so a refused path draws nothing."""
        if path in self._params:
            raise ContractError(f"duplicate parameter path: {path}")
        t = self._params[path] = Tensor(make_data())
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def items(self):
        for path in sorted(self._params):
            yield path, self._params[path]

    def paths(self) -> list[str]:
        return sorted(self._params)

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path, extra: dict[str, np.ndarray] | None = None) -> None:
        entries: list[tuple[str, np.ndarray]] = [
            (p, t.data) for p, t in self.items()
        ]
        for key in sorted(extra or {}):
            entries.append((key, np.asarray(extra[key], dtype=np.float64)))
        out = bytearray(_MAGIC)
        out += struct.pack("<II", _VERSION, len(entries))
        for name, arr in entries:
            raw = name.encode("utf-8")
            out += struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw,
                               arr.ndim, *arr.shape)
            out += arr.astype("<f8").tobytes()
        write_atomic(path, out)

    @staticmethod
    def read_entries(path: str | Path) -> dict[str, np.ndarray]:
        cur = Reader(path, _MAGIC, "checkpoint", CheckpointMismatchError)
        version, count = cur.unpack("<II")
        if version != _VERSION:
            raise CheckpointMismatchError(f"{path}: unsupported version {version}")
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = cur.unpack("<H")
            try:
                name = cur.unpack(f"<{nlen}s")[0].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointMismatchError(f"{path}: bad parameter name") from exc
            (rank,) = cur.unpack("<B")
            if rank > 2:
                raise CheckpointMismatchError(f"{path}: {name} has rank {rank}, at most 2")
            entries[name] = cur.array("<f8", cur.unpack(f"<{rank}I"))
        return entries


class Adam:
    """Adaptive moment estimation over a ParameterStore.

    Updates run in lexicographic path order; moments live in
    ``store.state`` so checkpoints capture them.
    """

    def __init__(self, store: ParameterStore, step_size: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        if "__opt__.t" not in store.state:
            store.state["__opt__.t"] = np.zeros(())
            for path, tensor in store.items():
                store.state[f"__opt__.m.{path}"] = np.zeros_like(tensor.data)
                store.state[f"__opt__.v.{path}"] = np.zeros_like(tensor.data)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        state = self.store.state
        state["__opt__.t"] = state["__opt__.t"] + 1.0
        t = float(state["__opt__.t"])
        corr1 = 1.0 - self.beta1 ** t
        corr2 = 1.0 - self.beta2 ** t
        for path, tensor in self.store.items():
            g = grads[path]
            m = state[f"__opt__.m.{path}"]
            v = state[f"__opt__.v.{path}"]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            state[f"__opt__.m.{path}"] = m
            state[f"__opt__.v.{path}"] = v
            update = (m / corr1) / (np.sqrt(v / corr2) + self.eps)
            tensor.data = tensor.data - self.step_size * update
