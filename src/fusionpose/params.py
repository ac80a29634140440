"""Named parameter storage, checkpoint serialization, and the optimizer.

Checkpoints use a flat little-endian binary layout (extension ``.fpck``):
magic ``FPCK``, u32 version, u32 parameter count, then per parameter a
u16 path length, the UTF-8 path, u8 rank (at most 2), rank u32 dims, and
the float64 data. Optimizer moments are stored in the same file under
reserved ``__opt__.*`` paths so a checkpoint fully resumes training. A
file is written under a temporary name and renamed into place, so a
crash mid-write never leaves a truncated checkpoint under its real name.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointMismatchError, ContractError

_MAGIC = b"FPCK"
_VERSION = 1


class ParameterStore:
    """Map from dot-separated parameter paths to tensors.

    Paths are unique; all iteration is in lexicographic path order so
    that initialization draws, optimizer updates and serialization are
    deterministic. Weights initialize uniform in [-1/sqrt(fan_in),
    +1/sqrt(fan_in)] from the seeded generator; biases start at zero.
    """

    def __init__(self, seed: int = 0):
        self._params: dict[str, Tensor] = {}
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.state: dict[str, np.ndarray] = {}  # optimizer slots etc.

    def weight(self, path: str, shape: tuple[int, ...], fan_in: int | None = None) -> Tensor:
        if path in self._params:
            raise ContractError(f"duplicate parameter path: {path}")
        fan = fan_in if fan_in is not None else shape[0]
        bound = 1.0 / np.sqrt(float(fan))
        data = self._rng.uniform(-bound, bound, size=shape)
        t = Tensor(data)
        self._params[path] = t
        return t

    def zeros(self, path: str, shape: tuple[int, ...]) -> Tensor:
        if path in self._params:
            raise ContractError(f"duplicate parameter path: {path}")
        t = Tensor(np.zeros(shape))
        self._params[path] = t
        return t

    def from_value(self, path: str, value) -> Tensor:
        if path in self._params:
            raise ContractError(f"duplicate parameter path: {path}")
        t = Tensor(np.array(value, dtype=np.float64))
        self._params[path] = t
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def __contains__(self, path: str) -> bool:
        return path in self._params

    def __len__(self) -> int:
        return len(self._params)

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
        path = Path(path)
        # The temporary name must not match the ``epoch_*.fpck`` glob.
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<II", _VERSION, len(entries)))
                for name, arr in entries:
                    raw = name.encode("utf-8")
                    fh.write(struct.pack("<H", len(raw)))
                    fh.write(raw)
                    fh.write(struct.pack("<B", arr.ndim))
                    for dim in arr.shape:
                        fh.write(struct.pack("<I", dim))
                    fh.write(arr.astype("<f8").tobytes())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @staticmethod
    def read_entries(path: str | Path) -> dict[str, np.ndarray]:
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise CheckpointMismatchError(f"{path}: not a checkpoint file")
        offset = 4

        def take(size: int) -> int:
            nonlocal offset
            if offset + size > len(blob):
                raise CheckpointMismatchError(
                    f"{path}: truncated at byte {len(blob)} "
                    f"(needs {offset + size})")
            start, offset = offset, offset + size
            return start

        version, count = struct.unpack_from("<II", blob, take(8))
        if version != _VERSION:
            raise CheckpointMismatchError(f"{path}: unsupported version {version}")
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, take(2))
            start = take(nlen)
            try:
                name = blob[start : start + nlen].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointMismatchError(f"{path}: bad parameter name") from exc
            (rank,) = struct.unpack_from("<B", blob, take(1))
            if rank > 2:
                raise CheckpointMismatchError(f"{path}: {name} has rank {rank}, at most 2")
            dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank))
            n = math.prod(dims)  # a Python int: huge dims cannot wrap around
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=take(8 * n)).copy()
            entries[name] = arr.reshape(dims)
        return entries

    def load(self, path: str | Path) -> dict[str, np.ndarray]:
        """Load parameter values in place; returns any ``__opt__``/extra entries."""
        entries = self.read_entries(path)
        extra = {k: v for k, v in entries.items() if k.startswith("__")}
        own = {k: v for k, v in entries.items() if not k.startswith("__")}
        if set(own) != set(self._params):
            missing = sorted(set(self._params) - set(own))[:3]
            surplus = sorted(set(own) - set(self._params))[:3]
            raise CheckpointMismatchError(
                f"{path}: parameter set mismatch (missing {missing}, surplus {surplus})"
            )
        for key, arr in own.items():
            t = self._params[key]
            if arr.shape != t.data.shape:
                raise CheckpointMismatchError(
                    f"{path}: {key} has shape {arr.shape}, expected {t.data.shape}"
                )
            if not np.isfinite(arr).all():
                raise CheckpointMismatchError(f"{path}: {key} holds non-finite values")
        for key, arr in own.items():
            self._params[key].data = arr
        return extra


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
