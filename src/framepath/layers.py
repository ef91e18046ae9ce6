"""Trainable layers on top of the tape: parameter store, embeddings,
linear maps, layer norm, and a bidirectional LSTM.

Every parameter lives in a ParamStore under a unique path.  The store is
the single source of truth for optimization (which tensors train, which
decay), for checkpoints (path -> values), and for gradient checking.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class CheckpointMismatch(ValueError):
    """A parameter the store's checkpoint lacks or shapes otherwise."""


@dataclass
class ParamEntry:
    tensor: Tensor
    decay: bool          # participates in decoupled weight decay
    group: str | None    # squared-norm penalty group, if any


class ParamStore:
    """Parameters by path.  Given a checkpoint's decoded arrays (path ->
    float64 array, from decode_state), each parameter's path and shape
    are checked against its saved array, which it takes: nothing is
    drawn."""

    def __init__(self, rng: np.random.Generator,
                 saved: dict[str, np.ndarray] | None = None):
        self.rng = rng
        self._saved = saved
        self._entries: dict[str, ParamEntry] = {}

    def _saved_as(self, path: str, shape: tuple) -> np.ndarray | None:
        """The saved array of path (None without a checkpoint); a
        missing path or another shape raises CheckpointMismatch."""
        if self._saved is None:
            return None
        saved = self._saved.get(path)
        if saved is None or saved.shape != shape:
            got = "missing" if saved is None else saved.shape
            raise CheckpointMismatch(f"{path}: shape {got} does not match "
                                     f"{shape}")
        return saved

    def add(self, path: str, values: np.ndarray, *, decay: bool = True,
            group: str | None = None) -> Tensor:
        saved = self._saved_as(path, np.shape(values))
        if path in self._entries:
            raise ValueError(f"duplicate parameter path {path!r}")
        t = ad.param(np.asarray(values if saved is None else saved,
                                dtype=np.float64), name=path)
        self._entries[path] = ParamEntry(t, decay, group)
        return t

    # initializer shorthands ------------------------------------------------

    def glorot(self, path: str, fan_in: int, fan_out: int, *,
               decay: bool = True, group: str | None = None) -> Tensor:
        values = self._saved_as(path, (fan_in, fan_out))
        if values is None:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            values = self.rng.uniform(-limit, limit, (fan_in, fan_out))
        return self.add(path, values, decay=decay, group=group)

    def zeros(self, path: str, shape, *, decay: bool = False,
              group: str | None = None) -> Tensor:
        return self.add(path, np.zeros(shape), decay=decay, group=group)

    def embedding(self, path: str, n: int, dim: int) -> Tensor:
        values = self._saved_as(path, (n, dim))
        if values is None:
            values = self.rng.normal(0.0, 1.0 / np.sqrt(dim), (n, dim))
        return self.add(path, values, decay=False)

    # access ----------------------------------------------------------------

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path].tensor

    def entries(self) -> Iterable[tuple[str, ParamEntry]]:
        return self._entries.items()

    # checkpoint state ------------------------------------------------------

    def state(self) -> dict:
        """path -> shape and values, the values as the base64 of the
        parameter's row-major little-endian float64 bytes."""
        return {
            path: {"shape": list(e.tensor.data.shape),
                   "values": base64.b64encode(e.tensor.data.astype(
                       "<f8", copy=False).tobytes()).decode("ascii")}
            for path, e in self._entries.items()
        }


def decode_state(params) -> dict[str, np.ndarray]:
    """path -> float64 array of every entry of a checkpoint's params, as
    state() writes them or with values as a flat list of JSON numbers.
    Raises ValueError for params that is not an object and, naming the
    entry, for a shape that is not a list of non-negative integers,
    values that do not decode to exactly that many numbers (an integer
    beyond float64's range included), or a non-finite value."""
    if not isinstance(params, dict):
        raise ValueError("not an object of parameters by path")
    saved = {}
    for path, rec in params.items():
        try:
            saved[path] = _decode(rec)
        except KeyError as e:
            raise ValueError(f"{path}: no {e} key") from e
        except (ValueError, OverflowError) as e:
            raise ValueError(f"{path}: {e}") from e
    return saved


def _decode(rec) -> np.ndarray:
    """The float64 array a checkpoint entry holds: base64 of its
    row-major little-endian float64 bytes, or (the older spelling) a
    flat list of JSON numbers."""
    if not isinstance(rec, dict):
        raise ValueError("not an object with a shape and values")
    shape, values = rec["shape"], rec["values"]
    if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"shape {shape!r} is not a list of non-negative "
                         "integers")
    size = math.prod(shape)
    if isinstance(values, str):
        try:
            raw = base64.b64decode(values, validate=True)
        except ValueError as e:
            raise ValueError(f"values are not base64: {e}") from e
        if len(raw) != 8 * size:
            raise ValueError(f"{len(raw)} bytes, expected {8 * size}")
        flat = np.frombuffer(raw, "<f8").astype(np.float64)
    elif isinstance(values, list) and set(map(type, values)) <= {int, float}:
        if len(values) != size:
            raise ValueError(f"{len(values)} values, expected {size}")
        flat = np.array(values, dtype=np.float64)
    else:
        raise ValueError("values must be a base64 string or a flat list "
                         "of numbers")
    if not np.isfinite(flat).all():
        raise ValueError("non-finite value (NaN or inf)")
    return flat.reshape(shape)


# ---------------------------------------------------------------------------
# layers

class Embedding:
    def __init__(self, store: ParamStore, path: str, n: int, dim: int):
        self.table = store.embedding(path, n, dim)

    def __call__(self, ids: Sequence[int]) -> Tensor:
        return ad.row_select(self.table, ids)


class Linear:
    """y = x W + b for every row of x, with W stored (in_dim, out_dim)."""

    def __init__(self, store: ParamStore, path: str, in_dim: int, out_dim: int):
        self.w = store.glorot(f"{path}.w", in_dim, out_dim)
        self.b = store.zeros(f"{path}.b", (out_dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add_rowvec(ad.matmul(x, self.w), self.b)


class LayerNorm:
    def __init__(self, store: ParamStore, path: str, dim: int):
        self.gain = store.add(f"{path}.gain", np.ones(dim), decay=False)
        self.bias = store.zeros(f"{path}.bias", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class LstmDirection:
    """One LSTM direction's parameters, gates packed [i, f, g, o]: input
    map wx, recurrent map wh and bias b.  The forget-gate bias starts at
    +1 so early training does not erase the cell state."""

    def __init__(self, store: ParamStore, path: str, in_dim: int, hidden: int):
        self.wx = store.glorot(f"{path}.wx", in_dim, 4 * hidden)
        self.wh = store.glorot(f"{path}.wh", hidden, 4 * hidden)
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0
        self.b = store.add(f"{path}.b", b, decay=False)


class BiLstm:
    """Stacked bidirectional LSTM; output width is 2 * hidden.  x holds
    sequences of the given lengths back to back (None: one sequence).
    Each layer is two input-projection matmuls over every row and one
    ad.bilstm_layer op that steps both directions together; the layers
    share one ad.Packed layout of the sequences."""

    def __init__(self, store: ParamStore, path: str, in_dim: int, hidden: int,
                 layers: int = 1):
        if layers < 1:
            raise ValueError("need at least one layer")
        self.layers = []
        width = in_dim
        for k in range(layers):
            fwd = LstmDirection(store, f"{path}.l{k}.fwd", width, hidden)
            bwd = LstmDirection(store, f"{path}.l{k}.bwd", width, hidden)
            self.layers.append((fwd, bwd))
            width = 2 * hidden

    def __call__(self, x: Tensor,
                 lengths: Sequence[int] | None = None) -> Tensor:
        out = x
        packed = ad.Packed(len(x.data), lengths)
        for fwd, bwd in self.layers:
            out = ad.bilstm_layer((ad.matmul(out, fwd.wx), fwd.wh, fwd.b),
                                  (ad.matmul(out, bwd.wx), bwd.wh, bwd.b),
                                  packed)
        return out
