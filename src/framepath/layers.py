"""Trainable layers on top of the tape: parameter store, embeddings,
linear maps, layer norm, and a bidirectional LSTM.

Every parameter lives in a ParamStore under a unique path.  The store is
the single source of truth for optimization (which tensors train, which
decay), for checkpoints (path -> values), and for gradient checking.
"""

from __future__ import annotations

import base64
from contextlib import contextmanager
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
    """Parameters by path.  Given a checkpoint's shapes (path -> tuple),
    each path and shape is checked against them before values are drawn."""

    def __init__(self, rng: np.random.Generator,
                 shapes: dict[str, tuple] | None = None):
        self.rng = rng
        self._shapes = shapes
        self._entries: dict[str, ParamEntry] = {}

    def _expect(self, path: str, shape: tuple) -> None:
        if self._shapes is not None and self._shapes.get(path) != shape:
            raise CheckpointMismatch(f"{path}: shape "
                                     f"{self._shapes.get(path, 'missing')} "
                                     f"does not match {shape}")

    def add(self, path: str, values: np.ndarray, *, decay: bool = True,
            group: str | None = None) -> Tensor:
        self._expect(path, np.shape(values))
        if path in self._entries:
            raise ValueError(f"duplicate parameter path {path!r}")
        t = ad.param(np.asarray(values, dtype=np.float64), name=path)
        self._entries[path] = ParamEntry(t, decay, group)
        return t

    # initializer shorthands ------------------------------------------------

    def glorot(self, path: str, fan_in: int, fan_out: int, *,
               decay: bool = True, group: str | None = None) -> Tensor:
        self._expect(path, (fan_in, fan_out))
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        values = self.rng.uniform(-limit, limit, (fan_in, fan_out))
        return self.add(path, values, decay=decay, group=group)

    def zeros(self, path: str, shape, *, decay: bool = False,
              group: str | None = None) -> Tensor:
        return self.add(path, np.zeros(shape), decay=decay, group=group)

    def embedding(self, path: str, n: int, dim: int) -> Tensor:
        self._expect(path, (n, dim))
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

    def load_state(self, state: dict) -> None:
        """Set every parameter from state (path -> shape and values, as
        state() writes them or as a flat list of numbers); a missing or
        extra path, a wrong shape, values that do not decode to exactly
        that many numbers, or a non-finite value raises ValueError
        naming it."""
        missing = set(self._entries) - set(state)
        extra = set(state) - set(self._entries)
        if missing or extra:
            raise ValueError(
                f"parameter mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for path, entry in self._entries.items():
            with _naming(path):
                entry.tensor.data = _decode(state[path],
                                            entry.tensor.data.shape)


def state_shapes(state: dict) -> dict[str, tuple]:
    """path -> shape of every entry of a checkpoint's params; an entry
    with no shape list raises ValueError naming it."""
    shapes = {}
    for path, rec in state.items():
        with _naming(path):
            shapes[path] = tuple(rec["shape"])
    return shapes


@contextmanager
def _naming(path: str):
    """Re-raise what decoding a checkpoint entry raises as a ValueError
    that starts with its path (OverflowError: an integer too large for
    a float64)."""
    try:
        yield
    except KeyError as e:
        raise ValueError(f"{path}: no {e} key") from e
    except (ValueError, TypeError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from e


def _decode(rec: dict, shape: tuple) -> np.ndarray:
    """The float64 array of the given shape that a checkpoint entry
    holds: base64 of its row-major little-endian float64 bytes, or (the
    older spelling) a flat list of JSON numbers."""
    if (got := tuple(rec["shape"])) != shape:
        raise ValueError(f"shape {got} does not match {shape}")
    values, size = rec["values"], int(np.prod(shape))
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
        self.dim = dim

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
        self.out_dim = width

    def __call__(self, x: Tensor,
                 lengths: Sequence[int] | None = None) -> Tensor:
        out = x
        packed = ad.Packed(len(x.data), lengths)
        for fwd, bwd in self.layers:
            out = ad.bilstm_layer((ad.matmul(out, fwd.wx), fwd.wh, fwd.b),
                                  (ad.matmul(out, bwd.wx), bwd.wh, bwd.b),
                                  packed)
        return out
