"""Trainable layers on top of the tape: parameter store, embeddings,
linear maps, layer norm, and a bidirectional LSTM.

Every parameter lives in a ParamStore under a unique path, put there by
ParamStore.add.  The store is the single source of truth for
optimization (which tensors train, which decay, each L2 coefficient),
for checkpoints (path -> values), and for gradient checking.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ConfigError


@dataclass
class ParamEntry:
    tensor: Tensor
    decay: bool          # participates in decoupled weight decay
    l2: float            # squared-norm penalty coefficient (0: none)


class ParamStore:
    """Parameters by path, optionally over a checkpoint's decoded arrays
    (path -> float64 array, from decode_state)."""

    def __init__(self, rng: np.random.Generator,
                 saved: dict[str, np.ndarray] | None = None):
        self.rng = rng
        self._saved = saved
        self._entries: dict[str, ParamEntry] = {}

    def add(self, path: str, shape: tuple[int, ...],
            init: float | Callable = 0.0, *, decay: bool = True,
            l2: float = 0.0) -> Tensor:
        """The one place that decides a parameter's values.  With a
        checkpoint, path and shape are checked against its saved array
        (a missing path or another shape raises ValueError), which it
        takes: nothing is drawn or allocated.  Without one, init fills
        the shape if a number, or draws the array as init(rng, shape)
        from the store's rng if a function; a shape too big to allocate
        raises ConfigError naming path and shape."""
        if path in self._entries:
            raise ValueError(f"duplicate parameter path {path!r}")
        if self._saved is None:
            try:
                values = (init(self.rng, shape) if callable(init)
                          else np.full(shape, float(init)))
            except MemoryError as e:
                raise ConfigError(f"{path}: cannot allocate a parameter of "
                                  f"shape {shape}") from e
        else:
            values = self._saved.get(path)
            if values is None or values.shape != shape:
                got = "missing" if values is None else values.shape
                raise ValueError(f"{path}: shape {got} does not match {shape}")
        t = ad.param(np.asarray(values, dtype=np.float64), name=path)
        self._entries[path] = ParamEntry(t, decay, l2)
        return t

    # initializer shorthands ------------------------------------------------

    def glorot(self, path: str, fan_in: int, fan_out: int, *,
               l2: float = 0.0) -> Tensor:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self.add(path, (fan_in, fan_out),
                        lambda rng, shape: rng.uniform(-limit, limit, shape),
                        l2=l2)

    def embedding(self, path: str, n: int, dim: int) -> Tensor:
        scale = 1.0 / np.sqrt(dim)
        return self.add(path, (n, dim),
                        lambda rng, shape: rng.normal(0.0, scale, shape),
                        decay=False)

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


def decode_state(params: dict) -> dict[str, np.ndarray]:
    """path -> float64 array of every entry of a checkpoint's params, as
    state() writes them or with values as a flat list of JSON numbers.
    Raises ValueError naming the entry for a shape that is not a list of
    non-negative integers, values that do not decode to exactly that many
    numbers (an integer beyond float64's range included), or a non-finite
    value."""
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
    """y = x W + b for every row of x as one ad.affine op; W is (in, out)."""

    def __init__(self, store: ParamStore, path: str, in_dim: int, out_dim: int):
        self.w = store.glorot(f"{path}.w", in_dim, out_dim)
        self.b = store.add(f"{path}.b", (out_dim,), decay=False)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.affine(x, self.w, self.b)


class LayerNorm:
    def __init__(self, store: ParamStore, path: str, dim: int):
        self.gain = store.add(f"{path}.gain", (dim,), 1.0, decay=False)
        self.bias = store.add(f"{path}.bias", (dim,), decay=False)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class LstmDirection:
    """One LSTM direction's parameters, gates packed [i, f, g, o]: input
    map wx, recurrent map wh and bias b.  The forget-gate bias starts at
    +1 so early training does not erase the cell state."""

    def __init__(self, store: ParamStore, path: str, in_dim: int, hidden: int):
        self.wx = store.glorot(f"{path}.wx", in_dim, 4 * hidden)
        self.wh = store.glorot(f"{path}.wh", hidden, 4 * hidden)
        self.b = store.add(f"{path}.b", (4 * hidden,), lambda rng, shape:
                           np.repeat([0.0, 1.0, 0.0, 0.0], hidden),
                           decay=False)


class BiLstm:
    """Stacked bidirectional LSTM; output width is 2 * hidden.  x holds
    sequences of the given lengths back to back (None: one sequence).
    Each layer is one ad.bilstm_layer op that projects its input rows and
    steps both directions together; the layers share one ad.packed layout
    of the sequences."""

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
        packed = ad.packed(len(x.data), lengths)
        for fwd, bwd in self.layers:
            out = ad.bilstm_layer(out, (fwd.wx, fwd.wh, fwd.b),
                                  (bwd.wx, bwd.wh, bwd.b), packed)
        return out
