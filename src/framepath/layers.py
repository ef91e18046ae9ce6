"""Trainable layers on top of the tape: parameter store, embeddings,
linear maps, layer norm, and a bidirectional LSTM.

Every parameter lives in a ParamStore under a unique path.  The store is
the single source of truth for optimization (which tensors train, which
decay), for checkpoints (path -> values), and for gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class ParamEntry:
    tensor: Tensor
    decay: bool          # participates in decoupled weight decay
    group: str | None    # squared-norm penalty group, if any


class ParamStore:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._entries: dict[str, ParamEntry] = {}

    def add(self, path: str, values: np.ndarray, *, decay: bool = True,
            group: str | None = None) -> Tensor:
        if path in self._entries:
            raise ValueError(f"duplicate parameter path {path!r}")
        t = ad.param(np.asarray(values, dtype=np.float64), name=path)
        self._entries[path] = ParamEntry(t, decay, group)
        return t

    # initializer shorthands ------------------------------------------------

    def glorot(self, path: str, fan_in: int, fan_out: int, *,
               decay: bool = True, group: str | None = None) -> Tensor:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        values = self.rng.uniform(-limit, limit, (fan_in, fan_out))
        return self.add(path, values, decay=decay, group=group)

    def zeros(self, path: str, shape, *, decay: bool = False,
              group: str | None = None) -> Tensor:
        return self.add(path, np.zeros(shape), decay=decay, group=group)

    def embedding(self, path: str, n: int, dim: int) -> Tensor:
        values = self.rng.normal(0.0, 1.0 / np.sqrt(dim), (n, dim))
        return self.add(path, values, decay=False)

    # access ----------------------------------------------------------------

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path].tensor

    def entries(self) -> Iterable[tuple[str, ParamEntry]]:
        return self._entries.items()

    # checkpoint state ------------------------------------------------------

    def state(self) -> dict:
        return {
            path: {"shape": list(e.tensor.data.shape),
                   "values": e.tensor.data.reshape(-1).tolist()}
            for path, e in self._entries.items()
        }

    def load_state(self, state: dict) -> None:
        missing = set(self._entries) - set(state)
        extra = set(state) - set(self._entries)
        if missing or extra:
            raise ValueError(
                f"parameter mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for path, entry in self._entries.items():
            rec = state[path]
            shape = tuple(rec["shape"])
            if shape != entry.tensor.data.shape:
                raise ValueError(
                    f"{path}: shape {shape} does not match "
                    f"{entry.tensor.data.shape}"
                )
            entry.tensor.data = np.array(rec["values"],
                                         dtype=np.float64).reshape(shape)


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
    """One LSTM direction with packed gates [i, f, g, o].

    The input projection for every row of a packed batch is a single
    matmul; the recurrence then runs over all sequences at once, each
    left to right or, with reverse, right to left.  The forget-gate bias
    starts at +1 so early training does not erase the cell state.
    """

    def __init__(self, store: ParamStore, path: str, in_dim: int, hidden: int):
        self.hidden = hidden
        self.wx = store.glorot(f"{path}.wx", in_dim, 4 * hidden)
        self.wh = store.glorot(f"{path}.wh", hidden, 4 * hidden)
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0
        self.b = store.add(f"{path}.b", b, decay=False)

    def __call__(self, x: Tensor, lengths: Sequence[int] | None = None,
                 reverse: bool = False) -> Tensor:
        xw = ad.matmul(x, self.wx)
        return ad.lstm_sequence(xw, self.wh, self.b, lengths, reverse)


class BiLstm:
    """Stacked bidirectional LSTM; output width is 2 * hidden.  x holds
    sequences of the given lengths back to back (None: one sequence)."""

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
        for fwd, bwd in self.layers:
            out = ad.concat_cols([fwd(out, lengths),
                                  bwd(out, lengths, reverse=True)])
        return out
