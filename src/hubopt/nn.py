"""Dense networks, embeddings, losses, and Adam on plain numpy.

Everything exposes exact reverse-mode gradients so training code can be
checked against central finite differences. Arrays are float64 throughout;
row-vector convention (batch on axis 0).
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import operator
import os
from typing import Sequence

import numpy as np

ACTIVATIONS = ("identity", "relu", "sigmoid", "softmax")

CHECKPOINT_FORMAT = "hubopt-weights"
CHECKPOINT_VERSION = 1

# Adam's moment decay rates and the term that keeps its divisor off zero
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# the rows an Embedded model's predict runs forward on at once; a multiple of 64
PREDICT_ROWS = 1024


class CheckpointError(ValueError):
    """Unreadable, corrupt, or architecturally incompatible checkpoint."""


class NonFiniteGradientError(ValueError):
    """An optimizer update was rejected because a gradient had NaN/Inf entries."""


def act_forward(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "identity":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "sigmoid":
        # clamp to keep exp() in range; the output saturates either way
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))
    if tag == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown activation {tag!r}")


def act_backward(tag: str, out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient wrt pre-activation, given the activation output and its gradient."""
    if tag == "identity":
        return grad_out
    if tag == "relu":
        # a float mask: a bool one is cast to float in the multiply, more slowly
        return grad_out * np.greater(out, 0.0, out=np.empty_like(out))
    if tag == "sigmoid":
        return grad_out * out * (1.0 - out)
    if tag == "softmax":
        inner = (grad_out * out).sum(axis=1, keepdims=True)
        return out * (grad_out - inner)
    raise ValueError(f"unknown activation {tag!r}")


def init_rng(seed: int | None):
    """The generator a model's layers draw their initial values from.

    For seed None it is None, and the layers start at zeros without a draw:
    Module.from_checkpoint builds a model so, as the checkpoint overwrites
    every parameter next.
    """
    return None if seed is None else np.random.default_rng(seed)


def _init_dense(rng: np.random.Generator | None, fan_in: int, fan_out: int):
    if rng is None:
        return np.zeros((fan_in, fan_out)), np.zeros(fan_out)
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=(fan_out,))
    return w, b


class DenseNet:
    """Stack of fully connected layers with per-layer activations."""

    def __init__(
        self, sizes: Sequence[int], activations: Sequence[str], rng: np.random.Generator | None
    ):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if len(activations) != len(sizes) - 1:
            raise ValueError(
                f"got {len(activations)} activations for {len(sizes) - 1} layers"
            )
        for tag in activations:
            if tag not in ACTIVATIONS:
                raise ValueError(f"unknown activation {tag!r}")
        self.sizes = tuple(int(s) for s in sizes)
        self.activations = tuple(activations)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            w, b = _init_dense(rng, fan_in, fan_out)
            self.weights.append(w)
            self.biases.append(b)
        # what backward writes into; a Module rebinds these to views of its grad
        self.grads = [np.zeros_like(p) for p in self.params()]

    def forward(self, x: np.ndarray):
        """Returns (output, cache) for float64 x (n, sizes[0]); cache feeds backward()."""
        cache = []
        a = x
        for w, b, tag in zip(self.weights, self.biases, self.activations):
            z = a @ w
            z += b
            a_next = np.maximum(z, 0.0, out=z) if tag == "relu" else act_forward(tag, z)
            cache.append((a, a_next))
            a = a_next
        return a, cache

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """Returns (param gradients aligned with params(), gradient wrt input).

        The parameter gradients are written into this layer's gradient
        arrays (see bind) and returned as those arrays, so the next backward
        overwrites them. With input_grad False the input gradient is not
        computed and None is returned in its place.
        """
        grad_a = grad_out
        for i in reversed(range(len(self.weights))):
            x_in, a_out = cache[i]
            grad_z = act_backward(self.activations[i], a_out, grad_a)
            np.matmul(x_in.T, grad_z, out=self.grads[2 * i])
            grad_z.sum(axis=0, out=self.grads[2 * i + 1])
            grad_a = grad_z @ self.weights[i].T if i or input_grad else None
        return list(self.grads), grad_a

    def params(self) -> list[np.ndarray]:
        return [a for pair in zip(self.weights, self.biases) for a in pair]

    def param_names(self) -> list[str]:
        """Checkpoint names of params(), before the owning model's prefix."""
        return [f"{k}{i}" for i in range(len(self.weights)) for k in "wb"]

    def bind(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Use arrays and grads, aligned with params(), as this layer's
        parameters and the arrays backward writes their gradients into."""
        self.weights, self.biases = list(arrays[0::2]), list(arrays[1::2])
        self.grads = list(grads)


class EmbeddingTable:
    """Dense lookup table with scatter-add gradients into table_grad."""

    def __init__(self, vocab: int, dim: int, rng: np.random.Generator | None):
        """A vocab x dim table drawn from rng, or zeros for rng None (see init_rng)."""
        if vocab <= 0 or dim <= 0:
            raise ValueError(f"vocab and dim must be positive, got {vocab}, {dim}")
        self.vocab = int(vocab)
        self.dim = int(dim)
        if rng is None:
            self.table = np.zeros((self.vocab, self.dim))
        else:
            bound = 1.0 / np.sqrt(dim)
            self.table = rng.uniform(-bound, bound, size=(self.vocab, self.dim))
        # what grad writes into; a Module rebinds it to a view of its grad
        self.table_grad = np.zeros_like(self.table)

    def lookup(self, idx: np.ndarray) -> np.ndarray:
        """The rows at idx, each in [0, vocab)."""
        return self.table[idx]

    def grad(self, idx: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
        """table_grad, overwritten with the sum of grad_rows[i] over the rows
        idx[i] of the table; rows no index names get zeros.

        One bincount over the flat (row, column) positions adds every element
        in batch order, as np.add.at into zeros does, so the bits are the same.
        """
        at = (np.asarray(idx)[:, None] * self.dim + np.arange(self.dim)).ravel()
        g = self.table_grad
        g[...] = np.bincount(at, weights=grad_rows.ravel(), minlength=g.size).reshape(g.shape)
        return g

    def params(self) -> list[np.ndarray]:
        return [self.table]

    def param_names(self) -> list[str]:
        """The table goes by its owning model's name for it alone."""
        return [""]

    def bind(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        (self.table,) = arrays
        (self.table_grad,) = grads


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements of two float64 arrays of one
    shape; returns (value, grad wrt pred)."""
    diff = pred - target
    # np.mean is this sum and division, behind a slower Python wrapper
    return float(np.add.reduce(diff * diff, axis=None) / diff.size), 2.0 * diff / diff.size


def nll_loss(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log likelihood of the labeled class; grad is wrt probs."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n = probs.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    p = probs[np.arange(n), labels]
    if np.any(p <= 0.0):
        raise ValueError("nll_loss needs strictly positive probabilities")
    value = float(-np.mean(np.log(p)))
    grad = np.zeros_like(probs)
    grad[np.arange(n), labels] = -1.0 / (n * p)
    return value, grad


def _tiled_buffer(arrays: Sequence[np.ndarray], what: str) -> np.ndarray:
    """A flat view of the one float64 buffer that arrays tile, in order.

    A single contiguous array is its own buffer; several arrays must be
    consecutive views of one array, as a Module's params() and the gradients
    its backward returns are. what names the arrays in the error.
    """
    if not arrays:
        raise ValueError(f"Adam needs at least one {what} array")
    owner = arrays[0] if len(arrays) == 1 else arrays[0].base
    tiled = owner is not None and owner.dtype == np.float64 and owner.flags.c_contiguous
    at = arrays[0].ctypes.data
    for a in arrays:
        tiled = (
            tiled
            and (a is owner or a.base is owner)
            and a.dtype == np.float64
            and a.flags.c_contiguous
            and a.ctypes.data == at
        )
        at += a.nbytes
    if not tiled:
        raise ValueError(f"Adam needs {what} that tile one contiguous float64 buffer in order")
    start = (arrays[0].ctypes.data - owner.ctypes.data) // owner.itemsize
    return owner.reshape(-1)[start : start + sum(a.size for a in arrays)]


class Adam:
    """Adam with decoupled weight decay (decay applied to parameters directly).

    The parameters must tile one contiguous buffer, and so must the
    gradients of each step, in the same layout (see _tiled_buffer), as a
    Module's params() and backward() give them. Each step updates the whole
    buffer in one elementwise pass, with the same operations in the same
    order as an array-by-array update, so the bits are the same.
    """

    def __init__(self, params: Sequence[np.ndarray], lr: float = 1e-3, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.params = list(params)
        self.flat = _tiled_buffer(self.params, "parameters")
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        # scratch for the update, reused by every step
        self._work = np.empty_like(self.flat)
        # the last gradient arrays stepped with and the buffer they tile, so
        # that a model's gradient views are checked once, not on every step
        self._grads: list[np.ndarray] = []
        self._grad: np.ndarray | None = None

    def _gradient_buffer(self, grads: Sequence[np.ndarray]) -> np.ndarray:
        """The buffer that grads tile in the parameters' layout."""
        if len(grads) != len(self._grads) or not all(map(operator.is_, grads, self._grads)):
            buffer = _tiled_buffer(grads, "gradients")
            if any(np.shape(g) != p.shape for g, p in zip(grads, self.params)):
                raise ValueError("step needs one gradient of its parameter's shape per parameter")
            self._grads, self._grad = list(grads), buffer
        return self._grad

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        """Update params in place. Rejects the whole update on non-finite grads.

        The step uses the buffer that grads tile as scratch, so the gradients
        are overwritten. A rejected step changes neither the parameters nor
        the optimizer state.
        """
        n = len(self.params)
        if len(params) != n or len(grads) != n:
            raise ValueError(
                f"expected {n} parameter/gradient arrays, "
                f"got {len(params)}/{len(grads)}"
            )
        if not all(map(operator.is_, params, self.params)):
            raise ValueError("step needs the parameter arrays the optimizer was built on")
        g = self._gradient_buffer(grads)
        if not np.isfinite(g).all():
            i = next(i for i, x in enumerate(grads) if not np.isfinite(x).all())
            raise NonFiniteGradientError(
                f"non-finite gradient for parameter {i} with shape {np.shape(grads[i])}"
            )
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, work = self.m, self.v, self._work
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=work)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=g), out=g)
        # update = (m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay * p]
        work = np.sqrt(np.divide(v, bc2, out=work), out=work)
        work += ADAM_EPS
        # m / 1.0 is m exactly, and bc1 rounds to 1.0 after about 350 steps
        update = np.divide(np.divide(m, bc1, out=g) if bc1 != 1.0 else m, work, out=work)
        if self.weight_decay:
            update += np.multiply(self.weight_decay, self.flat, out=g)
        update *= self.lr
        self.flat -= update
        if not np.isfinite(self.flat).all():
            raise NonFiniteGradientError(
                "parameters became non-finite after an Adam update"
            )


# -- checkpoint container ------------------------------------------------------


def _payload_digest(arrays: dict[str, np.ndarray], meta: dict) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
    for name in arrays:
        arr = arrays[name]
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def save_weights(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write a versioned, checksummed weight container (JSON + base64 float64)."""
    meta = dict(meta or {})
    entries = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "data": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        )
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": meta,
        "arrays": entries,
        "checksum": _payload_digest(arrays, meta),
    }
    with _replacing(path) as fh:
        json.dump(doc, fh)


@contextlib.contextmanager
def _replacing(path: str):
    """Write a text file aside, at `<path>.tmp`, and rename it over path.

    A failed or killed write leaves any earlier file at path whole, and a
    failed one leaves no temp file behind. Newlines are written as given.
    The parent directory is created if it does not exist.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_weights(path: str):
    """Read a weight container; returns (arrays dict, meta dict).

    Raises CheckpointError for truncation, checksum mismatch, version skew or a NaN or inf.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path} is not a readable checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} container")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has container version {doc.get('version')}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    arrays: dict[str, np.ndarray] = {}
    try:
        for entry in doc["arrays"]:
            raw = base64.b64decode(entry["data"].encode("ascii"))
            arr = np.frombuffer(raw, dtype=np.float64).reshape(entry["shape"]).copy()
            arrays[entry["name"]] = arr
        meta = doc["meta"]
        stored = doc["checksum"]
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(f"{path} has a malformed payload: {exc}") from exc
    if _payload_digest(arrays, meta) != stored:
        raise CheckpointError(f"{path} failed its checksum; file corrupt or edited")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name!r} holds non-finite values")
    return arrays, meta


# -- models ---------------------------------------------------------------------


class Module:
    """A model whose parameters are views into one contiguous float64 buffer.

    A subclass builds its layers, then passes them to Module.__init__ in
    params() order, each with its checkpoint name prefix; it names its
    constructor arguments that a checkpoint records in META, draws its
    initial parameters from init_rng(seed) for its seed argument, and
    defines forward and backward. The buffer is `flat`: an optimizer or a rollback
    can treat the whole model as one array. `grad` is laid out like `flat`,
    and each layer's backward writes its gradients into views of it, so
    backward returns views of `grad` that the next backward, and the Adam
    step that reads them, overwrite.
    """

    KIND = ""
    META: tuple[str, ...] = ()

    def __init__(self, layers):
        self.flat = np.concatenate([p.ravel() for _, layer in layers for p in layer.params()])
        self.grad = np.zeros_like(self.flat)
        self._names: list[str] = []
        self._params: list[np.ndarray] = []
        self._grads: list[np.ndarray] = []
        offset = 0
        for prefix, layer in layers:
            views, grads = [], []
            for p in layer.params():
                views.append(self.flat[offset : offset + p.size].reshape(p.shape))
                grads.append(self.grad[offset : offset + p.size].reshape(p.shape))
                offset += p.size
            layer.bind(views, grads)
            self._names += [prefix + name for name in layer.param_names()]
            self._params += views
            self._grads += grads

    def params(self) -> list[np.ndarray]:
        return list(self._params)

    def grads(self) -> list[np.ndarray]:
        """The views of `grad` aligned with params(), as backward returns them."""
        return list(self._grads)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return dict(zip(self._names, self._params))

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy checkpoint arrays into the parameters; nothing changes on error."""
        for name, target in zip(self._names, self._params):
            if name not in arrays:
                raise CheckpointError(f"checkpoint missing array {name!r}")
            if arrays[name].shape != target.shape:
                raise CheckpointError(
                    f"array {name!r}: model expects shape {target.shape}, "
                    f"checkpoint has {arrays[name].shape}"
                )
        for name, target in zip(self._names, self._params):
            target[...] = arrays[name]

    def save(self, path: str) -> None:
        meta = {"kind": self.KIND, **{key: getattr(self, key) for key in self.META}}
        save_weights(path, self.state_arrays(), meta)

    @classmethod
    def from_checkpoint(cls, path: str):
        arrays, meta = load_weights(path)
        if meta.get("kind") != cls.KIND:
            raise CheckpointError(f"{path} holds a {meta.get('kind')!r}, expected {cls.KIND!r}")
        for key in cls.META:
            if key not in meta:
                raise CheckpointError(f"{path} records no {key} in its meta")
            # save writes each META value as an int or a list of ints
            value = meta[key]
            if not all(type(v) is int for v in (value if isinstance(value, list) else [value])):
                raise CheckpointError(
                    f"{path} records {key} as {value!r}, not an integer or a list of integers"
                )
        args = {key: meta[key] for key in cls.META}
        try:
            model = cls(**args, seed=None)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path} records an unusable architecture {args}: {exc}") from exc
        model.load_state(arrays)
        return model


class Embedded(Module):
    """A model whose input is each row's station and slot embedding, side by side.

    The constructor records the META fields, then draws from init_rng(seed)
    the two tables and, after them, the layers the subclass's _layers(rng)
    builds and returns with their checkpoint prefixes. The subclass's
    forward feeds _embed's output to its network, and its backward hands the
    network's input gradient to _embed_grads.
    """

    META = ("n_stations", "n_slots", "embed_dim", "hidden")

    def __init__(
        self,
        n_stations: int,
        n_slots: int = 24,
        embed_dim: int = 16,
        hidden: Sequence[int] = (64, 32),
        seed: int | None = 0,
    ):
        rng = init_rng(seed)
        self.n_stations = int(n_stations)
        self.n_slots = int(n_slots)
        self.embed_dim = int(embed_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.emb_station = EmbeddingTable(self.n_stations, self.embed_dim, rng)
        self.emb_slot = EmbeddingTable(self.n_slots, self.embed_dim, rng)
        tables = [("emb_station", self.emb_station), ("emb_slot", self.emb_slot)]
        super().__init__(tables + self._layers(rng))

    def _embed(self, stations, slots):
        """The (n, 2 * embed_dim) network input, and the row indices for _embed_grads."""
        rows = (np.asarray(stations), np.asarray(slots))
        x = np.concatenate(
            [self.emb_station.lookup(rows[0]), self.emb_slot.lookup(rows[1])], axis=1
        )
        return x, rows

    def predict(self, stations, slots):
        """forward's outputs without its cache: an array, or a tuple for several heads.

        forward runs on blocks of PREDICT_ROWS rows, so memory is bounded by the
        block, not the row count. A row's BLAS bits depend on its place in the
        kernel's tile and a one-row product takes another path, so blocks start
        at multiples of PREDICT_ROWS and a one-row tail joins the block before
        it: the outputs equal one whole-array forward's bit for bit, unless the
        whole array is large enough for BLAS to pick another kernel.
        """
        n, lo, outputs = len(stations), 0, None
        for hi in [*range(PREDICT_ROWS, n - 1, PREDICT_ROWS), n]:
            block = self.forward(stations[lo:hi], slots[lo:hi])[:-1]  # the cache goes now
            if outputs is None:
                outputs = [np.empty((n, *b.shape[1:]), b.dtype) for b in block]
            for out, b in zip(outputs, block):
                out[lo:hi] = b
            lo = hi
        return outputs[0] if len(outputs) == 1 else tuple(outputs)

    def _embed_grads(self, rows, grad_x: np.ndarray) -> list[np.ndarray]:
        """The two tables' gradients, given the gradient wrt _embed's output."""
        (stations, slots), d = rows, self.embed_dim
        g_station = self.emb_station.grad(stations, grad_x[:, :d])
        return [g_station, self.emb_slot.grad(slots, grad_x[:, d:])]


class EmbedMlp(Embedded):
    """Station/slot embedding scorer: concatenated embeddings -> ReLU MLP -> sigmoid.

    The shape shared by the outcome regressions and the propensity
    classifier; one scalar output in (0, 1) per (station, slot) pair.
    """

    KIND = "embed_mlp"

    def _layers(self, rng):
        sizes = [2 * self.embed_dim, *self.hidden, 1]
        acts = ["relu"] * len(self.hidden) + ["sigmoid"]
        self.net = DenseNet(sizes, acts, rng)
        return [("net.", self.net)]

    def forward(self, stations: np.ndarray, slots: np.ndarray):
        x, rows = self._embed(stations, slots)
        out, net_cache = self.net.forward(x)
        return out[:, 0], (rows, net_cache)

    def backward(self, cache, grad_out: np.ndarray) -> list[np.ndarray]:
        rows, net_cache = cache
        net_grads, grad_x = self.net.backward(net_cache, np.asarray(grad_out)[:, None])
        return self._embed_grads(rows, grad_x) + net_grads


def fit_embed_mlp(
    model: Embedded,
    stations: np.ndarray,
    slots: np.ndarray,
    loss,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    weight_decay: float,
    rng: np.random.Generator,
) -> list[float]:
    """Train an Embedded model by minibatch Adam; returns the per-epoch mean loss.

    Each epoch visits the rows of the stations and slots arrays in the order
    of one rng.permutation, batch_size rows at a time. For a batch of row
    indices idx, model.forward(stations[idx], slots[idx]) gives
    (*outputs, cache), and loss(idx, *outputs) gives the batch's mean loss
    and then its gradient wrt each output, which model.backward takes after
    the cache.
    """
    n = len(stations)
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    adam = Adam(model.params(), lr=lr, weight_decay=weight_decay)
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            *outputs, cache = model.forward(stations[idx], slots[idx])
            value, *grads = loss(idx, *outputs)
            adam.step(model.params(), model.backward(cache, *grads))
            total += value * len(idx)
        history.append(total / n)
    return history
