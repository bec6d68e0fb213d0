"""Dense networks, Adam, stochastic policy heads, the special functions
of the Beta head and the allocator limits their temporaries need.

Everything is float64 numpy with hand-written reverse-mode gradients; there
is deliberately no autograd framework underneath.  Two policy heads cover
every action space used here: ``CategoricalHead``, one or more categorical
segments over consecutive logits, and ``BetaHead``, a per-coordinate Beta on
(0,1) with both shape parameters >= 1.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatch(ValueError):
    pass


class NonFiniteInput(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class NonFiniteGradient(ValueError):
    pass


class NonFiniteParams(ValueError):
    pass


class CheckpointMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# allocator limits
# ---------------------------------------------------------------------------
# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def keep_freed_heap():
    """Keeps freed NumPy temporaries in the process heap (Linux/glibc).

    glibc serves each block of 128 KiB or more by its own ``mmap`` and
    hands it back on ``free``, and trims free heap above a limit that
    follows that threshold, so every 256-wide batch temporary is faulted
    in afresh on the next update.  This raises the mmap threshold to
    32 MiB and the trim limit to 64 MiB for the whole process; both are
    needed, since either alone still returns the memory.  It also caps
    malloc at one arena.  glibc would otherwise give each thread that
    allocates, an update pool worker included, an arena of its own that
    keeps that thread's freed memory apart; with one arena the pool
    threads reuse the one retained heap.  Results are unchanged.
    Elsewhere (not Linux, or a C library without ``mallopt``) it does
    nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


# ---------------------------------------------------------------------------
# dense net
# ---------------------------------------------------------------------------


def _layer_spans(layer_dims) -> tuple:
    """(weight start, bias start, bias end, weight shape) of each layer in
    the flat parameter vector; at least two dims, each at least 1."""
    if len(layer_dims) < 2 or min(layer_dims) < 1:
        raise DimensionMismatch(f"bad layer dims {layer_dims}")
    spans = []
    offset = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        mid = offset + fan_out * fan_in
        spans.append((offset, mid, mid + fan_out, (fan_out, fan_in)))
        offset = mid + fan_out
    return tuple(spans)


class DenseNet:
    """Fully connected ReLU net with a linear output layer.

    layer_dims = (in, h1, ..., out).  Weights init uniform over
    +-sqrt(6/(fan_in+fan_out)), biases zero; without an rng every parameter
    is zero.  All parameters live in one contiguous float64 vector ``flat``,
    laid out row-major as (W0, b0, W1, b1, ...), each W (fan_out, fan_in);
    ``layer_views`` splits it.
    """

    def __init__(self, layer_dims, rng: np.random.Generator | None = None):
        self.layer_dims = tuple(int(d) for d in layer_dims)
        self._spans = _layer_spans(self.layer_dims)
        self._bind(np.zeros(self._spans[-1][2]))
        if rng is not None:
            for w, _ in self.layer_views(self.flat):
                fan_out, fan_in = w.shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                w[...] = rng.uniform(-limit, limit, size=w.shape)

    @classmethod
    def stack(cls, nets):
        """Nets of one shape as one whose ``flat`` is (G, P); it maps
        (G, n, in) to (G, n, out) by one BLAS call per member.  Each of
        ``nets`` is rebound to its row, so the two share memory from then."""
        net = copy.copy(nets[0])
        net._bind(np.stack([member.flat for member in nets]))
        for member, row in zip(nets, net.flat):
            member._bind(row)
        return net

    def _bind(self, flat):
        self.flat = flat
        # (W.T, b) views for the forward pass: ReLU layers, then the output;
        # a stacked bias broadcasts over each member's rows
        *self._relu_layers, self._output_layer = [
            (w.swapaxes(-1, -2), b if flat.ndim == 1 else b[:, None, :])
            for w, b in self.layer_views(flat)]

    def _prep(self, x):
        x = np.asarray(x, dtype=np.float64)
        if (x.shape[-1:] != self.layer_dims[:1]
                or x.shape[:-2] != self.flat.shape[:-1]):
            raise DimensionMismatch(f"input shape {x.shape} incompatible "
                                    f"with input width {self.layer_dims[0]}")
        if not np.isfinite(x).all():
            raise NonFiniteInput("non-finite network input")
        return x

    def forward(self, x):
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x):
        """Returns (output, cache) with activations kept for backward().

        A 1-D input is one row and gives a 1-D output, with the same bits
        as the row of a 1-row batch: NumPy computes either ``h @ W.T`` as
        one matrix-vector product.
        """
        h = self._prep(x)
        acts = [h]
        for w_t, b in self._relu_layers:
            h = h @ w_t
            h += b
            np.maximum(h, 0.0, out=h)
            acts.append(h)
        w_t, b = self._output_layer
        h = h @ w_t
        h += b
        acts.append(h)
        return h, acts

    def backward(self, cache, output_gradient):
        """Gradient of sum(output * output_gradient) w.r.t. ``flat``.

        ``cache`` comes from a forward pass over a batch of rows, or over
        a stack of such batches.  Returns one vector laid out like
        ``flat``, summed over the batch dimension; ``layer_views`` splits
        it into (dW, db) per layer.
        """
        acts = cache
        g = np.asarray(output_gradient, dtype=np.float64)
        if g.shape != acts[-1].shape:
            raise ShapeMismatch(
                f"output gradient {g.shape} vs output {acts[-1].shape}")
        grad = np.empty_like(self.flat)
        layers = self.layer_views(self.flat)
        for l, (dw, db) in reversed(list(enumerate(self.layer_views(grad)))):
            np.matmul(g.swapaxes(-1, -2), acts[l], out=dw)
            g.sum(axis=-2, out=db)
            if l > 0:
                g = (g @ layers[l][0]) * (acts[l] > 0.0)
        return grad

    # -- parameter plumbing ------------------------------------------------

    def layer_views(self, vec):
        """[(W0, b0), (W1, b1), ...] as views into a vector laid out like
        ``flat``; a stack axis of ``vec`` leads each view."""
        lead = vec.shape[:-1]
        return [(vec[..., lo:mid].reshape(lead + shape), vec[..., mid:hi])
                for lo, mid, hi, shape in self._spans]

    # -- serialization -------------------------------------------------------
    # flat binary record: magic, version, layer dims, then parameters
    # row-major as little-endian float64.

    MAGIC = b"DGNT"
    VERSION = 1

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sHHI", self.MAGIC, self.VERSION, 0,
                           len(self.layer_dims))
        dims = struct.pack(f"<{len(self.layer_dims)}I", *self.layer_dims)
        return head + dims + np.asarray(self.flat, dtype="<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0):
        """Reads one record; returns (net, next_offset)."""
        try:
            magic, version, _, ndims = struct.unpack_from("<4sHHI", data, offset)
        except struct.error as e:
            raise CheckpointMismatch(f"truncated header: {e}") from None
        if magic != cls.MAGIC:
            raise CheckpointMismatch(f"bad magic {magic!r}")
        if version != cls.VERSION:
            raise CheckpointMismatch(f"unsupported version {version}")
        offset += struct.calcsize("<4sHHI")
        try:
            dims = struct.unpack_from(f"<{ndims}I", data, offset)
        except struct.error as e:
            raise CheckpointMismatch(f"truncated dims: {e}") from None
        offset += 4 * ndims
        count = _layer_spans(dims)[-1][2]
        end = offset + 8 * count
        if end > len(data):
            raise CheckpointMismatch("truncated parameter block")
        net = cls(dims)
        net.flat[...] = np.frombuffer(data, dtype="<f8", count=count,
                                      offset=offset)
        return net, end


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Adam's decay rates and denominator epsilon
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Optimizer moments for one net, laid out like its ``flat`` vector."""

    def __init__(self, net: DenseNet, learning_rate: float):
        self.learning_rate = learning_rate
        self.step = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)


def adam_step(state: AdamState, params, grad):
    """One in-place Adam update of the flat parameter vector ``params``.

    Elementwise this is the textbook update in its usual op order
    (m, v, bias-corrected m_hat / (sqrt(v_hat) + eps)), so it is bit for
    bit the same as a per-tensor loop over the same values, or over the
    members of a stack.
    """
    if params.shape != state.m.shape or grad.shape != state.m.shape:
        raise ShapeMismatch(f"grad {grad.shape} for params {params.shape} "
                            f"with optimizer state {state.m.shape}")
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("non-finite gradient")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_B1, ADAM_B2
    m, v = state.m, state.v
    tmp = grad * (1.0 - b1)
    m *= b1
    m += tmp
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    v *= b2
    v += tmp
    # tmp becomes sqrt(v_hat) + eps, upd becomes lr * m_hat / tmp
    np.divide(v, 1.0 - b2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    upd = m / (1.0 - b1 ** t)
    upd *= state.learning_rate
    upd /= tmp
    params -= upd


# ---------------------------------------------------------------------------
# special functions of the Beta head, for arguments >= 1
# ---------------------------------------------------------------------------
# Each argument x is shifted to z = x + _SHIFT >= 9 by the recurrences
# psi(x) = psi(x+1) - 1/x, psi1(x) = psi1(x+1) + 1/x**2 and
# lnGamma(x) = lnGamma(x+1) - ln(x); the asymptotic series then run at z with
# Bernoulli terms to z**-14 (z**-15 for psi1), whose first omitted term is
# below 5e-16 at z = 9.

_SHIFT = 8.0
_STEPS = np.arange(_SHIFT)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# coefficients of w = z**-2, from w**0 up
_PSI_SERIES = (-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760,
               -1 / 12)
_PSI1_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                    -691 / 360360, 1 / 156)


def _series(w, coeffs):
    """sum(c * w**k for k, c in enumerate(coeffs)), by Horner's rule."""
    out = coeffs[-1] * w
    for c in coeffs[-2:0:-1]:
        out += c
        out *= w
    return out + coeffs[0]


def _shifted(x):
    """x + k for k = 0 .. _SHIFT - 1, along a new last axis."""
    return x[..., None] + _STEPS


def digamma(x):
    """psi(x) = d lnGamma(x) / dx, elementwise for x >= 1."""
    x = np.asarray(x, dtype=np.float64)
    z = x + _SHIFT
    w = 1.0 / (z * z)
    return (np.log(z) - 0.5 / z + w * _series(w, _PSI_SERIES)
            - np.sum(1.0 / _shifted(x), axis=-1))


def trigamma(x):
    """psi1(x) = d psi(x) / dx, elementwise for x >= 1."""
    x = np.asarray(x, dtype=np.float64)
    r = 1.0 / (x + _SHIFT)
    w = r * r
    return (r + 0.5 * w + w * r * _series(w, _PSI1_SERIES)
            + np.sum(1.0 / _shifted(x) ** 2, axis=-1))


def _stirling(z):
    """lnGamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)."""
    r = 1.0 / z
    return r * _series(r * r, _STIRLING_SERIES)


def betaln(a, b):
    """ln B(a, b) = lnGamma(a) + lnGamma(b) - lnGamma(a+b), elementwise for
    a, b >= 1.

    Each lnGamma is Stirling's series at its shifted argument: p and q for
    the larger and the smaller shape, r for a + b.  The large terms of p and
    r combine into (p - 1/2) ln(p/r) - small ln(r), and ln(p/r) is taken as
    log1p(-small/r), which keeps its precision when a and b are far apart;
    the linear terms -p - q + r sum to -_SHIFT.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    small = np.minimum(a, b)
    p = np.maximum(a, b) + _SHIFT
    q = small + _SHIFT
    r = a + b + _SHIFT
    stirling = _stirling(np.stack((p, q, r)))
    # undoes the three shifts: prod_k (a+b+k) / ((a+k) (b+k))
    shifts = np.log(np.prod(_shifted(a + b) / (_shifted(a) * _shifted(b)),
                            axis=-1))
    return ((p - 0.5) * np.log1p(-small / r) - small * np.log(r)
            + (q - 0.5) * np.log(q) + (_HALF_LOG_2PI - _SHIFT)
            + stirling[0] + stirling[1] - stirling[2] + shifts)


# ---------------------------------------------------------------------------
# policy heads
# ---------------------------------------------------------------------------


# A padded block of rows may be narrower than this, or else hold rows of one
# size: NumPy sums fewer than 8 values in order and 8 or more pairwise, so
# padding a row of 4 to 7 logits to 8 or more cells can change its sum.
_IN_ORDER_SUM = 8


@dataclass(frozen=True)
class CategoricalHead:
    """One categorical segment per entry of ``sizes``.

    A net's outputs hold the segments' logits one after another
    (``bounds``), as ``categorical_stats`` reads them.
    ``sample_and_logprob`` and ``frozen_action`` read them one segment per
    row of a padded (segments, max size) array instead: each row's logits
    from the left, ``-inf`` after.  An action is one int per segment;
    log-probs and entropies add across segments, logit gradients
    concatenate.
    """

    sizes: tuple
    # (lo, hi) logit slice of each segment
    bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or min(sizes) < 1:
            raise DimensionMismatch(f"bad segment sizes {sizes}")
        ends = np.cumsum(sizes).tolist()
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "bounds",
                           tuple(zip([0] + ends[:-1], ends)))

    @functools.cached_property
    def real(self):
        """The padded rows' logit cells, a boolean (segments, max size)
        mask."""
        width = max(self.sizes)
        return np.array([[c < size for c in range(width)]
                         for size in self.sizes])

    @functools.cached_property
    def blocks(self):
        """(rows, width, row positions, last index of each row) of each
        block of rows that one log-softmax pads to a common width: the rows
        narrower than _IN_ORDER_SUM, then the wider ones, one block per
        size.  Built in Python: a NumPy kernel's first run costs RSS."""
        keys = [0 if size < _IN_ORDER_SUM else size for size in self.sizes]
        blocks = []
        for key in sorted(set(keys)):
            rows = [r for r, k in enumerate(keys) if k == key]
            widths = [self.sizes[r] for r in rows]
            at = np.array(range(len(rows)))
            last = np.array([w - 1 for w in widths])
            rows = (slice(rows[0], rows[-1] + 1)
                    if rows[-1] - rows[0] == len(rows) - 1 else np.array(rows))
            blocks.append((rows, max(widths), at, last))
        return tuple(blocks)

    @property
    def param_dim(self):
        return self.bounds[-1][1]

    def empty_actions(self, *lead):
        return np.zeros((*lead, len(self.sizes)), dtype=int)


@dataclass(frozen=True)
class BetaHead:
    """dim independent Beta coordinates on (0,1).

    The raw parameter vector is (alpha raws, beta raws); each shape parameter
    is 1 + softplus(raw), so both stay >= 1 and densities stay bounded.
    """

    dim: int

    @property
    def param_dim(self):
        return 2 * self.dim

    @property
    def bounds(self):
        """One padded row, which holds all raw parameters."""
        return ((0, self.param_dim),)

    def empty_actions(self, *lead):
        return np.zeros((*lead, self.dim))


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def beta_shapes(head: BetaHead, params):
    params = np.asarray(params, dtype=np.float64)
    if params.shape[-1] != head.param_dim:
        raise DimensionMismatch(
            f"{params.shape[-1]} raw params for BetaHead(dim={head.dim})")
    alpha = 1.0 + _softplus(params[..., :head.dim])
    beta = 1.0 + _softplus(params[..., head.dim:])
    return alpha, beta


_X_EDGE = 1e-12  # keep samples strictly inside (0,1)


def _check_params(params):
    if not np.isfinite(params).all():
        raise NonFiniteParams("non-finite head parameters")


def _check_rows(head, params):
    """Refuses rows that ``head`` cannot read, or a non-finite logit or raw
    parameter; a categorical head's padding is not checked."""
    if isinstance(head, CategoricalHead):
        if params.shape != head.real.shape:
            raise DimensionMismatch(f"padded logits {params.shape} for "
                                    f"segments {head.sizes}")
        _check_params(params[head.real])
    elif isinstance(head, BetaHead):
        if params.ndim != 2 or params.shape[1] != head.param_dim:
            raise DimensionMismatch(f"raw params {params.shape} for "
                                    f"BetaHead(dim={head.dim})")
        _check_params(params)
    else:
        raise TypeError(f"unknown head {head!r}")


def sample_and_logprob(head, params, rngs):
    """Draws one action per row of ``params``, row r's from ``rngs[r]``, in
    row order; returns (actions, log_probs), one of each per row.

    A categorical head's rows are its padded segments (see
    ``CategoricalHead``), and each row's action is an int.  Each block of
    rows takes one log-softmax, one cumsum and one search for the first
    cumulative probability past each row's uniform draw, so every row gets
    the bits of its own segment sampled alone.  A Beta head's rows are raw
    parameter vectors, and each row's action a (dim,) vector.
    """
    params = np.asarray(params, dtype=np.float64)
    _check_rows(head, params)
    if isinstance(head, CategoricalHead):
        u = np.array([rng.random() for rng in rngs])
        actions = np.empty(len(u), dtype=int)
        log_probs = np.empty(len(u))
        for rows, width, at, last in head.blocks:
            block = params[rows, :width]
            m = block.max(axis=1, keepdims=True)
            logp_all = block - (m + np.log(np.exp(block - m).sum(
                axis=1, keepdims=True)))
            # the first cell whose cumulative probability passes the draw;
            # the last logit takes a draw that rounding left above the sum
            cum = np.exp(logp_all).cumsum(axis=1)
            cum[at, last] = np.inf
            taken = (cum > u[rows, None]).argmax(axis=1)
            actions[rows] = taken
            log_probs[rows] = logp_all[at, taken]
        return actions, log_probs
    alpha, beta = beta_shapes(head, params)
    x = np.clip([rng.beta(a, b) for rng, a, b in zip(rngs, alpha, beta)],
                _X_EDGE, 1.0 - _X_EDGE)
    log_probs = np.sum((alpha - 1.0) * np.log(x)
                       + (beta - 1.0) * np.log1p(-x) - betaln(alpha, beta),
                       axis=-1)
    return x, log_probs


def frozen_action(head, params):
    """Deterministic action for evaluation, one per row of ``params`` as
    ``sample_and_logprob`` reads them: each row's argmax (the first index
    of a tie) as an int array, or each row's Beta mean."""
    params = np.asarray(params, dtype=np.float64)
    _check_rows(head, params)
    if isinstance(head, CategoricalHead):
        # a padding cell, -inf, never beats a finite logit
        return params.argmax(axis=1)
    alpha, beta = beta_shapes(head, params)
    return alpha / (alpha + beta)


def categorical_stats(head: CategoricalHead, logits, actions):
    """Batched log-prob/entropy and their logit gradients.

    logits (N, param_dim), actions (N, segments) ints.  Returns (logp (N,),
    entropy (N,), dlogp (N, param_dim), dentropy (N, param_dim)).
    """
    logits = np.asarray(logits, dtype=np.float64)
    actions = np.asarray(actions)
    idx = np.arange(logits.shape[0])
    logp = entropy = 0.0
    dlogp = np.empty_like(logits)
    dentropy = np.empty_like(logits)
    for k, (lo, hi) in enumerate(head.bounds):
        seg = logits[:, lo:hi]
        a = actions[:, k]
        m = seg.max(axis=1, keepdims=True)
        logp_all = seg - (m + np.log(np.exp(seg - m).sum(axis=1,
                                                           keepdims=True)))
        p = np.exp(logp_all)
        ent = -(p * logp_all).sum(axis=1)
        logp = logp + logp_all[idx, a]
        entropy = entropy + ent
        dl = dlogp[:, lo:hi]
        np.negative(p, out=dl)
        dl[idx, a] += 1.0
        np.multiply(-p, logp_all + ent[:, None], out=dentropy[:, lo:hi])
    return logp, entropy, dlogp, dentropy


def beta_stats(head: BetaHead, raw, actions):
    """Batched Beta log-prob/entropy and gradients w.r.t. the raw params.

    raw (N, 2*dim), actions (N, dim) in (0,1).
    """
    raw = np.asarray(raw, dtype=np.float64)
    x = np.clip(np.asarray(actions, dtype=np.float64), _X_EDGE, 1.0 - _X_EDGE)
    alpha, beta = beta_shapes(head, raw)
    s = alpha + beta
    log_x = np.log(x)
    log_1mx = np.log1p(-x)

    ln_b = betaln(alpha, beta)
    shapes = np.stack((alpha, beta, s))
    psi_a, psi_b, psi_s = digamma(shapes)
    tri_a, tri_b, tri_s = trigamma(shapes)

    logp = np.sum((alpha - 1.0) * log_x + (beta - 1.0) * log_1mx - ln_b,
                  axis=1)
    entropy = np.sum(ln_b - (alpha - 1.0) * psi_a - (beta - 1.0) * psi_b
                     + (s - 2.0) * psi_s, axis=1)

    dlogp_da = log_x - psi_a + psi_s
    dlogp_db = log_1mx - psi_b + psi_s
    dent_da = -(alpha - 1.0) * tri_a + (s - 2.0) * tri_s
    dent_db = -(beta - 1.0) * tri_b + (s - 2.0) * tri_s

    # chain through alpha = 1 + softplus(raw_a), beta = 1 + softplus(raw_b)
    sig_a = _sigmoid(raw[:, :head.dim])
    sig_b = _sigmoid(raw[:, head.dim:])
    dlogp = np.concatenate([dlogp_da * sig_a, dlogp_db * sig_b], axis=1)
    dentropy = np.concatenate([dent_da * sig_a, dent_db * sig_b], axis=1)
    return logp, entropy, dlogp, dentropy
