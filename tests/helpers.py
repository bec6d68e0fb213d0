"""Small test-side views of library objects that the library itself does not
need."""

import numpy as np


def parameters(net):
    """Live views into ``net.flat``, ordered (W0, b0, W1, b1, ...)."""
    return [p for w, b in zip(net.weights, net.biases) for p in (w, b)]


def n_params(net):
    """Number of scalars over all weight and bias tensors."""
    return sum(p.size for p in parameters(net))


def global_state(env):
    """The concatenated observation that global-state agents act on."""
    return np.concatenate(env.observe())
