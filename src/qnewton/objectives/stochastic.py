"""Mini-batch scaled Griewank: f(x, xi) = Griewank(xi x), xi ~ N(1, sigma^2).

Each optimization step draws its own batch of xi, and ``make_batch`` turns
it into a deterministic Objective: the batch average with closed-form
derivatives.  Draws are keyed by (seed, step, sample) through Philox, so
sample i of step k is the same number no matter how many samples are drawn,
in what order, or on which thread: a configuration re-runs bit for bit.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInputError
from ..fixtures import STOCHASTIC_GRIEWANK_DIM, STOCHASTIC_GRIEWANK_SEED
from .base import Objective, as_integer
from .catalog import _exclusion_products


@dataclass(frozen=True)
class StochasticObjective:
    """F(x) = E_xi f(x, xi) of scaled Griewank, optimized by batch averages."""

    dim: int
    batch_size: int
    rng_seed: int
    sigma: float
    name: str = ""

    def sample_xi(self, step_index):
        """Step ``step_index``'s batch: xi_i = 1 + sigma * z_i, where z_i is
        the first normal of Philox(key=seed, counter=[0, 0, step_index, i]).
        """
        bits = np.random.Philox(key=self.rng_seed & (2 ** 64 - 1))
        gen = np.random.Generator(bits)
        state = bits.state               # fresh: empty buffer, zero counter
        counter = state["state"]["counter"]
        counter[2] = step_index
        z = np.empty(self.batch_size)
        for i in range(self.batch_size):
            counter[3] = i
            bits.state = state
            z[i] = gen.standard_normal()
        return 1.0 + self.sigma * z

    @cached_property
    def _pair_blocks(self):
        # the Hessian's pairs a < b with their other n - 2 columns, ascending,
        # in blocks whose gather and terms hold at most 2**20 floats (8 MB)
        a, b = np.triu_indices(self.dim, 1)
        cols = np.arange(max(self.dim - 2, 0))
        others = cols + (cols >= a[:, None])
        others += others >= b[:, None]
        size = max(1, (1 << 20) // (cols.size + 1) // self.batch_size)
        return [(a[i:i + size], b[i:i + size], others[i:i + size])
                for i in range(0, a.size, size)]

    def make_batch(self, xi):
        """The deterministic batch average over the scales ``xi``."""
        xi = np.asarray(xi, dtype=float)
        m2 = float(np.mean(xi * xi))
        idx = np.arange(1, self.dim + 1, dtype=float)
        rs = np.sqrt(idx)

        def trig(x):
            U = np.outer(xi, x / rs)     # (batch, dim)
            return np.cos(U), np.sin(U)

        def value(x):
            C, _ = trig(x)
            return float(1.0 + m2 * x.dot(x) / 4000.0
                         - np.mean(np.prod(C, axis=1)))

        def grad(x):
            C, S = trig(x)
            E = _exclusion_products(C)
            return m2 * x / 2000.0 \
                + np.mean(xi[:, None] * S * E, axis=0) / rs

        def hess(x):
            C, S = trig(x)
            P = np.prod(C, axis=1)
            H = np.empty((self.dim, self.dim))
            xi2 = xi * xi
            Ct, St = np.ascontiguousarray(C.T), S.T
            for a, b, others in self._pair_blocks:
                # C-ordered (pairs, batch): each mean is a row's 1-d sum
                T = np.empty((a.size, xi.size))
                np.prod(Ct[others], axis=1, out=T)
                T *= xi2 * St[a] * St[b]
                H[a, b] = H[b, a] = -np.mean(T, axis=1) / (rs[a] * rs[b])
            np.fill_diagonal(H, m2 / 2000.0 + float(np.mean(xi2 * P)) / idx)
            return H

        return Objective(self.dim, value, grad, hess, name=self.name)


def sample_batch_objective(s, step_index):
    """The deterministic batch average F_n for one step's draw."""
    return s.make_batch(s.sample_xi(step_index))


def make_stochastic_griewank(dim=STOCHASTIC_GRIEWANK_DIM, batch_size=500,
                             sigma=float(np.sqrt(0.1)),
                             seed=STOCHASTIC_GRIEWANK_SEED):
    """Griewank with a random scalar scale xi ~ N(1, sigma^2) per sample.

    The batch average keeps closed-form derivatives: every sample is a
    Griewank evaluated at xi*x, so gradients/Hessians vectorize over the
    batch dimension.
    """
    dim = as_integer(dim, "dim")
    batch_size = as_integer(batch_size, "batch_size")
    seed = as_integer(seed, "seed")
    if dim < 1 or batch_size < 1:
        raise InvalidInputError("dim and batch_size must be positive")
    return StochasticObjective(dim=dim, batch_size=batch_size, rng_seed=seed,
                               sigma=float(sigma),
                               name=f"stochastic-griewank-{dim}")
