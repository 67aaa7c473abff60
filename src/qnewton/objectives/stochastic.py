"""Mini-batch objectives: averages of a parametric instance f(x, xi).

Each optimization step draws its own batch of scalar parameters xi, and
the family's ``make_batch`` turns that batch into a deterministic
Objective: the batch average with its own closed-form derivatives.  Draws
are keyed counter-style (seed, step_index, sample_index) through Philox, so
sample i of step k is the same number no matter how many samples are drawn,
in what order, or on which thread — re-running a configuration is bitwise
reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from ..fixtures import STOCHASTIC_GRIEWANK_DIM, STOCHASTIC_GRIEWANK_SEED
from .base import Objective, as_integer
from .catalog import _exclusion_products


def _philox_normal(seed, step_index, sample_index):
    bits = np.random.Philox(key=int(seed) & (2 ** 64 - 1),
                            counter=[0, 0, int(step_index), int(sample_index)])
    return float(np.random.Generator(bits).standard_normal())


def normal_sampler(mean=1.0, sigma=0.0):
    """Per-sample N(mean, sigma^2) draws keyed by (seed, step, sample)."""

    def sampler(seed, step_index, count):
        return np.array([mean + sigma * _philox_normal(seed, step_index, i)
                         for i in range(count)])

    return sampler


@dataclass(frozen=True)
class StochasticObjective:
    """A family F(x) = E_xi f(x, xi), optimized through batch averages."""

    dim: int
    batch_size: int
    rng_seed: int
    sampler: object                  # sampler(seed, step_index, count) -> xi
    make_batch: object               # make_batch(xi) -> Objective
    name: str = ""

    def sample_xi(self, step_index):
        return self.sampler(self.rng_seed, step_index, self.batch_size)


def sample_batch_objective(s, step_index):
    """The deterministic batch average F_n for one step's draw."""
    return s.make_batch(s.sample_xi(step_index))


# --------------------------------------------------------------------------
# scaled Griewank family: f(x, xi) = 1 + |xi x|^2/4000 - prod cos(x_i xi / sqrt(i))
# --------------------------------------------------------------------------

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
    idx = np.arange(1, dim + 1, dtype=float)
    rs = np.sqrt(idx)

    def make_batch(xi):
        xi = np.asarray(xi, dtype=float)
        m2 = float(np.mean(xi * xi))

        def trig(x):
            U = np.outer(xi, x / rs)     # (batch, dim)
            return np.cos(U), np.sin(U)

        def value(x):
            C, _ = trig(x)
            return float(1.0 + m2 * (x @ x) / 4000.0
                         - np.mean(np.prod(C, axis=1)))

        def grad(x):
            C, S = trig(x)
            E = _exclusion_products(C)
            return m2 * x / 2000.0 \
                + np.mean(xi[:, None] * S * E, axis=0) / rs

        def hess(x):
            C, S = trig(x)
            P = np.prod(C, axis=1)
            n = x.size
            H = np.empty((n, n))
            xi2 = xi * xi
            for a in range(n):
                for b in range(a + 1, n):
                    mask = np.ones(n, dtype=bool)
                    mask[a] = mask[b] = False
                    pab = np.prod(C[:, mask], axis=1)
                    H[a, b] = H[b, a] = -float(
                        np.mean(xi2 * S[:, a] * S[:, b] * pab)) \
                        / (rs[a] * rs[b])
            np.fill_diagonal(H, m2 / 2000.0 + float(np.mean(xi2 * P)) / idx)
            return H

        return Objective(dim, value, grad, hess,
                         name=f"stochastic-griewank-{dim}")

    return StochasticObjective(
        dim=dim, batch_size=batch_size, rng_seed=seed,
        sampler=normal_sampler(1.0, float(sigma)), make_batch=make_batch,
        name=f"stochastic-griewank-{dim}")
