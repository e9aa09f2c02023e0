import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab.linalg import BipartiteState, haar_random_state, make_rng
from bornlab.steering import Ensemble


@pytest.fixture
def random_ensemble():
    """Factory for seeded random pure-state ensembles.

    Members span the barycenter's support by construction, so any ensemble
    from this factory is a valid steering target for its own marginal.
    """

    def make(dim: int, n_members: int, seed: int) -> Ensemble:
        rng = make_rng(seed, stream=77)
        weights = rng.dirichlet(np.ones(n_members))
        return Ensemble(weights, [haar_random_state(dim, seed * 1009 + i).amplitudes for i in range(n_members)])

    return make


@pytest.fixture
def random_bipartite():
    """Factory for seeded Haar-random bipartite pure states."""

    def make(dim_a: int, dim_b: int, seed: int) -> BipartiteState:
        rng = make_rng(seed, stream=33)
        m = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
        return BipartiteState(m / np.linalg.norm(m))

    return make


@pytest.fixture(scope="session")
def fuzz_cli():
    """``tools/fuzz_cli.py``, the CLI fuzz gate."""
    path = Path(__file__).resolve().parent.parent / "tools" / "fuzz_cli.py"
    spec = importlib.util.spec_from_file_location("fuzz_cli", path)
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def benchmark_workloads(fuzz_cli):
    """``perfbench/workloads.py``: the benchmark's configs and checks."""
    return fuzz_cli.load_workloads()
