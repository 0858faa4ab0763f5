import numpy as np
import pytest
from hypothesis import settings

import ftsinv as fi
from ftsinv import bench

# property tests draw the same examples on every run
settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def reference_setup():
    """The frozen ill-conditioned Fabry-Perot study (factorized once)."""
    cfg = bench.reference_airy_config()
    return bench.build_setup(cfg)


@pytest.fixture(scope="session")
def small_cosine_setup():
    cfg = fi.ExperimentConfig(kind="cosine", n=64, m=64, r=0.5, seed=9,
                              noise_snr_db=50.0, bits_list=[8, 12],
                              k_list=[1, 2, 3], methods=["pinv", "tik"])
    return bench.build_setup(cfg)


def complex_snr_db(ref: np.ndarray, est: np.ndarray) -> float:
    err = np.linalg.norm(ref - est)
    if err == 0:
        return 300.0
    return float(20.0 * np.log10(np.linalg.norm(ref) / err))
