"""The numba path and the numpy fallback must be interchangeable."""

import os
import subprocess
import sys


def test_env_flag_disables_numba():
    code = (
        "import coxcut._accel as a; "
        "assert not a.USE_NUMBA, a.USE_NUMBA; print('ok')"
    )
    env = dict(os.environ, COXCUT_NO_NUMBA="1")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout.strip() == "ok"


def test_fallback_subprocess_solves_identically():
    # full pipeline under COXCUT_NO_NUMBA must reproduce the default path
    code = r"""
import numpy as np
from coxcut import Dataset, Kernel, binary_map, build_energy, shared_models
rng = np.random.default_rng(11)
models = shared_models(2, Kernel('se', 1.0, 0.8))
labeled = Dataset(rng.normal(0, 1, (6, 2)), np.array([1, 1, 1, 2, 2, 2]), 2)
unlabeled = rng.normal(0, 1, (12, 2))
print(binary_map(build_energy(models, labeled, unlabeled)).tolist())
"""
    outs = []
    for disable in ("0", "1"):
        env = dict(os.environ, COXCUT_NO_NUMBA=disable)
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout.strip())
    assert outs[0] == outs[1]
