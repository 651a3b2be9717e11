"""The estimators' contracts as hypothesis properties on drawn inputs.

Each tolerance is written next to its property, with the arithmetic or
loop tolerance it is derived from.  The property that PRM with unit
weights equals SIMPLS bit for bit lives with the PRM tests
(``tests/test_robust_pls.py``), and worker-count identity of the
experiment with the simulation tests.  Inputs on which a contract fails
today are pinned as strict xfails that name the ROADMAP item that mends them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpls.basis import build_bspline_system, build_design
from rfpls.regression import fit_fpls, fit_rfpls
from rfpls.simulation import NUM_PREDICTORS, generate_clean

# SIMPLS has no iteration: a permutation of the rows only reorders the
# sums of the centering and the covariances, which moves a coefficient by
# a few ulps times the design's conditioning.  Over 400 fits drawn as below,
# the worst relative change of the coefficients or the intercept was
# 1.3e-13, so 1e-10 leaves about three orders of magnitude for other BLAS
# builds.
PERMUTATION_RTOL = 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(20, 120), st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.sampled_from([8, 20]), st.integers(0, 2**32 - 1))
def test_fpls_coefficients_keep_under_row_permutation(n, seed, h, num_basis, perm_seed):
    data = generate_clean(n, seed)
    permuted = data.take(np.random.default_rng(perm_seed).permutation(n))
    systems = [build_bspline_system((0.0, 1.0), num_basis) for _ in range(NUM_PREDICTORS)]
    fits = [fit_fpls(build_design(d.curves, d.grids, systems), d.y, h)
            for d in (data, permuted)]
    assert fits[0].h == fits[1].h
    change = np.linalg.norm(fits[1].beta_coefs - fits[0].beta_coefs)
    assert change <= PERMUTATION_RTOL * np.linalg.norm(fits[0].beta_coefs)
    assert abs(fits[1].intercept - fits[0].intercept) \
        <= PERMUTATION_RTOL * max(1.0, abs(fits[0].intercept))


# PRM stops at its cap of 100 passes on this input (prm_converged=False), and
# where a capped loop stops depends on the order of the sums: the row
# permutation moves the coefficients by 2.1e-5 relative (3 y moves them by
# 2.2e-5).  A PRM with a well-defined end point (ROADMAP item 3) must bring
# them within 1e-12, which is then the tolerance of a rfpls permutation
# property; converged fits measured so far stay within 3.1e-12.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a PRM stopped at its pass cap "
                                       "depends on the row order")
def test_capped_prm_coefficients_keep_under_row_permutation():
    data = generate_clean(60, 8)
    permuted = data.take(np.random.default_rng(15).permutation(60))
    systems = [build_bspline_system((0.0, 1.0), 20) for _ in range(NUM_PREDICTORS)]
    fits = [fit_rfpls(build_design(d.curves, d.grids, systems), d.y, 3)
            for d in (data, permuted)]
    change = np.linalg.norm(fits[1].beta_coefs - fits[0].beta_coefs)
    assert change <= 1e-12 * np.linalg.norm(fits[0].beta_coefs)
