"""The wide random-kernel sweep, which ``scripts/check.sh --sim`` runs.

Its name keeps it out of the tier-1 collection: pass the file to pytest
explicitly.  Unlike the tier-1 run in ``test_random_kernels.py``, it fixes
no seed, so each run draws other kernels; ``--hypothesis-seed=N`` repeats
one run, and a failure prints the seed that reproduces it.
"""

from hypothesis import HealthCheck, given, settings

from random_kernels import check_kernel_case, kernel_cases


@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=kernel_cases())
def test_random_kernels_sweep(case):
    check_kernel_case(case)
