"""Random kernels through every symbolic differential oracle.

The registry kernels reach several builder branches only by chance; the
kernels :func:`random_kernels.kernel_cases` draws reach them on purpose.
This tier-1 run is a fixed seed and example count;
``sweep_random_kernels.py`` is the wider sweep ``scripts/check.sh --sim``
runs.
"""

from hypothesis import HealthCheck, given, seed, settings

from random_kernels import check_kernel_case, kernel_cases


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=kernel_cases())
def test_random_kernels_match_every_oracle(case):
    check_kernel_case(case)
