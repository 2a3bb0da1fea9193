"""Results that more than one test module reads, computed once per process."""

import functools

from aq.suites import run_suite

# an acceptance suite's report: the acceptance gate checks its verdict and
# the differential dump pins its bytes
suite_report = functools.cache(run_suite)
