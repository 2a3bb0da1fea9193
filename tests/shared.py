"""Names and results that more than one test module reads; the results
are computed once per process."""

import functools

from aq.suites import run_suite

# the public builders of `aq.corpus`, each building its cases once per process
CORPUS_BUILDERS = ("classifier_corpus", "random_surjections",
                   "random_base_extensions", "regular_sequence_instances",
                   "non_regular_sequence_instances", "hypersurface_instances",
                   "polynomial_extension_instances", "hkr_instances",
                   "jacobi_zariski_instances")

# an acceptance suite's report: the acceptance gate checks its verdict and
# the differential dump pins its bytes
suite_report = functools.cache(run_suite)
