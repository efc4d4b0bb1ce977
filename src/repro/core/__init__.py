"""The paper's core contribution: the TILL-Index and its algorithms.

Module map (paper artefact → implementation):

* Algorithm 1 ``Online-Reach``        → :mod:`repro.core.online`
* Algorithm 2 ``TILL-Construct``      → :func:`repro.core.construction.build_labels_basic`
* Algorithm 3 ``TILL-Construct*``     → :func:`repro.core.construction.build_labels_optimized`
* Algorithm 4 ``Span-Reach``          → :func:`repro.core.queries.flat_span_batch`
* Algorithm 5 ``ES-Reach*``           → :func:`repro.core.queries.flat_theta_batch`
* ``ES-Reach`` baseline               → :func:`repro.core.queries.theta_reachable_naive`
* Fig. 3 label layout                 → :mod:`repro.core.labels`
* Fig. 3 flat serving layout          → :mod:`repro.core.flatstore`
* Section IV-A vertex orders          → :mod:`repro.core.ordering`
* future-work streaming extension     → :mod:`repro.core.incremental`
"""

from repro.core.flatstore import FlatDirection, FlatTILLLabels, FlatTILLStore
from repro.core.index import IndexStats, TILLIndex
from repro.core.incremental import IncrementalTILLIndex
from repro.core.intervals import Interval, SkylineSet
from repro.core.label_stats import IndexAnatomy, anatomy_report, index_anatomy
from repro.core.ordering import ORDERINGS, VertexOrder, make_order
from repro.core.profiling import profile_span_query, profile_workload
from repro.core.windows import earliest_window, minimal_windows, tightest_window

__all__ = [
    "TILLIndex",
    "IndexStats",
    "FlatDirection",
    "FlatTILLStore",
    "FlatTILLLabels",
    "IncrementalTILLIndex",
    "Interval",
    "SkylineSet",
    "VertexOrder",
    "ORDERINGS",
    "make_order",
    "minimal_windows",
    "earliest_window",
    "tightest_window",
    "index_anatomy",
    "anatomy_report",
    "IndexAnatomy",
    "profile_span_query",
    "profile_workload",
]
