"""Batch-kernel backend names.

The flat Algorithm 4/5 batch kernels are the pure-python
:func:`~repro.core.queries.flat_span_batch` /
:func:`~repro.core.queries.flat_theta_batch`; there is no other
implementation.  This module only checks the ``backend=`` name that
:meth:`repro.core.index.TILLIndex.flatten` still accepts, so callers
that pass ``"python"`` or ``"auto"`` keep working and a request for a
removed backend fails loudly instead of silently changing meaning.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import IndexBuildError

#: Backend names :func:`select` accepts; both mean the python kernels.
BACKENDS = ("auto", "python")


def select(store, rank: Sequence[int], backend: Optional[str]) -> None:
    """Check *backend* and return the kernels object for it — always
    ``None``, meaning "the python kernels in :mod:`repro.core.queries`".

    ``None``, ``"auto"`` and ``"python"`` are accepted; any other name
    (including those of the removed vectorized and JIT backends)
    raises :class:`IndexBuildError`.  *store* and *rank* are unused.
    """
    if backend is not None and backend not in BACKENDS:
        known = ", ".join(repr(b) for b in BACKENDS)
        raise IndexBuildError(
            f"unknown flat backend {backend!r}; known backends: {known}"
        )
    return None
