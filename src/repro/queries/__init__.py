"""Query abstractions.

SVT consumes a stream of numeric query answers with bounded sensitivity.
This package provides the query objects the applications use (support /
predicate counting queries over a :class:`~repro.data.transaction_db.TransactionDatabase`),
the monotonicity contract from Section 4.3, and stream helpers for the
interactive setting — including the threshold-to-zero reduction from the
Figure 1 footnote.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "Query",
        "queries_are_monotonic",
        "reduce_to_zero_threshold",
    ),
    ".counting": (
        "ItemSupportQuery",
        "ItemsetSupportQuery",
        "PredicateCountQuery",
    ),
    ".stream": ("QueryStream",),
})
