"""Static-analysis workbench pairing incomplete methods with exact ones.

Cache side: a concrete LRU oracle, classical must/may age bounds, and a
complete per-block analysis over younger-set antichains, cross-validated
site by site.  Numeric side: interval analysis with widening/narrowing,
exact least-fixpoint solving of extracted min/max bound equations (by
exhaustive case analysis and by policy iteration), and interval analysis
combined with a propagated rewriting system.
"""

__version__ = "0.1.0"
