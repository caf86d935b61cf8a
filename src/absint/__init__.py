"""Static-analysis workbench pairing incomplete methods with exact ones.

Cache side: a concrete LRU oracle, classical must/may age bounds, and a
complete per-block analysis over younger-set antichains, cross-validated
site by site.  Numeric side: interval analysis with widening/narrowing,
exact least-fixpoint solving of extracted min/max bound equations (by
exhaustive case analysis and by policy iteration), and interval analysis
combined with a propagated rewriting system.
"""

__version__ = "0.1.0"

from .lang import parse_program, pretty, ParseError
from .cfg import build_cfg, parse_access_graph, Cfg
from .lru import (
    InitPolicy,
    Classification,
    OracleBudgetError,
    access,
    collect_states,
    classify_oracle,
)
from .antichain import Antichain, Orientation
from .agebounds import ApproxClass, classify_all_approx
from .focused import BlockView, transfer, analyze_block, classify_exact, classify_pipeline
from .intervals import (
    POS_INF,
    NEG_INF,
    Interval,
    AbstractEnv,
    eval_expr,
    filter_cond,
    widen,
    analyze,
    entry_environment,
)
from .boundsolve import (
    BoundSystem,
    extract_upper_bounds,
    solve_exhaustive,
    solve_policy_iteration,
    bounded_concrete_oracle,
    solve_intervals_exact,
    dump_system,
)
from .rewrite import LinearForm, RewriteMap, linear_form, record, rewrite_and_simplify, analyze_combined
