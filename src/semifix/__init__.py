"""semifix: a laboratory for semiring fixpoint systems.

Parse linear sum-product recursion programs, ground them to matrix systems
f(x) = Ax (+) b over exact-arithmetic semirings, evaluate them by naive
iteration, measure convergence (stability indices), and verify everything
against brute-force walk enumeration and worst-case step bounds.
"""

from .bounds import (
    BoundReport,
    analyze,
    bound_general_exp,
    bound_linear_exp,
    bound_linear_pn3,
    bound_linear_pnlogL,
    bound_loose_npL,
    bound_naturally_ordered,
    bound_zero_stable,
)
from .engine import (
    IterationTrace,
    load_system,
    matrix_power_sum,
    matrix_stability_index,
    naive_eval_general,
    naive_eval_linear,
    save_system,
    trace_csv,
)
from .errors import (
    EnumerationBudgetExceeded,
    GroundingError,
    InvalidParameter,
    InvalidWalk,
    MalformedElement,
    NotNaturallyOrdered,
    NotReassemblable,
    ParseError,
    SemifixError,
    UnsupportedOperation,
)
from .frontend import (
    EDBInstance,
    GroundedLinearSystem,
    GroundedPolynomialSystem,
    Program,
    build_edb,
    classify_linearity,
    format_ground_atom,
    ground,
    parse_facts_tsv,
    parse_program,
)
from .generators import (
    BlockedGraph,
    InstanceSpec,
    gen_blocked_graph,
    gen_cycle_lowerbound,
    gen_random_digraph,
    gen_random_system,
)
from .matrix import Matrix
from .semirings import (
    AxiomReport,
    INF,
    CAPPED_O,
    Semiring,
    SemiringStability,
    StabilityResult,
    check_axioms,
    element_stability,
    longest_chain,
    min_p_truncate,
    natural_order_leq,
    scalar_repeat,
    semiring_from_id,
    semiring_stability,
)
from .walks import (
    CycleDecomposition,
    Walk,
    cycle_decompose,
    eulerian_walk_check,
    reassemble,
    walk_label_product,
    walk_sum_exact,
    walk_sum_upto,
)

__version__ = "0.1.0"
