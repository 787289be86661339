"""Cyclic relations for nested zeta series.

A block shape (d; r_1..r_d) indexes a family of constrained index domains;
the package evaluates the attached complex-argument series by truncated
summation, verifies the split-series identity numerically, rewrites the
integer-point specializations into exact relations among nested-zeta
symbols, and reproduces the table of independent-relation counts by exact
rank computation.
"""

from .decompose import (
    Composition,
    OrderedSetPartition,
    SymbolCombination,
    chain_count,
    count_lattice_points,
    decompose_to_mzv,
    weak_orders,
)
from .errors import (
    BudgetError,
    CyclicZetaError,
    DomainError,
    InternalInvariantError,
    NonAdmissibleError,
    ParseError,
)
from .model import (
    EXTRA,
    ComplexArgs,
    Constraint,
    ConstraintSystem,
    IntArgs,
    Shape,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
    in_domain_W,
    is_integer_point_in_W,
    w_inequalities,
)
from .relations import (
    ALL_RELATIONS_REF,
    RelationMatrix,
    csf_relation,
    cyclic_relation,
    enumerate_family,
    generate_relations,
    rank_exact,
    table1,
    zeta_star_expand,
)
from .series import (
    EvalReport,
    TheoremReport,
    TruncationPlan,
    combo_partial_sum,
    eval_mordell_tornheim,
    eval_mzf,
    eval_theorem_residual,
    eval_zeta_C,
    eval_zeta_C_i,
    eval_zeta_tilde,
    eval_zeta_tilde_harmonic,
    harmonic_relation_check,
    mzv_partial_sum,
)

__version__ = "0.1.0"
