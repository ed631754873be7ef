"""pbcnf: compile pseudo-Boolean constraints to CNF and check the result.

Encoders: generalized totalizer (weighted), sequential weight counter, adder
networks, and the plain totalizer for cardinality constraints.  The default,
`auto`, is the generalized totalizer for every constraint, which on unit
weights emits the plain totalizer clause for clause.
Ships an embedded CDCL solver, OPB/DIMACS I/O, and a verification harness
(brute-force equisatisfiability, propagation-completeness checking, seeded
benchmark generators).
"""

from .baselines import encode_adder, encode_swc, encode_totalizer
from .bench import (
    CSV_HEADER,
    FAMILIES,
    BenchSpec,
    StatRow,
    gen_bench,
    pb12like,
    pedigreelike,
    stats_compare,
    stats_csv,
)
from .core import (
    EQ,
    GE,
    LE,
    CnfFormula,
    InapplicableEncoding,
    PBConstraint,
    Term,
    VarPool,
    from_signed,
    gc_paused,
    is_negative,
    lit,
    lit_str,
    lit_var,
    negate,
    to_signed,
)
from .dimacs import DimacsError, dimacs_str, parse_dimacs, write_dimacs
from .engine import (
    SAT,
    TIMEOUT,
    UNSAT,
    PropagationResult,
    SolveResult,
    Solver,
    propagate,
    solve,
    solve_external,
)
from .gte import GteNode, GteTree, build_tree, encode_gte, merge_sums, node_sums
from .normalize import NormalizationOutcome, OutcomeKind, normalize
from .opb import OpbError, PbInstance, parse_opb, write_opb
from .pipeline import ENCODERS, ENCODING_NAMES, compile_constraints, compile_instance
from .verify import (
    GacReport,
    OracleOutcome,
    eq4_count,
    gac_check,
    oracle_check,
    oracle_check_formula,
    random_constraint,
    random_normalized_constraint,
)
from .rng import SplitMix64

__version__ = "0.1.0"
