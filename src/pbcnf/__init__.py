"""pbcnf: compile pseudo-Boolean constraints to CNF and check the result.

Encoders: generalized totalizer (weighted; `totalizer` is a second name for
`gte`), sequential weight counter and adder networks.  The default, `auto`,
is the generalized totalizer pruned as gte.py describes.
Ships an embedded CDCL solver, OPB/DIMACS I/O, and a verification harness
(brute-force equisatisfiability, propagation-completeness checking, seeded
benchmark generators).
"""

from .baselines import encode_adder, encode_swc
from .bench import (
    FAMILIES,
    BenchSpec,
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
    PBConstraint,
    Term,
    from_signed,
    gc_paused,
    lit,
    negate,
    to_signed,
)
from .dimacs import DimacsError, dimacs_str, parse_dimacs, write_dimacs
from .engine import (
    SAT,
    TIMEOUT,
    UNSAT,
    SolveResult,
    Solver,
    solve,
    solve_external,
)
from .gte import build_tree, encode_auto, encode_gte, encode_totalizer
from .normalize import NormalizationOutcome, OutcomeKind, normalize
from .opb import OpbError, PbInstance, parse_opb, write_opb
from .pipeline import ENCODING_NAMES, compile_constraints, compile_instance
from .verify import (
    GacReport,
    OracleOutcome,
    gac_check,
    oracle_check,
    oracle_check_formula,
    random_normalized_constraint,
)
from .rng import SplitMix64

__version__ = "0.1.0"
