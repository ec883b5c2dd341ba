"""1-free star expressions modulo bisimilarity: the full pipeline.

Expression to chart, bisimilarity decision, layering-witness verification
and inference, canonical solutions, witness-preserving collapse, and
end-to-end equivalence certification.
"""

from .bisim import (
    BisimViolation,
    PartitionRelation,
    bisimilar,
    bisimilarity,
    check_bisimulation,
)
from .cli import Certificate, certify, main, recheck_certificate
from .layering import (
    InvalidWitnessError,
    LabelledPrechart,
    WeightedLabelling,
    WitnessViolation,
    derived_relations,
    enumerate_witnesses,
    from_llee,
    infer_witness,
    measures,
    restrict_witness,
    syntactic_witness,
    to_llee,
    union_witness,
    verify_witness,
)
from .rerouting import (
    Splitting,
    check_condition,
    collapse,
    connect_through,
    find_pair,
    relabel,
    rerouting,
    restrict_relation,
)
from .semantics import (
    HomViolation,
    Prechart,
    chart_of,
    coproduct,
    expr_step,
    generated,
    is_homomorphism,
    kernel_partition,
    quotient,
    restriction,
)
from .solution import (
    MeasureError,
    Solution,
    canonical_solution,
    unfold,
    verify_solution,
)
from .syntax import (
    Atom,
    Expr,
    ParseError,
    Seq,
    Star,
    Sum,
    UnknownActionError,
    Zero,
    atoms,
    declare_alphabet,
    gsum,
    parse,
    render,
    size_bound,
    star_height,
)

__all__ = [
    "BisimViolation", "PartitionRelation", "bisimilar", "bisimilarity", "check_bisimulation",
    "Certificate", "certify", "main", "recheck_certificate", "InvalidWitnessError",
    "LabelledPrechart", "WeightedLabelling", "WitnessViolation", "derived_relations",
    "enumerate_witnesses", "from_llee", "infer_witness", "measures",
    "restrict_witness", "syntactic_witness", "to_llee", "union_witness", "verify_witness",
    "Splitting", "check_condition", "collapse", "connect_through", "find_pair", "relabel",
    "rerouting", "restrict_relation", "HomViolation", "Prechart", "chart_of", "coproduct",
    "expr_step", "generated", "is_homomorphism", "kernel_partition", "quotient", "restriction",
    "MeasureError", "Solution", "canonical_solution", "unfold", "verify_solution",
    "Atom", "Expr", "ParseError", "Seq", "Star", "Sum", "UnknownActionError", "Zero", "atoms",
    "declare_alphabet", "gsum", "parse", "render", "size_bound", "star_height",
]

__version__ = "0.1.0"
