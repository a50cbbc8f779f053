"""Exact workbench for sincerity, silting and tilting predicates of
finite-dimensional modules over quotient path algebras kQ/I over prime
fields.

All arithmetic is exact (integer matrices reduced mod p); every verdict
is a decision, not an approximation.  Questions that cannot be decided at
a stated bound raise instead of guessing.
"""

from .algfile import (
    AlgebraFileError,
    ParsedAlgebra,
    load_algebra_file,
    parse_algebra_file,
    serialize,
)
from .corpus import Corpus, decompose, enumerate_indecomposables, is_indecomposable
from .harness import (
    classify,
    layer_label,
    load_workbench,
    reproduce_example,
    to_json_lines,
    to_table,
    verify_theorems,
)
from .homology import (
    BoundExceededError,
    Resolution,
    ext_dim,
    injective_envelope,
    minimal_presentation,
    minimal_resolution,
    projective_cover,
    projective_dimension,
)
from .linalg import MalformedInputError
from .modclasses import (
    add_contains,
    gen_contains,
    perp_contains,
    pres_contains,
    torsion_decompose,
    trace_spans,
)
from .pathalg import (
    Algebra,
    AlgebraConstructionError,
    Arrow,
    Path,
    Quiver,
    RelationSet,
)
from .predicates import (
    PREDICATES,
    PredicateReport,
    RouteDisagreement,
    Workbench,
    is_presilting,
    is_pretilting,
    is_self_orthogonal,
    is_silting,
    is_sincere,
    is_tilting,
)
from .reps import (
    Morphism,
    Representation,
    UndecidableError,
    direct_sum,
    factorize,
    hom_dim,
    hom_space,
    injective_module,
    is_isomorphic,
    projective_module,
    regular_module,
    simple_module,
)
from .zoo import a2, cyclic_nakayama_2, linear_an, nakayama_a3

__version__ = "0.1.0"
