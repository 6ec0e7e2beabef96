"""Forward-in-time dyadic analysis on space-time grids.

The package works on the unit cube Q0 = [0,1)^n (last coordinate =
time) extended forward to [0,1)^{n-1} x [0,3), discretized into dyadic
cells at resolution L.  It provides:

* dyadic cube geometry with forward-in-time translates (:mod:`cubes`),
* exact grid functions with fixed-denominator or float cells
  (:mod:`grid`, :mod:`gridio`),
* the one-sided maximal operator — each point looks at the averages of
  its dyadic ancestors' forward translates — and the matching
  stopping-time decompositions (:mod:`maximal`),
* one-sided oscillation seminorms of family type, with exact
  tree-programming evaluation and a brute-force antichain oracle
  (:mod:`seminorms`),
* checks for every link of the chain that upgrades the stopping-time
  construction to the superlevel-decay bound
  lam^p |E(lam)| <= C K^p (:mod:`verification`),
* seeded generators for reproducible input corpora (:mod:`corpus`)
  and a command-line front end (:mod:`cli`).
"""

from .cubes import (
    CubeRelation,
    DyadicCube,
    children,
    contains,
    forward,
    parent,
    relation,
    root_cube,
    subcubes,
    volume,
)
from .errors import (
    GridFormatError,
    InstanceTooLargeError,
    InvalidExponentError,
    InvalidParamsError,
    InvalidSpecError,
    JnplusError,
    NegativeInputError,
    OutOfDomainError,
    RefinementBelowGridError,
)
from .grid import (
    GridFunction,
    average,
    distribution_measure,
    offset_positive_part,
    pos_part_average,
    refine,
    scale_values,
    shift_values,
)
from .gridio import load_grid, save_grid
from .maximal import (
    Decomposition,
    MaximalField,
    check_p1,
    check_p2,
    cz_decompose,
    maximal_function,
    select_subfamily,
    weak_type_check,
)
from .seminorms import (
    CubeFamily,
    SeminormResult,
    antichain_oracle,
    bmo_plus_dyadic,
    bmo_plus_limit_form,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
    phi_classical,
    phi_plus,
)
from .corpus import GeneratorSpec, bundled_example, default_manifest, gen
from .reports import VerificationReport, canonical_json
from .verification import (
    LemmaContext,
    LemmaParams,
    TheoremRun,
    default_lambda_grid,
    good_lambda_check,
    lemma_params,
    lemma_sweep,
    proof_constant,
    theorem_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # cubes
    "CubeRelation",
    "DyadicCube",
    "children",
    "contains",
    "forward",
    "parent",
    "relation",
    "root_cube",
    "subcubes",
    "volume",
    # errors
    "JnplusError",
    "OutOfDomainError",
    "RefinementBelowGridError",
    "NegativeInputError",
    "InvalidExponentError",
    "InvalidParamsError",
    "InstanceTooLargeError",
    "GridFormatError",
    "InvalidSpecError",
    # grid + io
    "GridFunction",
    "average",
    "pos_part_average",
    "distribution_measure",
    "offset_positive_part",
    "scale_values",
    "shift_values",
    "refine",
    "load_grid",
    "save_grid",
    # maximal + decomposition
    "MaximalField",
    "maximal_function",
    "Decomposition",
    "cz_decompose",
    "select_subfamily",
    "check_p1",
    "check_p2",
    "weak_type_check",
    # seminorms
    "CubeFamily",
    "SeminormResult",
    "phi_plus",
    "phi_classical",
    "jnp_plus_dyadic",
    "jnp_classical_dyadic",
    "bmo_plus_dyadic",
    "bmo_plus_limit_form",
    "antichain_oracle",
    # corpus
    "GeneratorSpec",
    "gen",
    "default_manifest",
    "bundled_example",
    # reports + verification
    "VerificationReport",
    "canonical_json",
    "LemmaParams",
    "lemma_params",
    "LemmaContext",
    "good_lambda_check",
    "lemma_sweep",
    "proof_constant",
    "default_lambda_grid",
    "TheoremRun",
    "theorem_check",
]
