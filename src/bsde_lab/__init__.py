"""Numerical laboratory for multidimensional BSDEs with Osgood-type
non-Lipschitz drivers: hypothesis checkers, a regression Monte Carlo
fixed-point solver, and desk-scale analysis of the associated constants
and integral recursions.

BSDE_LAB_THREADS, when set, caps the BLAS and OpenMP worker threads.  It is
read here, before numpy loads, because the BLAS fixes its thread pool when it
is first loaded; thread variables the environment already sets win.
"""

import os as _os

_threads = _os.environ.get("BSDE_LAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .analysis import (
    BihariCurve,
    ConstantsBundle,
    bihari_recursion,
    check_apriori_bounds,
    check_lemma1,
    compute_constants,
)
from .generator import (
    DriverFamily,
    EnvelopeA,
    GeneratorSpec,
    ProcessKind,
    ProcessSpec,
    auto_envelope,
    check_h1,
    check_h3,
    estimate_lipschitz_z,
    example1_generator,
    linear_generator,
    verify_envelope,
    zero_generator,
)
from .modulus import (
    ModulusSpec,
    ShapeReport,
    check_shape,
    concave_majorant,
    eval_modulus,
    example1_h_modulus,
    h1pp_to_h1,
    linear_modulus,
    linear_growth_coefficient,
    osgood_classify,
    power_modulus,
    power_root,
    tabulated_modulus,
)
from .oracle import compare_to_oracle, match_oracle
from .paths import (
    DiscreteSolution,
    PathEnsemble,
    TimeGrid,
    generate_ensemble,
    load_ensemble,
    load_solution,
    save_ensemble,
    save_solution,
)
from .solver import (
    BasisSpec,
    PicardReport,
    TerminalKind,
    TerminalSpec,
    constant_terminal,
    coordinate_terminal,
    picard_solve,
    square_norm_terminal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
