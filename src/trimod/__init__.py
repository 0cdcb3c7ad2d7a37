"""Exact computations with triangulated structures on graded module categories.

The package decides when stable module categories and their relatives admit
the expected triangulation, and certifies the positive cases by explicit
construction: syzygy functors over quasi-Frobenius rings, a two-generator
differential graded model whose cone construction produces distinguished
triangles, and stable-homotopy rings for cyclic group algebras.
"""

from .classify import Verdict, classify, classify_local
from .constructions import (
    exterior_on_field,
    finite_field,
    galois_ring_4_2,
    group_algebra_cyclic,
    laurent_exterior,
    laurent_field,
    product_ring,
    square_zero_two_vars,
    truncated_polynomial,
    z_mod,
)
from .dga import (
    DGAlgebra,
    DGElement,
    DGMap,
    DGModule,
    algebra_module,
    build_two_generator_dga,
    cone,
    homology,
    homology_is_free_rank_one,
    slice_differential,
)
from .errors import (
    LiftFailure,
    NotChainMap,
    NotLocalInput,
    NotQuasiFrobenius,
    ParityObstruction,
    ParseError,
    ShapeMismatch,
    TrimodError,
    WeightOverflow,
    WindowEmpty,
)
from .modules import (
    FiniteModule,
    ModuleMap,
    cokernel,
    free_module,
    heller_cube_check,
    heller_inverse,
    heller_of_map,
    heller_power,
    heller_shift,
    identity_map,
    image,
    injective_envelope,
    iso_test,
    kernel,
    residue_module,
    stable_class_is_zero,
    stable_hom,
    stable_iso_test,
    zero_map,
)
from .ringio import load_module, load_ring, parse_ring, save_ring, serialize_ring
from .rings import GradedRing, RingElement, is_quasi_frobenius
from .tate import TateRing, cofiber_stmod, ggh_verdict, tate_ring
from .triangles import (
    Triangle,
    run_random_trials,
    triangle_from_map,
    verify_rotation,
    verify_triangle_exact,
)

__version__ = "0.1.0"
