"""Numerical verification of curvature identities and integrability-tensor
bounds for Riemannian foliations: exact exterior algebra on the normal
fiber, transverse curvature from the O'Neill tensor, the B+/B- norm
identities, bound evaluators, and the weighted circle foliations of
odd-dimensional spheres as executable models."""

from .exterior import (
    AlternatingForm,
    flat,
    hodge,
    inner,
    interior_vector,
    wedge,
)
from .curvature import (
    RiemannTensor,
    curvature_action_on_form,
    curvature_term,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from .oneill import (
    ONeillTensor,
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_max,
    hodge_trace_residual,
    master_identity_residual,
    mixed_bivector_term,
    prop31_value,
    prop41_sides,
    sandwich_sides,
    thm31_sides,
    thm32_sides,
    thm41_sides,
    two_form_rewrite,
    vertical_contraction_term,
)
from .hopf import (
    AdaptedFrame,
    BracketRouteError,
    DegeneratePointError,
    SpherePoint,
    WeightedHopfModel,
    adapted_frame,
    fields_YW,
    kahler_form,
    mean_curvature,
    oneill_closed_form,
    oneill_from_brackets,
    sample_point,
)
from .report import __version__

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
