"""Numerical verification of curvature identities and integrability-tensor
bounds for Riemannian foliations: exact exterior algebra on the normal
fiber, transverse curvature from the O'Neill tensor, the B+/B- norm
identities, bound evaluators, and the weighted circle foliations of
odd-dimensional spheres as executable models."""

from .exterior import (
    AlternatingForm,
    FiberVector,
    flat,
    hodge,
    inner,
    interior_vector,
    multi_index_rank,
    multi_indices,
    wedge,
)
from .curvature import (
    RiemannTensor,
    curvature_action_on_form,
    curvature_operator_extremes,
    curvature_term,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from .oneill import (
    BoundReport,
    MasterIdentityError,
    ONeillTensor,
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_scan,
    hodge_trace_residual,
    master_identity_residual,
    mixed_bivector_term,
    oneill_norm,
    prop31_value,
    prop41_check,
    sandwich_check,
    thm31_report,
    thm32_report,
    thm41_report,
    two_form_rewrite,
    vertical_contraction_term,
)
from .hopf import (
    AdaptedFrame,
    DegeneratePointError,
    SpherePoint,
    WeightedHopfModel,
    adapted_frame,
    field_X,
    fields_YW,
    kahler_form,
    lie_bracket,
    mean_curvature,
    oneill_closed_form,
    oneill_from_brackets,
    sample_point,
)
from .report import __version__

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
