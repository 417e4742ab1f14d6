"""Numerical verification of curvature identities and integrability-tensor
bounds for Riemannian foliations: exact exterior algebra on the normal
fiber, transverse curvature from the O'Neill tensor, the B+/B- norm
identities, bound evaluators, and the weighted circle foliations of
odd-dimensional spheres as executable models."""
