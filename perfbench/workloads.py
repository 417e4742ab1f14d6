"""The benchmark's workloads: CLI arguments at the timed and set-up sizes,
the unit each one counts, and the report each one must produce.

Why these three (see README.md for the layer-to-metric links):

* ``verify`` stresses the pure-Python exterior loops, the O'Neill identity
  evaluators, synthetic instance generation and 1200 tiny, overhead-bound
  Bochner actions; it never touches ``hopf`` or ``dual``.
* ``hopf-kahler`` (unit weights, q=18) is almost all dense Bochner action:
  the same curvature layer as ``verify``, used the flop-bound way.
* ``hopf-weighted`` (16 weights) goes through the bracket route, dual-number
  Jacobians and rejection sampling, never the Bochner action, and emits a
  ``closed-form-discrepancy`` finding at every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0
# Held-out seed: never used while tuning; later claims must also hold on it.
HELD_OUT_SEED = 20131030

THETA_16 = ",".join(f"{1 - 0.05 * i:.2f}" for i in range(16))

_VERIFY_QS = (4, 5)
_EXTERIOR_CHECKS = ("hodge_involution", "hodge_contraction_rule", "leibniz",
                    "contraction_sum", "graded_anticommutativity")
_VERIFY_CHECKS = ("oneill.master_identity", "oneill.bplus_identity",
                  "oneill.bminus_identity", "curvature.term_vs_action",
                  "oneill.ricci_hodge_trace", "oneill.two_form_rewrite",
                  "oneill.two_form_bound", "oneill.contraction_chain_step1",
                  "oneill.contraction_chain_step2")
_KAHLER_CHECKS = ("frame_gram", "oneill_norm_value", "mean_curvature_zero",
                  "transverse_scalar", "kahler_parallel", "kahler_curvature_pairing")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]      # CLI arguments before the size flag
    size_flag: str                # --trials or --samples
    size: int                     # timed size
    units_per_size: int           # units per trial or sample
    unit: str
    finding_kinds: frozenset[str] = field(default_factory=frozenset)
    finding_every_point: bool = False

    def argv(self, seed: int, size: int | None = None) -> list[str]:
        return [*self.command, self.size_flag, str(self.size if size is None else size),
                "--seed", str(seed)]

    def units(self, size: int | None = None) -> int:
        return self.units_per_size * (self.size if size is None else size)

    def check_names(self, size: int) -> list[str]:
        """Every check the report must hold, in report order."""
        if self.name == "verify":
            names = [f"exterior.{c}.q{q}" for q in _VERIFY_QS for c in _EXTERIOR_CHECKS]
            names += [f"{c}.q{q}.p{p}" for q in _VERIFY_QS for p in range(1, min(4, q))
                      for c in _VERIFY_CHECKS]
            return names
        per_point = _KAHLER_CHECKS if self.name == "hopf-kahler" else ("frame_gram",)
        return [f"hopf.{c}.point{k}" for k in range(size) for c in per_point]


WORKLOADS = {
    "verify": Workload("verify", ("verify",), "--trials", 200, 6, "instance",
                       frozenset({"wedge-reading-chain"})),
    "hopf-kahler": Workload("hopf-kahler", ("hopf", "--m", "10"), "--samples", 20, 1,
                            "point"),
    "hopf-weighted": Workload("hopf-weighted", ("hopf", "--m", "16", "--theta", THETA_16),
                              "--samples", 200, 1, "point",
                              frozenset({"closed-form-discrepancy"}),
                              finding_every_point=True),
}

# Set-up runs the smallest size: one trial or one sample.
SETUP_SIZE = 1
