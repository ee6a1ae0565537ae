"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """An argument lies outside the domain the computation accepts."""


class CapacityError(InputError):
    """Particle number exceeds the configured maximum group size."""


class DegenerateMomentaError(InputError):
    """Momenta are not pairwise generic (some k_j = 0 or |k_i| = |k_j|)."""


class BoundaryPointError(ValueError):
    """Point lies on a wedge boundary, so its wedge label is ambiguous."""


class GeometryError(InputError):
    """Probe point or finite-difference stencil violates a geometric precondition."""


class InconsistencyError(Exception):
    """Two reduction paths through the group assign conflicting coefficients.

    Carries a witness: the element where the clash occurred, the generator
    word that first reached it, the alternative word, and the size of the
    disagreement.
    """

    def __init__(self, element, existing_word, new_word, residual):
        self.element = element
        self.existing_word = tuple(existing_word)
        self.new_word = tuple(new_word)
        self.residual = float(residual)
        super().__init__(
            f"coefficient mismatch {self.residual:.6g} at element "
            f"(signs={element.signs}, perm={element.perm}); "
            f"word {' '.join(self.existing_word) or '<identity>'} vs "
            f"word {' '.join(self.new_word) or '<identity>'}"
        )

    def to_dict(self) -> dict:
        return {
            "type": "inconsistency",
            "element": {
                "signs": list(self.element.signs),
                "perm": list(self.element.perm),
            },
            "existing_word": list(self.existing_word),
            "conflicting_word": list(self.new_word),
            "residual": self.residual,
        }
