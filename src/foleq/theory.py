"""Background theories: a vocabulary plus a list of closed axioms."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Formula, FoleqError, Vocabulary, check_vocabulary, free_variables


class TheoryError(FoleqError):
    pass


@dataclass(frozen=True)
class Theory:
    """A finite axiom set; it stands for the class of all its models."""

    vocabulary: Vocabulary
    axioms: tuple[Formula, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(self.axioms))
        for ax in self.axioms:
            check_vocabulary(ax, self.vocabulary)
            fv = free_variables(ax)
            if fv:
                raise TheoryError(f"axiom has free variables {', '.join(fv)}")
