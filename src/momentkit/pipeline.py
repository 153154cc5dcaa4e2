"""One-call assembly of the full model from a moment sequence."""

from dataclasses import dataclass

from .cayley import CayleyData, SchurParameter, cayley_transform
from .gramspace import (
    EmbeddingI,
    EmbeddingK,
    GramSpace,
    ShiftOperator,
    build_embeddings,
    build_shift,
    construct_space,
)
from .moments import MomentSequence
from .nevanlinna import TransformEvaluator


@dataclass(frozen=True)
class Model:
    """Moment sequence with its quotient space, shift, Cayley data and embeddings."""

    moments: MomentSequence
    space: GramSpace
    shift: ShiftOperator
    cayley: CayleyData
    embed_i: EmbeddingI
    embed_k: EmbeddingK

    @property
    def defect_dims(self):
        return self.cayley.defect_dims

    @property
    def determinate(self):
        return self.cayley.determinate

    def zero_parameter(self) -> SchurParameter:
        return SchurParameter.zero(self.defect_dims)

    def evaluator(self, p: SchurParameter = None) -> TransformEvaluator:
        """The evaluator for p (zero if None)."""
        return TransformEvaluator(self.moments, self.cayley, self.embed_k,
                                  self.zero_parameter() if p is None else p)


def build_model(m: MomentSequence) -> Model:
    space = construct_space(m)
    shift = build_shift(space)
    cay = cayley_transform(shift)
    emb_i, emb_k = build_embeddings(space)
    return Model(
        moments=m,
        space=space,
        shift=shift,
        cayley=cay,
        embed_i=emb_i,
        embed_k=emb_k,
    )
