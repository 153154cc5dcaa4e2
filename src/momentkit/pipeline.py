"""One-call assembly of the full model from a moment sequence: space, shift, Cayley data, I."""

import numpy as np

from ._linalg import frozen
from .cayley import CayleyData, SchurParameter, cayley_transform
from .gramspace import EmbeddingI, GramSpace, build_embeddings, build_shift, construct_space
from .moments import MomentSequence
from .nevanlinna import TransformEvaluator


@frozen
class Model:
    """Moments with their quotient space, m x m shift action, Cayley data (with K) and I."""

    moments: MomentSequence
    space: GramSpace
    shift: np.ndarray
    cayley: CayleyData
    embed_i: EmbeddingI

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
        return TransformEvaluator(self.moments, self.cayley,
                                  self.zero_parameter() if p is None else p)


def build_model(m: MomentSequence) -> Model:
    space = construct_space(m)
    action, domain_basis = build_shift(space)
    emb_i, k_mat = build_embeddings(space)
    return Model(moments=m, space=space, shift=action,
                 cayley=cayley_transform(action, domain_basis, k_mat), embed_i=emb_i)
