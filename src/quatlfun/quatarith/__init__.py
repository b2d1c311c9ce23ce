"""Definite quaternion arithmetic over Q: orders, class sets, embeddings."""

from .algebra import (QuaternionAlgebra, algebra_from_discriminant,
                      hilbert_symbol, kronecker, legendre, ramified_primes)
from .classset import (ClassSet, check_count_bound, class_set_avoiding,
                       eichler_mass,
                       ideal_class_set, neighbor_matrices, neighbor_matrix,
                       uq_by_classification, uq_from_counts, uq_matrix)
from .embedding import Embedding, optimal_embedding, quadratic_generator
from .ideal import RightIdeal, isometric, isometry_witness, neighbors
from .lattice import Lattice4
from .order import (QuaternionOrder, eichler_order, eichler_order_for,
                    maximal_order, standard_order)
from .splitting import LocalSplitting, local_splitting

__all__ = [
    "ClassSet", "Embedding", "Lattice4", "LocalSplitting", "QuaternionAlgebra",
    "QuaternionOrder", "RightIdeal", "algebra_from_discriminant",
    "check_count_bound", "class_set_avoiding", "eichler_mass", "eichler_order", "eichler_order_for",
    "hilbert_symbol", "ideal_class_set", "isometric", "isometry_witness",
    "kronecker", "legendre", "local_splitting",
    "maximal_order", "neighbor_matrices", "neighbor_matrix", "neighbors",
    "optimal_embedding", "quadratic_generator", "ramified_primes",
    "standard_order", "uq_by_classification",
    "uq_from_counts", "uq_matrix",
]
