"""Synthetic concept generators (scikit-multiflow equivalents).

These four build every synthetic dataset the registry serves: STAGGER,
RBF and RTREE drift in p(y|X); HPLANE-U, RTREE-U and the Synth* family
drift in p(X) over one fixed labeller (:mod:`repro.streams.datasets`).
"""

from repro.streams.synthetic.stagger import StaggerConcept, stagger_concepts
from repro.streams.synthetic.rbf import RandomRbfConcept, rbf_concepts
from repro.streams.synthetic.random_tree import RandomTreeConcept, random_tree_concepts
from repro.streams.synthetic.hyperplane import HyperplaneConcept, hyperplane_concepts

__all__ = [
    "StaggerConcept",
    "stagger_concepts",
    "RandomRbfConcept",
    "rbf_concepts",
    "RandomTreeConcept",
    "random_tree_concepts",
    "HyperplaneConcept",
    "hyperplane_concepts",
]
