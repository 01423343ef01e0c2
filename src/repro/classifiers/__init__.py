"""Incremental (streaming) classifiers.

The paper's systems all learn online, one observation at a time:

* :class:`HoeffdingTree` — the base learner of FiCSUM, HTCD, RCD and ARF
  (VFDT with Gaussian numeric attribute estimators and adaptive
  naive-Bayes leaves).
* :class:`GaussianNaiveBayes` — the DWM expert learner.
* :class:`MajorityClass`, :class:`KnnClassifier` — simple learners used
  in tests and examples.
"""

from repro.classifiers.base import Classifier
from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.classifiers.bank import ClassifierBank
from repro.classifiers.naive_bayes import GaussianNaiveBayes
from repro.classifiers.majority import MajorityClass
from repro.classifiers.knn import KnnClassifier

__all__ = [
    "Classifier",
    "ClassifierBank",
    "HoeffdingTree",
    "GaussianNaiveBayes",
    "MajorityClass",
    "KnnClassifier",
]
