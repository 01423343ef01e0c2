"""Incremental (streaming) classifiers.

The paper's systems all learn online, one observation at a time:

* :class:`HoeffdingTree` — the base learner of FiCSUM, HTCD, RCD, ARF
  and CPF (VFDT with Gaussian numeric attribute estimators and adaptive
  naive-Bayes leaves).
* :class:`GaussianNaiveBayes` — the DWM expert learner.
* :class:`MajorityClass` — the cheap non-tree learner the tests use.
"""

from repro.classifiers.base import Classifier
from repro.classifiers.hoeffding_tree import HoeffdingTree
from repro.classifiers.bank import ClassifierBank
from repro.classifiers.naive_bayes import GaussianNaiveBayes
from repro.classifiers.majority import MajorityClass

__all__ = [
    "Classifier",
    "ClassifierBank",
    "HoeffdingTree",
    "GaussianNaiveBayes",
    "MajorityClass",
]
