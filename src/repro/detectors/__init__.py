"""Concept drift detectors.

FiCSUM feeds a sequence of fingerprint-similarity values into ADWIN to
detect drift (Section III-A).  The comparison frameworks use error-rate
detectors on the 0/1 error stream: HTCD uses ADWIN, ARF one ADWIN per
tree for warnings and one for drifts, RCD uses EDDM and CPF uses DDM.
"""

from repro.detectors.base import DriftDetector
from repro.detectors.adwin import Adwin
from repro.detectors.ddm import Ddm
from repro.detectors.eddm import Eddm

__all__ = ["DriftDetector", "Adwin", "Ddm", "Eddm"]
