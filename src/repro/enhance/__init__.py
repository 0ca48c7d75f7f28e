"""Section 5 enhancements.

Link heterogeneity (:mod:`~repro.enhance.heterogeneity`), topology-aware
landmark binning (:mod:`~repro.enhance.binning`), and bypass links
(:mod:`~repro.enhance.bypass`).  Interest-based s-networks live in the
server's assignment policy (:mod:`repro.core.server`) and the workload
generator (:mod:`repro.workloads.keys`); the BitTorrent-style s-network
is a search strategy (:mod:`repro.core.search`).
"""

from .binning import choose_landmarks, coordinate_of, prefix_similarity
from .bypass import BypassLink, BypassMixin
from .heterogeneity import assign_roles, link_usage

__all__ = [
    "choose_landmarks",
    "coordinate_of",
    "prefix_similarity",
    "BypassLink",
    "BypassMixin",
    "assign_roles",
    "link_usage",
]
