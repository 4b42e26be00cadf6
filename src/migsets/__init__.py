"""Minimal invariable generating sets of symmetric groups.

Partition machinery, explicit family constructions, exact extremal searches,
a small-degree maximal-subgroup oracle, and the counting bounds that together
pin m_I(S_n) between n/2 - log2(n) and n/2 + O(log n).
"""

from .bounds import (
    BoundReport,
    BoundsError,
    bound_report,
    corollary_inequality,
    final_inequality_holds,
    table1_lookup,
    upper_bound,
)
from .constructions import (
    ConstructionError,
    LemmaPartition,
    XFamily,
    build_x_family,
    family_from_members,
    lemma_partition,
    verify_lemma,
    verify_mig_lower_bound,
    verify_x_family,
)
from .family_search import (
    SearchError,
    SearchResult,
    iter_families,
    max_family,
    max_family_bruteforce,
)
from .partitions import (
    Partition,
    PartialSumMask,
    PartitionError,
    PartitionTooLarge,
    enumerate_partitions,
    is_partial_sum,
    jordan_witness,
    parity,
    partial_sums,
    power_type,
    wreath_realizable,
    wreath_types,
)
from .perms import PermGroup, cycle_type, format_cycles, from_cycles, parse_cycles
from .subgroup_oracle import (
    OracleError,
    class_meets_subgroup,
    invariably_generates,
    is_mig_set,
    max_family_intransitive_imprimitive,
    maximal_subgroups,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundsError",
    "ConstructionError",
    "LemmaPartition",
    "OracleError",
    "PartialSumMask",
    "Partition",
    "PartitionError",
    "PartitionTooLarge",
    "PermGroup",
    "SearchError",
    "SearchResult",
    "XFamily",
    "bound_report",
    "build_x_family",
    "class_meets_subgroup",
    "corollary_inequality",
    "cycle_type",
    "enumerate_partitions",
    "family_from_members",
    "final_inequality_holds",
    "format_cycles",
    "from_cycles",
    "invariably_generates",
    "is_mig_set",
    "is_partial_sum",
    "iter_families",
    "jordan_witness",
    "lemma_partition",
    "max_family",
    "max_family_bruteforce",
    "max_family_intransitive_imprimitive",
    "maximal_subgroups",
    "parity",
    "parse_cycles",
    "partial_sums",
    "power_type",
    "table1_lookup",
    "upper_bound",
    "verify_lemma",
    "verify_mig_lower_bound",
    "verify_x_family",
    "wreath_realizable",
    "wreath_types",
    "__version__",
]
