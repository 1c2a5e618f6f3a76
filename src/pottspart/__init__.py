"""Deterministic approximation of the ferromagnetic Potts partition function.

The package combines three layers:

* spectral partitioning of a graph into parts that induce expanders
  (:mod:`pottspart.partition`),
* polymer/cluster expansions around ground states on expanding parts
  (:mod:`pottspart.polymers`),
* approximation pipelines that assemble the two into certified estimates
  of ``log Z`` with explicit error bounds (:mod:`pottspart.potts`).

The exact log Z and conductance that the pipelines fall back on live in
:mod:`pottspart.oracle`.
"""

from .budgets import Budgets
from .errors import (
    BudgetError,
    ParseError,
    PottspartError,
    PreconditionError,
    VerificationError,
)
from .generate import (
    clique_chain,
    complete_graph,
    cycle_graph,
    generate_graph,
    random_regular,
)
from .graphs import Graph, induced_subgraph, is_alpha_expander, parse_graph, serialize_graph
from .oracle import exact_log_z, min_conductance
from .partition import (
    ExpanderPartition,
    PartitionParams,
    partition_into_expanders,
    verify_partition,
)
from .polymers import (
    ClusterExpansion,
    enumerate_polymers,
    kp_sufficient_beta,
    truncated_log_xi,
)
from .potts import (
    PottsResult,
    approx_log_z_expander,
    approx_log_z_good_parts,
    approx_log_z_sse,
    approx_log_z_with_partition,
    certified_alpha,
    required_beta_expander,
    required_beta_good_parts,
    required_beta_sse,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Budgets",
    "ClusterExpansion",
    "ExpanderPartition",
    "Graph",
    "ParseError",
    "PartitionParams",
    "PottsResult",
    "PottspartError",
    "PreconditionError",
    "VerificationError",
    "approx_log_z_expander",
    "approx_log_z_good_parts",
    "approx_log_z_sse",
    "approx_log_z_with_partition",
    "certified_alpha",
    "clique_chain",
    "complete_graph",
    "cycle_graph",
    "enumerate_polymers",
    "exact_log_z",
    "generate_graph",
    "induced_subgraph",
    "is_alpha_expander",
    "kp_sufficient_beta",
    "min_conductance",
    "parse_graph",
    "partition_into_expanders",
    "random_regular",
    "required_beta_expander",
    "required_beta_good_parts",
    "required_beta_sse",
    "serialize_graph",
    "truncated_log_xi",
    "verify_partition",
    "__version__",
]
