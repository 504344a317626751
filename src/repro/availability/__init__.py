"""The paper's hierarchical availability model.

Lower layer (:mod:`repro.availability.server`): one SRN per server with
hardware, OS, service and patch-clock sub-models (Fig. 5, guards of
Table III).  :mod:`repro.availability.measures` extracts the steady-state
probabilities (p_up, p_pd, p_prrb) and
:mod:`repro.availability.aggregation` collapses them into the equivalent
patch/recovery rates of Eqs. (1)-(2) (Table V).

Upper layer (:mod:`repro.availability.network`): one two-state chain per
server with marking-dependent rates (Fig. 4), grouped into tiers of
identical servers; a homogeneous role is a one-group tier, and a tier
that mixes software variants has one group per variant.  The
capacity-oriented availability (COA) reward of Table VI is evaluated on
the joint model.  Because those chains are independent, COA factorises
per tier: :mod:`repro.availability.product_form` computes it — steady, over time
and under staged campaigns — in closed form, and that is the path the
evaluators take.  The SRN model stays the paper-faithful oracle.
"""

from repro.availability.aggregation import ServiceAggregate, aggregate_service
from repro.availability.coa import coa_reward
from repro.availability.measures import ServerMeasures, compute_measures
from repro.availability.network import NetworkAvailabilityModel
from repro.availability.parameters import (
    APP_VULN_PATCH_MINUTES,
    OS_VULN_PATCH_MINUTES,
    ComponentRates,
    PatchPipeline,
    ServerParameters,
    dns_server_parameters,
    paper_server_parameters,
)
from repro.availability.product_form import product_form_coa
from repro.availability.server import build_server_srn, solve_server
from repro.availability.survivability import mean_time_to_outage, transient_coa

__all__ = [
    "ComponentRates",
    "PatchPipeline",
    "ServerParameters",
    "dns_server_parameters",
    "paper_server_parameters",
    "APP_VULN_PATCH_MINUTES",
    "OS_VULN_PATCH_MINUTES",
    "build_server_srn",
    "solve_server",
    "ServerMeasures",
    "compute_measures",
    "ServiceAggregate",
    "aggregate_service",
    "NetworkAvailabilityModel",
    "coa_reward",
    "product_form_coa",
    "mean_time_to_outage",
    "transient_coa",
]
