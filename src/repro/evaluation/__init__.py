"""Combined security/availability evaluation (the paper's phase 3).

:class:`SecurityEvaluator` and :class:`AvailabilityEvaluator` wrap the
two model pipelines; :func:`evaluate_design` produces the
before/after-patch snapshot a design gets in Figs. 6-7;
:mod:`repro.evaluation.requirements` implements the Eq. (3) and Eq. (4)
decision functions; :mod:`repro.evaluation.report` renders the paper's
tables; :mod:`repro.evaluation.charts` produces the scatter/radar data
(and ASCII renderings); :mod:`repro.evaluation.sweep` explores larger
design spaces — homogeneous replica counts and heterogeneous variant
assignments alike, unified behind the
:class:`~repro.enterprise.design.DesignSpec` protocol;
:mod:`repro.evaluation.engine` scales those sweeps with a memo, an
optional sqlite tier and chunked in-process dispatch;
:mod:`repro.evaluation.service` keeps warm engines resident behind an
HTTP/JSON API (``repro serve``);
:mod:`repro.evaluation.cost` adds the operational-cost
extension sketched in Section V.
"""

from repro.evaluation.artifacts import write_experiment_bundle
from repro.evaluation.availability import AvailabilityEvaluator
from repro.evaluation.cache import PersistentEvaluationCache
from repro.evaluation.combined import (
    DesignEvaluation,
    DesignSnapshot,
    evaluate_design,
    evaluate_designs,
    evaluate_designs_shared,
)
from repro.evaluation.engine import SweepEngine
from repro.evaluation.requirements import (
    MultiMetricRequirement,
    TwoMetricRequirement,
    satisfying_designs,
)
from repro.evaluation.security import SecurityEvaluator
from repro.evaluation.service import EvaluationService, ServiceClient
from repro.evaluation.sensitivity import SensitivityEntry, coa_sensitivity
from repro.evaluation.sweep import (
    enumerate_designs,
    enumerate_heterogeneous_designs,
    pareto_front,
    pareto_front_loop,
    sweep_designs,
)
from repro.evaluation.timeline import (
    DesignTimeline,
    default_time_grid,
    evaluate_timeline,
    evaluate_timelines,
    evaluate_timelines_shared,
)

__all__ = [
    "SecurityEvaluator",
    "AvailabilityEvaluator",
    "DesignSnapshot",
    "DesignEvaluation",
    "evaluate_design",
    "evaluate_designs",
    "evaluate_designs_shared",
    "SweepEngine",
    "TwoMetricRequirement",
    "MultiMetricRequirement",
    "satisfying_designs",
    "enumerate_designs",
    "enumerate_heterogeneous_designs",
    "sweep_designs",
    "pareto_front",
    "pareto_front_loop",
    "SensitivityEntry",
    "coa_sensitivity",
    "write_experiment_bundle",
    "DesignTimeline",
    "default_time_grid",
    "evaluate_timeline",
    "evaluate_timelines",
    "evaluate_timelines_shared",
    "PersistentEvaluationCache",
    "EvaluationService",
    "ServiceClient",
]
