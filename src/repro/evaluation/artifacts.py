"""Write the full experiment bundle (tables, figure data) to disk.

``write_experiment_bundle(directory)`` regenerates every table and
figure of the paper into plain-text and CSV files — the command-line
analogue of EXPERIMENTS.md.  Each artifact is self-describing (header
comment naming the table/figure it regenerates).
"""

from __future__ import annotations

from pathlib import Path

from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import example_network_design, paper_designs
from repro.evaluation.availability import AvailabilityEvaluator
from repro.evaluation.charts import (
    radar_data,
    render_radar_table,
    render_scatter,
    scatter_data,
    to_csv,
)
from repro.evaluation.combined import evaluate_designs
from repro.evaluation.report import (
    aggregated_rates_table,
    design_comparison_table,
    security_metrics_table,
    vulnerability_table,
)
from repro.evaluation.requirements import (
    PAPER_REGION_1_MULTI_METRIC,
    PAPER_REGION_1_TWO_METRIC,
    PAPER_REGION_2_MULTI_METRIC,
    PAPER_REGION_2_TWO_METRIC,
    satisfying_designs,
)
from repro.evaluation.security import SecurityEvaluator
from repro.patching.policy import CriticalVulnerabilityPolicy, PatchPolicy

__all__ = ["write_experiment_bundle"]


def _write(directory: Path, name: str, header: str, body: str) -> Path:
    path = directory / name
    path.write_text(f"# {header}\n{body}\n", encoding="utf-8")
    return path


def write_experiment_bundle(
    directory: str | Path,
    case_study: EnterpriseCaseStudy | None = None,
    policy: PatchPolicy | None = None,
) -> list[Path]:
    """Regenerate every paper artifact under *directory*.

    Returns the written file paths (ten files).  The directory is
    created if missing; existing files are overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if case_study is None:
        case_study = paper_case_study()
    if policy is None:
        policy = CriticalVulnerabilityPolicy()

    example = example_network_design()
    security = SecurityEvaluator(case_study)
    availability = AvailabilityEvaluator(case_study, policy)
    # Table VI from the paper's upper-layer SRN.
    table6_coa = availability.network_model(
        example
    ).capacity_oriented_availability()
    evaluations = evaluate_designs(
        paper_designs(), case_study=case_study, policy=policy
    )

    written = [
        _write(
            directory,
            "table1_vulnerabilities.txt",
            "Table I: vulnerability information of the example network",
            vulnerability_table(case_study),
        ),
        _write(
            directory,
            "table2_security_metrics.txt",
            "Table II: security metrics before/after patch",
            security_metrics_table(
                security.before_patch(example),
                security.after_patch(example, policy),
            ),
        ),
        _write(
            directory,
            "table5_aggregated_rates.txt",
            "Table V: aggregated patch/recovery rates (Eqs. 1-2)",
            aggregated_rates_table(availability.aggregates_for(example)),
        ),
        _write(
            directory,
            "table6_coa.txt",
            "Table VI: capacity oriented availability",
            f"COA({example.label}) = {table6_coa:.6f}",
        ),
        _write(
            directory,
            "fig6_scatter_before.txt",
            "Fig. 6a: ASP vs COA before patch",
            render_scatter(scatter_data(evaluations, after_patch=False)),
        ),
        _write(
            directory,
            "fig6_scatter_after.txt",
            "Fig. 6b: ASP vs COA after patch",
            render_scatter(scatter_data(evaluations, after_patch=True)),
        ),
        _write(
            directory,
            "fig7_radar_before.txt",
            "Fig. 7a: six metrics before patch",
            render_radar_table(radar_data(evaluations, after_patch=False)),
        ),
        _write(
            directory,
            "fig7_radar_after.txt",
            "Fig. 7b: six metrics after patch",
            render_radar_table(radar_data(evaluations, after_patch=True)),
        ),
        _write(
            directory,
            "design_comparison.csv",
            "per-design metrics after patch (CSV)",
            to_csv(evaluations, after_patch=True),
        ),
    ]

    selections = []
    for name, region in (
        ("Eq.3 region 1", PAPER_REGION_1_TWO_METRIC),
        ("Eq.3 region 2", PAPER_REGION_2_TWO_METRIC),
        ("Eq.4 region 1", PAPER_REGION_1_MULTI_METRIC),
        ("Eq.4 region 2", PAPER_REGION_2_MULTI_METRIC),
    ):
        labels = [e.label for e in satisfying_designs(evaluations, region)]
        selections.append(f"{name}: {', '.join(labels) if labels else '(none)'}")
    written.append(
        _write(
            directory,
            "design_selections.txt",
            "Eq. (3)/(4) design selections",
            "\n".join([design_comparison_table(evaluations), ""] + selections),
        )
    )
    return written
