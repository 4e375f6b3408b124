"""Evaluation harness: campaigns, metrics and the paper's experiments."""

from repro.harness.campaign import CampaignSpec, TrialSet, run_campaign
from repro.harness.metrics import (
    coverage_increment_percent,
    coverage_speedup,
    detection_speedup,
    mean_coverage_curve,
    mean_detection_tests,
)
from repro.harness.experiments import (
    ExperimentConfig,
    Table1Result,
    CoverageStudy,
    run_table1,
    run_coverage_study,
    figure3_series,
    figure4_summary,
    run_alpha_ablation,
    run_gamma_ablation,
    run_arm_count_ablation,
    run_mutation_bandit_comparison,
)
from repro.harness.tables import render_table1, render_figure4_table, render_ablation_table
from repro.harness.figures import render_figure3, figure3_csv, figure4_csv
from repro.harness.report import build_experiments_report

__all__ = [
    "CampaignSpec",
    "TrialSet",
    "run_campaign",
    "coverage_increment_percent",
    "coverage_speedup",
    "detection_speedup",
    "mean_coverage_curve",
    "mean_detection_tests",
    "ExperimentConfig",
    "Table1Result",
    "CoverageStudy",
    "run_table1",
    "run_coverage_study",
    "figure3_series",
    "figure4_summary",
    "run_alpha_ablation",
    "run_gamma_ablation",
    "run_arm_count_ablation",
    "run_mutation_bandit_comparison",
    "render_table1",
    "render_figure4_table",
    "render_ablation_table",
    "render_figure3",
    "figure3_csv",
    "figure4_csv",
    "build_experiments_report",
]
