"""Workloads: the model zoo, dataset catalog, traces, curriculum."""

from repro.workloads.curriculum import ExponentialPacing, simulate_curriculum_jct
from repro.workloads.datasets import TABLE4_DATASETS, default_registry, synthetic_images
from repro.workloads.models import FIGURE6_JOBS, MODEL_ZOO, make_job
from repro.workloads.trace import TraceConfig, generate_trace, microbenchmark_trace
from repro.workloads.trace_io import load_trace, save_trace, trace_summary

__all__ = [
    "MODEL_ZOO",
    "FIGURE6_JOBS",
    "make_job",
    "TABLE4_DATASETS",
    "default_registry",
    "synthetic_images",
    "TraceConfig",
    "generate_trace",
    "microbenchmark_trace",
    "save_trace",
    "load_trace",
    "trace_summary",
    "ExponentialPacing",
    "simulate_curriculum_jct",
]
