"""Experiment runners: one module per paper figure/table.

Each module exposes a ``run(...)`` function with scaled-down defaults
that finish in seconds, returning a result object whose fields map
one-to-one onto the figure's panels.  The benchmark suite calls these
and prints paper-style rows; EXPERIMENTS.md records paper-vs-measured.
Grid experiments also declare a ``SPEC`` (:class:`repro.experiments.
common.ExperimentSpec`) from which the runner grids and the CLI
subcommands are generated.

Modules (import directly, e.g. ``from repro.experiments import
case1_incast``):

* ``motivation``        — Figures 1-3 analogues
* ``case1_incast``      — Figure 4
* ``case2_migration``   — Figure 5
* ``fig11_guarantee``   — Figure 11
* ``fig12_incast``      — Figure 12
* ``fig13_memcached``   — Figure 13
* ``fig14_ebs``         — Figure 14
* ``fig15_hardware``    — Figure 15
* ``fig16_dynamic``     — Figure 16
* ``fig17_realworkload``— Figure 17
* ``fig18_sensitivity`` — Figure 18
* ``fig20_async``       — Figure 20 (Appendix D)
* ``appc_theory``       — Figure 19 / Appendix C
"""
