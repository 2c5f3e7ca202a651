"""Figure reproductions: the paper's Figures 1–7 as checked text tables.

:mod:`repro.analysis.figures` renders each figure, driven by
:mod:`repro.analysis.cases_driver` (Figure 5's recovery cases) and
:mod:`repro.analysis.residue` (Figures 6–7's spawn-state residue).
Parameter sweeps are registered scenarios in :mod:`repro.exp`;
statistics over replicated sweeps live in :mod:`repro.report`.
"""
