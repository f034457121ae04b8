"""Homoclinic solutions of discrete p-Laplacian equations.

Library + CLI for finding critical points of the energy

    J(u) = ||u||^p / p - lambda * sum_k F(k, u(k))

on truncated integer lattices, auditing structural conditions on the
nonlinearity, and realizing the nested-subspace geometry that drives the
unbounded critical-value ladder.
"""

from .fountain import (BasisSplit, FountainGeometryError, FountainRow,
                       embedding_constant, embedding_maximizer,
                       embedding_profile, fountain_table,
                       sample_sphere, sup_norm_constant,
                       superlinearity_threshold, verify_energy_ceiling,
                       verify_energy_floor, y_sphere_radius, z_sphere_radius)
from .hypotheses import (CONDITIONS, HypothesisReport, InconsistencyDemo,
                         PositivityReport, PreconditionViolation, SamplingPlan,
                         check_all, check_hypothesis, inconsistency_demo,
                         positivity_check)
from .lattice import (CoefficientField, EnergyParts, LatticeSeq, ProblemSpec,
                      Window, cerami_metric, energy, energy_many, energy_parts,
                      forward_diff, lp_norm, phi_p, phi_p_prime, residual,
                      residual_many, sup_norm, tail_mass, weighted_norm,
                      weighted_norm_many)
from .nonlinearity import CustomNonlinearity, LogPower, Nonlinearity, PurePower
from .solver import (ContinuationReport, MountainPassError, SolutionSet,
                     SolveResult, SolverConfig, bump_amplitude, deflated_solve,
                     find_critical_points, mountain_pass, newton_solve,
                     solution_sequence, window_continuation)

__version__ = "0.1.0"
