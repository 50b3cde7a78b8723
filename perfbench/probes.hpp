// Per-layer probes of the traced run: each one times a public entry point of
// one module on the workload's own state (mesh, coefficients, boundary
// conditions, solver configuration), under a span named after the metric it
// feeds.
#pragma once

#include "nonlin/newton.hpp"
#include "record.hpp"
#include "saddle/stokes_solver.hpp"

namespace perfbench {

struct ProbeState {
  const ptatin::StructuredMesh& mesh;
  const ptatin::QuadCoefficients& coeff;
  const ptatin::DirichletBc& bc;
  const ptatin::Vector& f; ///< body force on this state
  ptatin::StokesSolverOptions opts; ///< bc_factory and engine filled in
};

/// Solver-layer probes: cold and warm StokesSolver construction, one Stokes
/// operator apply, one V-cycle, one fine-level apply (with its cost model),
/// a GmgHierarchy built twice through a timed coarse-solver factory (AMG
/// setup, coarsest-level solves, RAP refresh), one parallel_for region over
/// the coarsest-level size and one Vector::dot at the fine velocity size.
/// With `solve`, also one StokesSolver::solve (seconds and iterations).
void probe_solver_layers(const ProbeState& s, bool solve, Trace& trace,
                         Metrics& m);

} // namespace perfbench
