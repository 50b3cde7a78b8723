// Output checks. Each one is computed apart from the code path it judges:
// the Stokes residual uses the assembled back-end (the solver runs the
// tensor back-end) and a gradient block assembled here from first
// principles; the time-stepping checks test properties every valid state
// must have. Every check returns "" when the output passes and a reason
// otherwise, and self_test_* corrupt a copy of a good output to show that
// each check rejects what it is meant to reject.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fem/bc.hpp"
#include "fem/mesh.hpp"
#include "la/vector.hpp"
#include "mpm/points.hpp"
#include "mpm/population.hpp"
#include "stokes/coefficient.hpp"

namespace ptatin {
class AsmbViscousOperator;
}

namespace perfbench {

using ptatin::Index;
using ptatin::Real;

/// r_u = f - A u - B p (constrained rows zeroed) and r_p = -B^T u, with A
/// the assembled viscous operator and B assembled element by element here.
struct StokesResidual {
  ptatin::Vector ru, rp;
  Real rel = 0;       ///< ||[r_u; r_p]|| / ||f masked||
  Real rhs_norm = 0;
  Real uAu = 0, fu = 0;
};

class StokesChecker {
public:
  /// The sinker geometry (sphere centres and radius) is an input of the
  /// workload; mesh/coeff/bc/f are borrowed for the checker's lifetime.
  StokesChecker(const ptatin::StructuredMesh& mesh,
                const ptatin::QuadCoefficients& coeff,
                const ptatin::DirichletBc& bc, const ptatin::Vector& f,
                std::vector<ptatin::Vec3> centers, Real radius);
  ~StokesChecker();

  StokesResidual residual(const ptatin::Vector& u,
                          const ptatin::Vector& p) const;

  /// True relative residual within twice rtol (checks.cpp says why), power
  /// balance u^T A u = f^T u within the bound that residual implies, and the
  /// dense spheres sinking.
  /// `summary` (optional) receives the residual and the two powers.
  std::string check(const ptatin::Vector& u, const ptatin::Vector& p,
                    Real rtol, std::string* summary = nullptr) const;

  /// Must reject a scaled velocity, a NaN and a reversed flow; returns ""
  /// when every corruption is rejected.
  std::string self_test(const ptatin::Vector& u, const ptatin::Vector& p,
                        Real rtol) const;

private:
  const ptatin::StructuredMesh& mesh_;
  const ptatin::DirichletBc& bc_;
  const ptatin::Vector& f_;
  std::vector<ptatin::Vec3> centers_;
  Real radius_;
  std::unique_ptr<ptatin::AsmbViscousOperator> a_;
};

/// Bounds a time-stepped state must satisfy after every step.
struct StateBounds {
  ptatin::PopulationOptions population;
  bool check_temperature = false;
  Real t_min = 0, t_max = 0; ///< allowed temperature range (incl. overshoot)
};

/// Finite fields (coordinates, u, p, T, point positions), positive Jacobian
/// determinant everywhere, every point located, and every element's point
/// count inside the population-control band; temperatures inside the range.
std::string check_state(const ptatin::StructuredMesh& mesh,
                        const ptatin::Vector& u, const ptatin::Vector& p,
                        const ptatin::Vector& T,
                        const ptatin::MaterialPoints& points,
                        const StateBounds& bounds);

/// Must reject a NaN velocity, an emptied element, an inverted element and
/// (when checked) an out-of-range temperature.
std::string self_test_state(const ptatin::StructuredMesh& mesh,
                            const ptatin::Vector& u, const ptatin::Vector& p,
                            const ptatin::Vector& T,
                            const ptatin::MaterialPoints& points,
                            const StateBounds& bounds);

} // namespace perfbench
