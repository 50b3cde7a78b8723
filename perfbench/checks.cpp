#include "checks.hpp"

#include <cmath>
#include <cstdio>

#include "ale/mesh_update.hpp"
#include "stokes/viscous_ops.hpp"

namespace perfbench {

using namespace ptatin;

namespace {

/// The true residual may exceed the solver's rtol by this factor. GCR keeps
/// its recurrence residual across restarts without recomputing b - Ax, and
/// the two drift apart: on the m = 16 sinker the returned solution's true
/// residual is 1.673 rtol while the recurrence reads below rtol.
constexpr Real kResidualAllowance = 2.0;

std::string fmt(const char* f, double a, double b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

bool all_finite(const Real* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(v[i])) return false;
  return true;
}

bool all_finite(const Vector& v) {
  return all_finite(v.data(), std::size_t(v.size()));
}

/// 1-D quadratic Lagrange basis on the nodes -1, 0, 1 and its derivative.
void q2_1d(Real x, Real l[3], Real dl[3]) {
  l[0] = 0.5 * x * (x - 1);
  l[1] = 1 - x * x;
  l[2] = 0.5 * x * (x + 1);
  dl[0] = x - 0.5;
  dl[1] = -2 * x;
  dl[2] = x + 0.5;
}

/// r_u -= B p and r_p = -B^T u, with B[(n,c),(e,k)] = -int_e psi_k
/// dN_n/dx_c dV: Q2 velocity, discontinuous P1 pressure in the element's
/// bounding-box frame (psi = 1, (x-x_c)/h_x, ...), trilinear geometry from
/// the corners and the 3x3x3 Gauss rule, written out here independently of
/// the program's assembly.
void apply_gradient(const StructuredMesh& mesh, const Vector& u,
                    const Vector& p, Vector& ru, Vector& rp) {
  const Real g = std::sqrt(Real(0.6));
  const Real gx[3] = {-g, 0, g};
  const Real gw[3] = {Real(5) / 9, Real(8) / 9, Real(5) / 9};
  rp.resize(4 * mesh.num_elements());
  for (Index ek = 0; ek < mesh.mz(); ++ek)
    for (Index ej = 0; ej < mesh.my(); ++ej)
      for (Index ei = 0; ei < mesh.mx(); ++ei) {
        const Index e = mesh.element_index(ei, ej, ek);
        Real xc[8][3];
        for (int c = 0; c < 8; ++c) {
          const Vec3 x = mesh.node_coord(mesh.node_index(
              2 * ei + 2 * (c & 1), 2 * ej + 2 * ((c >> 1) & 1),
              2 * ek + 2 * (c >> 2)));
          for (int d = 0; d < 3; ++d) xc[c][d] = x[d];
        }
        Real lo[3] = {xc[0][0], xc[0][1], xc[0][2]};
        Real hi[3] = {lo[0], lo[1], lo[2]};
        for (int c = 1; c < 8; ++c)
          for (int d = 0; d < 3; ++d) {
            lo[d] = std::min(lo[d], xc[c][d]);
            hi[d] = std::max(hi[d], xc[c][d]);
          }
        Index dof[27][3];
        for (int n = 0; n < 27; ++n) {
          const Index node = mesh.node_index(2 * ei + n % 3,
                                             2 * ej + (n / 3) % 3,
                                             2 * ek + n / 9);
          for (int c = 0; c < 3; ++c) dof[n][c] = 3 * node + c;
        }
        Real be[27][3][4] = {};
        for (int qk = 0; qk < 3; ++qk)
          for (int qj = 0; qj < 3; ++qj)
            for (int qi = 0; qi < 3; ++qi) {
              const Real xi[3] = {gx[qi], gx[qj], gx[qk]};
              const Real w = gw[qi] * gw[qj] * gw[qk];
              // Trilinear geometry: x(xi) and J = dx/dxi.
              Real xq[3] = {0, 0, 0}, jac[3][3] = {};
              for (int c = 0; c < 8; ++c) {
                const Real s[3] = {(c & 1) ? 1.0 : -1.0,
                                   ((c >> 1) & 1) ? 1.0 : -1.0,
                                   (c >> 2) ? 1.0 : -1.0};
                const Real f[3] = {0.5 * (1 + s[0] * xi[0]),
                                   0.5 * (1 + s[1] * xi[1]),
                                   0.5 * (1 + s[2] * xi[2])};
                const Real dn[3] = {0.5 * s[0] * f[1] * f[2],
                                    0.5 * s[1] * f[0] * f[2],
                                    0.5 * s[2] * f[0] * f[1]};
                const Real n = f[0] * f[1] * f[2];
                for (int r = 0; r < 3; ++r) {
                  xq[r] += n * xc[c][r];
                  for (int d = 0; d < 3; ++d) jac[r][d] += xc[c][r] * dn[d];
                }
              }
              const Real det =
                  jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1]) -
                  jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0]) +
                  jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]);
              // inv[d][r] = dxi_d / dx_r.
              Real inv[3][3];
              inv[0][0] = (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1]) / det;
              inv[0][1] = (jac[0][2] * jac[2][1] - jac[0][1] * jac[2][2]) / det;
              inv[0][2] = (jac[0][1] * jac[1][2] - jac[0][2] * jac[1][1]) / det;
              inv[1][0] = (jac[1][2] * jac[2][0] - jac[1][0] * jac[2][2]) / det;
              inv[1][1] = (jac[0][0] * jac[2][2] - jac[0][2] * jac[2][0]) / det;
              inv[1][2] = (jac[0][2] * jac[1][0] - jac[0][0] * jac[1][2]) / det;
              inv[2][0] = (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]) / det;
              inv[2][1] = (jac[0][1] * jac[2][0] - jac[0][0] * jac[2][1]) / det;
              inv[2][2] = (jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]) / det;
              Real psi[4] = {1, 0, 0, 0};
              for (int d = 0; d < 3; ++d) {
                const Real half = 0.5 * (hi[d] - lo[d]);
                psi[1 + d] =
                    (xq[d] - 0.5 * (lo[d] + hi[d])) * (half > 0 ? 1 / half : 1);
              }
              Real l[3][3], dl[3][3];
              for (int d = 0; d < 3; ++d) q2_1d(xi[d], l[d], dl[d]);
              for (int n = 0; n < 27; ++n) {
                const int a = n % 3, b = (n / 3) % 3, c = n / 9;
                const Real dxi[3] = {dl[0][a] * l[1][b] * l[2][c],
                                     l[0][a] * dl[1][b] * l[2][c],
                                     l[0][a] * l[1][b] * dl[2][c]};
                for (int r = 0; r < 3; ++r) {
                  const Real gr =
                      dxi[0] * inv[0][r] + dxi[1] * inv[1][r] + dxi[2] * inv[2][r];
                  for (int k = 0; k < 4; ++k)
                    be[n][r][k] -= w * det * psi[k] * gr;
                }
              }
            }
        for (int k = 0; k < 4; ++k) rp[4 * e + k] = 0;
        for (int n = 0; n < 27; ++n)
          for (int c = 0; c < 3; ++c) {
            Real bp = 0;
            for (int k = 0; k < 4; ++k) {
              bp += be[n][c][k] * p[4 * e + k];
              rp[4 * e + k] -= be[n][c][k] * u[dof[n][c]];
            }
            ru[dof[n][c]] -= bp;
          }
      }
}

} // namespace

StokesChecker::StokesChecker(const StructuredMesh& mesh,
                             const QuadCoefficients& coeff,
                             const DirichletBc& bc, const Vector& f,
                             std::vector<Vec3> centers, Real radius)
    : mesh_(mesh), bc_(bc), f_(f), centers_(std::move(centers)),
      radius_(radius),
      a_(std::make_unique<AsmbViscousOperator>(mesh, coeff, nullptr)) {}

StokesChecker::~StokesChecker() = default;

StokesResidual StokesChecker::residual(const Vector& u, const Vector& p) const {
  StokesResidual r;
  Vector au;
  a_->apply(u, au);
  r.ru.copy_from(f_);
  r.ru.axpy(-1.0, au);
  apply_gradient(mesh_, u, p, r.ru, r.rp);
  bc_.zero_constrained(r.ru);
  Vector b;
  b.copy_from(f_);
  bc_.zero_constrained(b);
  r.rhs_norm = b.norm2();
  const Real nu = r.ru.norm2(), np = r.rp.norm2();
  r.rel = std::sqrt(nu * nu + np * np) / r.rhs_norm;
  r.uAu = u.dot(au);
  r.fu = f_.dot(u);
  return r;
}

std::string StokesChecker::check(const Vector& u, const Vector& p, Real rtol,
                                 std::string* summary) const {
  if (!all_finite(u) || !all_finite(p)) return "non-finite solution";
  const StokesResidual r = residual(u, p);
  if (summary != nullptr) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "true rel. residual %.3e (%.3f rtol), u'Au = %.6e, "
                  "f'u = %.6e", r.rel, r.rel / rtol, r.uAu, r.fu);
    *summary = buf;
  }
  const Real limit = kResidualAllowance * rtol;
  if (!(r.rel <= limit))
    return fmt("true relative residual %.3e above %.1e", r.rel, limit);
  // u^T A u - f^T u = -u^T r_u + p^T r_p, so a residual within the limit
  // bounds the power imbalance by limit ||f|| (||u|| + ||p||).
  const Real gap = std::abs(r.uAu - r.fu);
  const Real bound = limit * r.rhs_norm * (u.norm2() + p.norm2()) +
                     1e-12 * (std::abs(r.uAu) + std::abs(r.fu));
  if (!(r.uAu > 0 && r.fu > 0) || !(gap <= bound))
    return fmt("power balance: |u'Au - f'u| = %.3e exceeds %.3e", gap, bound);
  // Dense spheres sink: the mean vertical velocity at the velocity nodes
  // inside them is negative.
  Real sum = 0;
  Index count = 0;
  for (Index n = 0; n < mesh_.num_nodes(); ++n) {
    const Vec3 x = mesh_.node_coord(n);
    for (const Vec3& c : centers_) {
      const Real d2 = (x[0] - c[0]) * (x[0] - c[0]) +
                      (x[1] - c[1]) * (x[1] - c[1]) +
                      (x[2] - c[2]) * (x[2] - c[2]);
      if (d2 < radius_ * radius_) {
        sum += u[3 * n + 2];
        ++count;
        break;
      }
    }
  }
  if (count == 0 || !(sum / Real(count) < 0))
    return fmt("spheres do not sink: mean w = %.3e over %.0f nodes",
               count ? sum / Real(count) : 0.0, double(count));
  return "";
}

std::string StokesChecker::self_test(const Vector& u, const Vector& p,
                                     Real rtol) const {
  Vector bad;
  bad.copy_from(u);
  bad.scale(1.001);
  if (check(bad, p, rtol).rfind("true relative residual", 0) != 0)
    return "a velocity scaled by 1.001 passed the residual check";
  bad.copy_from(u);
  for (Index i = 0; i < bad.size(); ++i)
    if (!bc_.is_constrained(i)) {
      bad[i] = std::nan("");
      break;
    }
  if (check(bad, p, rtol) != "non-finite solution")
    return "a NaN velocity passed the finiteness check";
  bad.copy_from(u);
  bad.scale(-1.0);
  if (check(bad, p, rtol).empty())
    return "a reversed flow passed the checks";
  return "";
}

std::string check_state(const StructuredMesh& mesh, const Vector& u,
                        const Vector& p, const Vector& T,
                        const MaterialPoints& points,
                        const StateBounds& bounds) {
  if (!all_finite(mesh.coords().data(), mesh.coords().size()))
    return "non-finite mesh coordinates";
  if (!all_finite(u) || !all_finite(p) || !all_finite(T))
    return "non-finite field";
  const Real detj = min_jacobian_determinant(mesh);
  if (!(detj > 0)) return fmt("min Jacobian determinant %.3e <= 0", detj);
  std::vector<Index> count(mesh.num_elements(), 0);
  for (Index i = 0; i < points.size(); ++i) {
    const Vec3 x = points.position(i);
    if (!std::isfinite(x[0]) || !std::isfinite(x[1]) || !std::isfinite(x[2]))
      return "non-finite material point position";
    const Index e = points.element(i);
    if (e < 0 || e >= mesh.num_elements()) return "unlocated material point";
    ++count[e];
  }
  for (Index e = 0; e < mesh.num_elements(); ++e)
    if (count[e] < bounds.population.min_per_element ||
        count[e] > bounds.population.max_per_element)
      return fmt("element %.0f holds %.0f material points", double(e),
                 double(count[e]));
  if (bounds.check_temperature)
    for (Index v = 0; v < T.size(); ++v)
      if (T[v] < bounds.t_min || T[v] > bounds.t_max)
        return fmt("temperature %.4f outside [%.4f, t_max]", T[v],
                   bounds.t_min);
  return "";
}

std::string self_test_state(const StructuredMesh& mesh, const Vector& u,
                            const Vector& p, const Vector& T,
                            const MaterialPoints& points,
                            const StateBounds& bounds) {
  Vector bad;
  bad.copy_from(u);
  bad[bad.size() / 2] = std::nan("");
  if (check_state(mesh, bad, p, T, points, bounds) != "non-finite field")
    return "a NaN velocity passed the finiteness check";

  MaterialPoints emptied = points;
  const Index victim = points.element(0);
  for (Index i = 0; i < emptied.size();) {
    if (emptied.element(i) == victim) {
      emptied.remove(i);
    } else {
      ++i;
    }
  }
  if (check_state(mesh, u, p, T, emptied, bounds).find("material points") ==
      std::string::npos)
    return "an emptied element passed the population check";

  // Pull the far corner node of element 0 back through its opposite corner.
  StructuredMesh tangled = mesh;
  const Vec3 a = mesh.node_coord(mesh.node_index(0, 0, 0));
  const Vec3 b = mesh.node_coord(mesh.node_index(2, 2, 2));
  tangled.set_node_coord(mesh.node_index(2, 2, 2),
                         Vec3{2 * a[0] - b[0], 2 * a[1] - b[1], 2 * a[2] - b[2]});
  if (check_state(tangled, u, p, T, points, bounds).rfind("min Jacobian", 0) !=
      0)
    return "an inverted element passed the Jacobian check";

  if (bounds.check_temperature) {
    Vector hot;
    hot.copy_from(T);
    hot[hot.size() / 2] = bounds.t_max + 0.5;
    if (check_state(mesh, u, p, hot, points, bounds)
            .rfind("temperature", 0) != 0)
      return "an out-of-range temperature passed the range check";
  }
  return "";
}

} // namespace perfbench
