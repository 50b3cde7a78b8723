#include "probes.hpp"

#include "amg/rbm.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace perfbench {

using namespace ptatin;

namespace {

template <class F>
double timed(Trace& t, const char* span, F&& fn) {
  Scope s(t, span);
  const double t0 = now_seconds();
  fn();
  return now_seconds() - t0;
}

template <class F>
double median_of(int reps, Trace& t, const char* span, F&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(timed(t, span, fn));
  return median(v);
}

/// The coarse solver the factory built, with every application timed.
class TimedCoarseSolve : public Preconditioner {
public:
  TimedCoarseSolve(std::unique_ptr<Preconditioner> inner, Trace& trace,
                   std::vector<double>& samples)
      : inner_(std::move(inner)), trace_(trace), samples_(samples) {}
  void apply(const Vector& r, Vector& z) const override {
    samples_.push_back(timed(trace_, "mg.coarse_solve",
                             [&] { inner_->apply(r, z); }));
  }

private:
  std::unique_ptr<Preconditioner> inner_;
  Trace& trace_;
  std::vector<double>& samples_;
};

} // namespace

void probe_solver_layers(const ProbeState& s, bool solve, Trace& trace,
                         Metrics& m) {
  const double nel = double(s.mesh.num_elements());

  StokesSolverOptions cold = s.opts;
  cold.gmg.setup_cache = nullptr;
  m.set("saddle.pc_setup_s", median_of(3, trace, "saddle.pc_setup", [&] {
          StokesSolver fresh(s.mesh, s.coeff, s.bc, cold);
        }),
        "s");
  // A cache filled by one earlier build, as every Newton step's rebuild
  // after the first one sees it.
  GmgSetupCache cache;
  StokesSolverOptions warm = s.opts;
  warm.gmg.setup_cache = &cache;
  { StokesSolver fill(s.mesh, s.coeff, s.bc, warm); }
  m.set("saddle.pc_setup_warm_s",
        median_of(3, trace, "saddle.pc_setup_warm",
                  [&] { StokesSolver rebuilt(s.mesh, s.coeff, s.bc, warm); }),
        "s");

  StokesSolver solver(s.mesh, s.coeff, s.bc, cold);
  Vector r;
  r.copy_from(s.f);
  s.bc.zero_constrained(r);
  Vector x, y, z;
  solver.op().combine(r, Vector(num_pressure_dofs(s.mesh), 1.0), x);
  m.set("saddle.matmult_s", median_of(10, trace, "saddle.matmult", [&] {
          solver.op().apply(x, y);
        }),
        "s");
  m.set("mg.pc_apply_s", median_of(5, trace, "mg.pc_apply", [&] {
          solver.velocity_pc().apply(r, z);
        }),
        "s");
  const ViscousOperatorBase& fine = solver.gmg()->fine_operator();
  const double t_fine =
      median_of(20, trace, "stokes.fine_apply", [&] { fine.apply(r, y); });
  const OperatorCostModel cost = fine.cost_model();
  m.set("stokes.fine_apply_s", t_fine, "s");
  m.set("stokes.fine_apply_gflops", cost.flops_per_element * nel / t_fine / 1e9,
        "GF/s");
  // Bytes from the cost model's perfect-cache count: computed, not measured.
  m.set("stokes.fine_apply_flop_per_byte",
        cost.flops_per_element / cost.bytes_perfect, "flop/B");

  // The velocity hierarchy again, built the way StokesSolver builds it but
  // through a coarse-solver factory that times the SA-AMG build and every
  // coarsest-level solve; built twice over one setup cache so the second
  // build shows the numeric-only RAP refresh.
  PT_ASSERT_MSG(s.opts.coarse_solve == GmgCoarseSolve::kAmg,
                "the coarse-solve probe mirrors the default SA-AMG coarse solve");
  GmgOptions g = s.opts.gmg;
  g.fine_kernel.batch_width = s.opts.kernel.batch_width;
  g.fine_kernel.engine = s.opts.kernel.engine;
  GmgSetupCache hcache;
  g.setup_cache = &hcache;
  const BcFactory bcf = s.opts.bc_factory
                            ? s.opts.bc_factory
                            : BcFactory([](const StructuredMesh& mm) {
                                return sinker_boundary_conditions(mm);
                              });
  StructuredMesh coarsest = s.mesh;
  for (int l = 1; l < g.levels; ++l) coarsest = coarsest.coarsen();
  const DirichletBc coarsest_bc = bcf(coarsest);
  std::vector<double> amg_setup, coarse_solves;
  const CoarseSolverFactory factory =
      [&](const CsrMatrix& a) -> std::unique_ptr<Preconditioner> {
    std::unique_ptr<Preconditioner> pc;
    amg_setup.push_back(timed(trace, "amg.setup", [&] {
      std::vector<Vector> rbm = rigid_body_modes(coarsest);
      for (auto& mode : rbm) coarsest_bc.zero_constrained(mode);
      pc = std::make_unique<SaAmg>(a, rbm, s.opts.amg);
    }));
    return std::make_unique<TimedCoarseSolve>(std::move(pc), trace,
                                              coarse_solves);
  };
  {
    Scope span(trace, "mg.setup_cold");
    GmgHierarchy first(s.mesh, s.coeff, s.bc, g, bcf, factory);
  }
  std::unique_ptr<GmgHierarchy> h;
  {
    Scope span(trace, "mg.setup_warm");
    h = std::make_unique<GmgHierarchy>(s.mesh, s.coeff, s.bc, g, bcf, factory);
  }
  m.set("amg.setup_s", amg_setup.front(), "s");
  m.set("mg.rap_refresh_s", h->rap_refresh_seconds(), "s");
  m.set("mg.rap_refreshes", double(h->rap_refreshes()), "count");
  for (int c = 0; c < 5; ++c) {
    Scope span(trace, "mg.vcycle");
    h->apply(r, z);
  }
  m.set("mg.coarse_solve_s", median(coarse_solves), "s");

  // Fork/join cost of one parallel region at the coarsest-level size, and
  // one deterministic dot product at the fine velocity size.
  const Index n_coarse = h->level_dofs(0);
  std::vector<Real> buf(std::size_t(n_coarse), 1.0);
  Real* bp = buf.data();
  m.set("common.region_us", 1e6 * median_of(200, trace, "common.region", [&] {
          parallel_for(n_coarse, [&](Index i) { bp[i] = 0.5 * bp[i] + 1.0; });
        }),
        "us");
  const Vector va(num_velocity_dofs(s.mesh), 1.0), vb(va.size(), 0.5);
  Real sink = 0;
  m.set("la.dot_us", 1e6 * median_of(200, trace, "la.dot", [&] {
          sink += va.dot(vb);
        }),
        "us");
  PT_ASSERT(sink > 0);

  if (solve) {
    StokesSolveResult res;
    const double t = timed(trace, "saddle.solve", [&] { res = solver.solve(s.f); });
    m.set("saddle.solve_s", t, "s");
    m.set("ksp.s_per_iteration", t / std::max(1, res.stats.iterations), "s");
  }
}

} // namespace perfbench
