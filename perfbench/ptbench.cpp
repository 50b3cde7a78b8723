// ptbench: one benchmark workload per process.
//
//   ptbench --workload sinker_solve|sinker_steps|rifting_steps --seed N
//           --seconds S --trace 0|1 --out DIR
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) replay the same work with spans around every call into the
// program and report the per-layer metrics (README.md lists them). The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the workload ran to its end (whatever `correct` says),
// 2 on a usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ale/mesh_update.hpp"
#include "checks.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/parallel.hpp"
#include "fem/subdomain_engine.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "ptatin/checkpoint.hpp"
#include "ptatin/config.hpp"
#include "ptatin/model_select.hpp"
#include "ptatin/models_sinker.hpp"
#include "record.hpp"
#include "stokes/blocks.hpp"

using namespace ptatin;
using namespace perfbench;

namespace {

// --- workload constants (README.md, "Workloads") ---------------------------
constexpr Index kSolveM = 12;          ///< sinker_solve: 12^3 elements
constexpr Real kSolveContrast = 1e3;   ///< Delta eta
constexpr int kSinkerStepsPerRound = 6;  ///< steps 5 and 6 fail
constexpr int kRiftingStepsPerRound = 2;
/// Set-ups timed before the loop: at least kSetupRepeats and for at least
/// kSetupSeconds, at most kMaxSetupRepeats.
constexpr int kSetupRepeats = 9;
constexpr double kSetupSeconds = 1.5;
constexpr int kMaxSetupRepeats = 201;
/// Every run measures at least this many rounds, so that the median discards
/// one round slowed by warm-up (the first solve in a process faults in its
/// Krylov vectors) or by the shared host.
constexpr std::size_t kMinRounds = 3;
/// No round starts after this many seconds of the loop, even if fewer than
/// kMinRounds have run, so that a run on a slowed host still ends in time.
constexpr double kMaxLoopSeconds = 100;
constexpr Real kFirstDt = 0.002;       ///< ptatin_driver's dt rule
constexpr Real kCfl = 0.25;
/// Allowed SUPG overshoot beyond the initial/boundary temperature range, as
/// a share of that range.
constexpr Real kTemperatureOvershoot = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems; ///< any entry makes `correct` false
  std::vector<double> round_op_s;    ///< seconds per operation, per round
  Metrics metrics;
  void reject(const std::string& why) { problems.push_back(why); }
};

Options options_of(const std::vector<std::string>& args) {
  std::vector<const char*> argv{"ptbench"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return Options::from_args(int(argv.size()), argv.data());
}

/// Median of five NonlinearStokesSolver::residual evaluations.
double time_residual(const NonlinearStokesSolver& nonlin,
                     const QuadCoefficients& coeff, const Vector& f,
                     const Vector& u, const Vector& p, Trace& trace) {
  Vector fu, fp;
  std::vector<double> v;
  for (int r = 0; r < 5; ++r) {
    Scope s(trace, "nonlin.residual");
    const double t0 = now_seconds();
    nonlin.residual(coeff, f, u, p, fu, fp);
    v.push_back(now_seconds() - t0);
  }
  return median(v);
}

/// Time `make` repeatedly (see kSetupRepeats); returns the seconds of each
/// call and leaves the last object built in `obj`.
template <class T, class Make>
std::vector<double> time_setups(std::unique_ptr<T>& obj, Make make) {
  std::vector<double> v;
  double total = 0;
  while (v.size() < std::size_t(kMaxSetupRepeats) &&
         (v.size() < std::size_t(kSetupRepeats) || total < kSetupSeconds)) {
    obj.reset();
    const double t0 = now_seconds();
    obj = make();
    v.push_back(now_seconds() - t0);
    total += v.back();
  }
  return v;
}

/// Whether the measuring loop that started at `w0` runs another round.
bool another_round(double w0, double seconds, std::size_t rounds) {
  const double t = now_seconds() - w0;
  return t < kMaxLoopSeconds && (t < seconds || rounds < kMinRounds);
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(Real) * a.size()) == 0;
}

/// The per-layer metrics the traced run of every workload reports; the ones
/// a workload's path never reaches stay 0.
const char* const kLayerMetrics[][2] = {
    {"common.region_us", "us"},      {"common.cpu_per_wall", "ratio"},
    {"common.invol_cs", "count"},    {"la.dot_us", "us"},
    {"ksp.iterations", "count"},     {"ksp.s_per_iteration", "s"},
    {"saddle.pc_setup_s", "s"},      {"saddle.pc_setup_warm_s", "s"},
    {"saddle.solve_s", "s"},         {"saddle.matmult_s", "s"},
    {"mg.pc_apply_s", "s"},          {"mg.coarse_solve_s", "s"},
    {"mg.rap_refresh_s", "s"},       {"mg.rap_refreshes", "count"},
    {"amg.setup_s", "s"},            {"stokes.fine_apply_s", "s"},
    {"stokes.fine_apply_gflops", "GF/s"},
    {"stokes.fine_apply_flop_per_byte", "flop/B"},
    {"nonlin.solve_s", "s"},         {"nonlin.iterations", "count"},
    {"nonlin.krylov_iterations", "count"},
    {"nonlin.backtracks", "count"},  {"nonlin.failed_solves", "count"},
    {"nonlin.residual_s", "s"},      {"ptatin.coefficients_s", "s"},
    {"ptatin.coefficient_calls", "count"},
    {"ptatin.plastic_strain_s", "s"}, {"ptatin.checkpoint_s", "s"},
    {"ptatin.checkpoint_mb", "MiB"}, {"mpm.advect_s", "s"},
    {"mpm.population_s", "s"},       {"mpm.locate_s", "s"},
    {"ale.update_s", "s"},           {"energy.step_s", "s"},
    {"fem.exchange_s", "s"},         {"fem.halo_mb", "MiB"},
    {"obs.trace_overhead", "ratio"},
};

void zero_layer_metrics(Metrics& m) {
  for (const auto& lm : kLayerMetrics) m.set(lm[0], 0.0, lm[1]);
}

// ===========================================================================
// sinker_solve: one StokesSolver construction + solve per operation.
// ===========================================================================

/// The 8-sphere sinker on the 12^3 box: the sphere layout of the driver's
/// sinker (SinkerParams' default seed), so an operation solves what
/// `ptatin_driver -model sinker -m 12` solves in its first Newton step.
struct Sinker {
  SinkerParams params;
  StructuredMesh mesh;
  DirichletBc bc;
  QuadCoefficients coeff;
  Vector f;
};

std::unique_ptr<Sinker> make_sinker() {
  auto l = std::make_unique<Sinker>();
  l->params.mx = l->params.my = l->params.mz = kSolveM;
  l->params.contrast = kSolveContrast;
  l->mesh = StructuredMesh::box(kSolveM, kSolveM, kSolveM, {0, 0, 0}, {1, 1, 1});
  l->bc = sinker_boundary_conditions(l->mesh);
  l->coeff = sinker_coefficients(l->mesh, l->params);
  l->f = assemble_body_force(l->mesh, l->coeff, {0, 0, -9.8});
  return l;
}

struct SolveOp {
  double seconds = 0; ///< StokesSolver construction + solve
  int iterations = 0;
  bool converged = false;
  Vector u, p;
};

SolveOp solve_once(const Sinker& l, const StokesSolverOptions& opts,
                   Trace& trace) {
  SolveOp op;
  Scope span(trace, "op");
  const double t0 = now_seconds();
  StokesSolveResult res;
  {
    std::unique_ptr<StokesSolver> solver;
    {
      Scope s(trace, "saddle.construct");
      solver = std::make_unique<StokesSolver>(l.mesh, l.coeff, l.bc, opts);
    }
    Scope s(trace, "saddle.solve");
    res = solver->solve(l.f);
  }
  op.seconds = now_seconds() - t0;
  op.iterations = res.stats.iterations;
  op.converged = res.stats.converged;
  op.u = std::move(res.u);
  op.p = std::move(res.p);
  return op;
}

bool same_solution(const SolveOp& a, const SolveOp& b) {
  return a.iterations == b.iterations && same_bits(a.u, b.u) &&
         same_bits(a.p, b.p);
}

/// Check one converged solution and self-test the checks on it. Returns
/// whether the checks accepted it.
bool check_solution(const Sinker& l, const SolveOp& op, Real rtol,
                    Outcome& out) {
  const StokesChecker checker(l.mesh, l.coeff, l.bc, l.f,
                              sinker_sphere_centers(l.params), l.params.radius);
  std::string summary;
  const std::string bad = checker.check(op.u, op.p, rtol, &summary);
  std::printf("check: %d iterations, %s\n", op.iterations, summary.c_str());
  if (!bad.empty()) out.reject("sinker_solve: " + bad);
  const std::string st = checker.self_test(op.u, op.p, rtol);
  if (!st.empty()) out.reject("self-test: " + st);
  return bad.empty();
}

void run_sinker_solve(const Args& a, Outcome& out) {
  const SolverConfig cfg = SolverConfig::from_options(
      options_of({"-m", std::to_string(kSolveM)}));
  const StokesSolverOptions& opts = cfg.stokes();
  const Real rtol = opts.krylov.rtol;
  const double nel = double(kSolveM * kSolveM * kSolveM);
  Trace off(false);

  if (!a.trace) {
    std::unique_ptr<Sinker> l;
    const std::vector<double> setups = time_setups(l, make_sinker);
    std::vector<SolveOp> ops;
    const double w0 = now_seconds();
    do {
      SolveOp op = solve_once(*l, opts, off);
      out.round_op_s.push_back(op.seconds);
      // Every solve must repeat the first one bit for bit.
      if (!ops.empty() && !same_solution(op, ops.front()))
        out.reject("determinism: a repeated solve differs from the first");
      if (!ops.empty()) op.u = op.p = Vector();
      ops.push_back(std::move(op));
    } while (another_round(w0, a.seconds, out.round_op_s.size()));
    const double op_s = median(out.round_op_s);
    out.metrics.set("setup_s", median(setups), "s");
    out.metrics.set("solve_ecs", nel / (num_threads() * op_s),
                    "elements/core/s");
    out.metrics.set("step_s", op_s, "s");
    out.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
    // Failed solves stay failed; the checks judge the first converged one,
    // and the others are its bitwise copies.
    out.attempted = long(ops.size());
    const bool good = !ops.front().converged ||
                      check_solution(*l, ops.front(), rtol, out);
    out.failed = ops.front().converged && good ? 0 : out.attempted;
    return;
  }

  // Traced run: one solve untraced, then two under spans; all three must be
  // bitwise identical.
  Trace trace(true);
  zero_layer_metrics(out.metrics);
  const std::unique_ptr<Sinker> l = make_sinker();
  const Usage u0 = Usage::now();
  const SolveOp plain = solve_once(*l, opts, off);
  const Usage u1 = Usage::now();
  out.metrics.set("common.cpu_per_wall",
                  (u1.cpu_seconds - u0.cpu_seconds) / plain.seconds, "ratio");
  std::vector<SolveOp> traced;
  for (int r = 0; r < 2; ++r) traced.push_back(solve_once(*l, opts, trace));
  for (const SolveOp& t : traced)
    if (!same_solution(t, plain))
      out.reject("determinism: a traced solve differs from the untraced one");
  out.attempted = 3;
  const bool good = plain.converged && check_solution(*l, plain, rtol, out);
  out.failed = good ? 0 : 3;
  out.metrics.set("obs.trace_overhead",
                  0.5 * (traced[0].seconds + traced[1].seconds) / plain.seconds,
                  "ratio");
  out.metrics.set("ksp.iterations", plain.iterations, "count");
  const double solve_s = median(trace.durations("saddle.solve"));
  out.metrics.set("saddle.solve_s", solve_s, "s");
  out.metrics.set("ksp.s_per_iteration",
                  solve_s / std::max(1, plain.iterations), "s");

  probe_solver_layers({l->mesh, l->coeff, l->bc, l->f, opts}, false, trace,
                      out.metrics);
  const NonlinearStokesSolver nonlin(l->mesh, l->bc, cfg.ptatin().nonlinear);
  out.metrics.set("nonlin.residual_s",
                  time_residual(nonlin, l->coeff, l->f, plain.u, plain.p, trace),
                  "s");
  if (!trace.write_chrome(a.out + "/trace.json"))
    out.reject("could not write " + a.out + "/trace.json");
}

// ===========================================================================
// sinker_steps / rifting_steps: the time loop.
// ===========================================================================

struct StepSpec {
  bool rifting = false;
  int steps_per_round = 0;
};

/// ptatin_driver's options for the model; the rifting run adds the 2x2x1
/// subdomain decomposition.
Options step_options(const StepSpec& w) {
  if (w.rifting)
    return options_of({"-model", "rifting", "-mx", "32", "-my", "8", "-mz",
                       "16", "-decomp", "2x2x1"});
  return options_of({"-model", "sinker", "-m", "8"});
}

/// Everything built before the first step: model, mesh, material points and
/// solver objects.
struct Instance {
  SolverConfig cfg;
  StateBounds bounds;
  std::unique_ptr<PtatinContext> ctx;
  std::unique_ptr<SafeguardedStepper> stepper; ///< rifting only
};

std::unique_ptr<Instance> set_up(const StepSpec& w) {
  auto in = std::make_unique<Instance>();
  const Options o = step_options(w);
  int vertical_axis = 2;
  ModelSetup setup = build_model_from_options(o, vertical_axis);
  in->cfg = SolverConfig::from_options(o);
  in->cfg.ptatin().ale.vertical_axis = vertical_axis;
  in->ctx = std::make_unique<PtatinContext>(std::move(setup), in->cfg.ptatin());
  if (w.rifting)
    in->stepper = std::make_unique<SafeguardedStepper>(*in->ctx, in->cfg);

  in->bounds.population = in->cfg.ptatin().population;
  const PtatinContext& c = *in->ctx;
  if (c.setup().use_energy) {
    // Initial field and boundary values bound the temperature; the SUPG
    // scheme may overshoot by a stated share of that range.
    Real lo = c.temperature()[0], hi = lo;
    for (Index v = 0; v < c.temperature().size(); ++v) {
      lo = std::min(lo, c.temperature()[v]);
      hi = std::max(hi, c.temperature()[v]);
    }
    VertexBc tbc(c.mesh().num_vertices());
    if (c.setup().temperature_bc) c.setup().temperature_bc(c.mesh(), tbc);
    for (Index v = 0; v < tbc.size(); ++v)
      if (tbc.is_constrained(v)) {
        lo = std::min(lo, tbc.value(v));
        hi = std::max(hi, tbc.value(v));
      }
    in->bounds.check_temperature = true;
    in->bounds.t_min = lo - kTemperatureOvershoot * (hi - lo);
    in->bounds.t_max = hi + kTemperatureOvershoot * (hi - lo);
  }
  return in;
}

/// Exact counts of one round; two runs of the same inputs must agree on all
/// of them (the program's bitwise-determinism guarantee). Only the replay's
/// wrapper counts coefficient_calls, so the comparison leaves it out.
struct Counts {
  long newton = 0, krylov = 0, linear_solves = 0, backtracks = 0;
  long nonlin_failed = 0, coefficient_calls = 0;
  long injected = 0, removed = 0, rap_refreshes = 0, halo_bytes = 0;
  bool operator==(const Counts& o) const {
    return newton == o.newton && krylov == o.krylov &&
           linear_solves == o.linear_solves && backtracks == o.backtracks &&
           nonlin_failed == o.nonlin_failed && injected == o.injected &&
           removed == o.removed && rap_refreshes == o.rap_refreshes &&
           halo_bytes == o.halo_bytes;
  }
};

/// One round of a time loop; the traced run replays the untraced round's
/// `dts`.
struct RoundResult {
  std::vector<Real> dts;
  std::vector<double> step_s; ///< seconds of each step
  double loop_s = 0;
  int steps = 0, failed = 0;
  Counts counts;
  double exchange_s = 0;
  StateDigest digest;
};

/// What the program reports cumulatively (the process-wide RAP refresh
/// counter, the subdomain engine's stats), read at the start of a round.
struct RoundStart {
  long rap_refreshes = 0;
  DecompStats engine;
};

long rap_refresh_counter() {
  return long(
      obs::MetricsRegistry::instance().counter("mg.rap.refreshes").value());
}

DecompStats engine_stats(const PtatinContext& c) {
  return c.subdomain_engine() ? c.subdomain_engine()->stats() : DecompStats{};
}

RoundStart start_round(const PtatinContext& c) {
  return {rap_refresh_counter(), engine_stats(c)};
}

/// The round's differences of the cumulative figures, and its final state.
void finish_round(const PtatinContext& c, const RoundStart& s,
                  RoundResult& r) {
  r.counts.rap_refreshes = rap_refresh_counter() - s.rap_refreshes;
  const DecompStats e = engine_stats(c);
  r.counts.halo_bytes = e.halo_bytes_sent - s.engine.halo_bytes_sent;
  r.exchange_s = e.exchange_seconds - s.engine.exchange_seconds;
  r.digest = digest_state(c);
}

void count_step(const StepReport& rep, Counts& c) {
  c.newton += rep.nonlinear.iterations;
  c.krylov += rep.nonlinear.total_krylov_iterations;
  c.linear_solves += long(rep.nonlinear.krylov_per_iteration.size());
  for (Real s : rep.nonlinear.step_lengths) c.backtracks += s < 1.0;
  c.nonlin_failed += rep.nonlinear.failure != NonlinearFailure::kNone;
  c.injected += rep.population.injected;
  c.removed += rep.population.removed;
}

/// After every step: the program's own failure report, then the checks.
/// A check rejecting a step the program reported good is a wrong output.
void judge_step(const Instance& in, bool program_failed, int step,
                RoundResult& r, Outcome& out) {
  const PtatinContext& c = *in.ctx;
  const std::string bad = check_state(c.mesh(), c.velocity(), c.pressure(),
                                      c.temperature(), c.points(), in.bounds);
  if (program_failed || !bad.empty()) ++r.failed;
  if (!program_failed && !bad.empty())
    out.reject("step " + std::to_string(step) + ": " + bad);
}

/// One round through the program's own entry points: the driver's dt rule,
/// PtatinContext::step (sinker) or SafeguardedStepper::advance (rifting).
RoundResult step_round(Instance& in, int steps, Outcome& out) {
  PtatinContext& ctx = *in.ctx;
  RoundResult r;
  const RoundStart start = start_round(ctx);
  for (int s = 1; s <= steps; ++s) {
    const double t0 = now_seconds();
    Real dt = ctx.suggest_dt(kCfl);
    if (s == 1 || dt <= 0) dt = kFirstDt;
    StepReport rep;
    bool failed = false;
    try {
      if (in.stepper) {
        SafeguardedStepResult sr = in.stepper->advance(dt);
        failed = !sr.ok;
        dt = sr.dt_used;
        rep = std::move(sr.report);
      } else {
        rep = ctx.step(dt);
        failed = rep.nonlinear.failure != NonlinearFailure::kNone;
      }
    } catch (const Error&) {
      failed = true;
    }
    r.step_s.push_back(now_seconds() - t0);
    r.loop_s += r.step_s.back();
    r.dts.push_back(dt);
    count_step(rep, r.counts);
    judge_step(in, failed, s, r, out);
  }
  r.steps = steps;
  finish_round(ctx, start, r);
  return r;
}

/// The traced replay: the stages of PtatinContext::step called one by one,
/// in its order, on the context's state, each under a span. It owns the
/// nonlinear and energy solvers the context would use, built on the initial
/// mesh exactly as the context builds its own.
class Replay {
public:
  Replay(Instance& in, Trace& trace)
      : in_(in), ctx_(*in.ctx), trace_(trace),
        coeff_(ctx_.mesh().num_elements()) {
    const ModelSetup& setup = ctx_.setup();
    PT_ASSERT_MSG(!setup.shear_heating,
                  "the replay does not cover the shear-heating source");
    const PtatinOptions& po = in.cfg.ptatin();
    nl_ = po.nonlinear;
    if (setup.bc_factory) nl_.linear.bc_factory = setup.bc_factory;
    nl_.linear.kernel.engine = ctx_.subdomain_engine();
    nonlin_ = std::make_unique<NonlinearStokesSolver>(ctx_.mesh(), setup.bc,
                                                      nl_);
    if (setup.use_energy) {
      energy_ = std::make_unique<EnergySolver>(ctx_.mesh(), setup.kappa);
      energy_->set_sentinel(nl_.linear.krylov.sentinel_every,
                            nl_.linear.krylov.sentinel_tol);
      tbc_ = VertexBc(ctx_.mesh().num_vertices());
      if (setup.temperature_bc) setup.temperature_bc(ctx_.mesh(), tbc_);
    }
    pipeline_ = po.pipeline;
    pipeline_.decomp = ctx_.subdomain_engine();
  }

  RoundResult run(const std::vector<Real>& dts, Outcome& out) {
    RoundResult r;
    const RoundStart start = start_round(ctx_);
    int s = 0;
    for (Real dt : dts) {
      const double t0 = now_seconds();
      StepReport rep = step(dt, r.counts);
      r.loop_s += now_seconds() - t0;
      count_step(rep, r.counts);
      judge_step(in_, rep.nonlinear.failure != NonlinearFailure::kNone, ++s,
                 r, out);
    }
    r.steps = int(dts.size());
    finish_round(ctx_, start, r);
    return r;
  }

  const QuadCoefficients& coefficients() const { return coeff_; }
  const NonlinearStokesSolver& nonlinear() const { return *nonlin_; }
  const NonlinearOptions& nonlinear_options() const { return nl_; }

private:
  /// Removal of points without an element, as PtatinContext::step does it.
  static void drop_unlocated(MaterialPoints& pts) {
    for (Index i = 0; i < pts.size();) {
      if (pts.element(i) < 0) {
        pts.remove(i);
      } else {
        ++i;
      }
    }
  }

  StepReport step(Real dt, Counts& counts) {
    Scope step_span(trace_, "step");
    const ModelSetup& setup = ctx_.setup();
    const PtatinOptions& po = in_.cfg.ptatin();
    const SubdomainEngine* engine = ctx_.subdomain_engine();
    const Vector* temp = setup.use_energy ? &ctx_.temperature() : nullptr;
    StepReport rep;
    {
      Scope stage(trace_, "stage.stokes");
      {
        Scope s(trace_, "ptatin.coefficients");
        update_coefficients_from_points(
            ctx_.mesh(), setup.materials, std::as_const(ctx_).points(),
            ctx_.velocity(), ctx_.pressure(), temp, false, pipeline_, coeff_);
      }
      Vector f;
      {
        Scope s(trace_, "stokes.body_force");
        f = assemble_body_force(ctx_.mesh(), coeff_, setup.gravity, engine);
      }
      const CoefficientUpdater inner = ctx_.coefficient_updater();
      const CoefficientUpdater counted = [&](const Vector& u, const Vector& p,
                                             bool newton, QuadCoefficients& c) {
        ++counts.coefficient_calls;
        Scope s(trace_, "ptatin.coefficients");
        inner(u, p, newton, c);
      };
      Vector& u = ctx_.mutable_velocity();
      setup.bc.set_values(u);
      Scope s(trace_, "nonlin.solve");
      rep.nonlinear = nonlin_->solve(counted, f, u, ctx_.mutable_pressure());
    }
    {
      Scope s(trace_, "ptatin.plastic_strain");
      rep.yielded_points = accumulate_plastic_strain(
          ctx_.mesh(), setup.materials, ctx_.velocity(), ctx_.pressure(), temp,
          dt, ctx_.points());
    }
    if (setup.use_energy) {
      Scope s(trace_, "energy.step");
      rep.energy = energy_->step(ctx_.velocity(), dt, tbc_,
                                 ctx_.mutable_temperature());
    }
    {
      Scope stage(trace_, "stage.advection");
      MaterialPoints& pts = ctx_.points();
      {
        Scope s(trace_, "mpm.advect");
        rep.advection =
            advect_points_rk2(ctx_.mesh(), ctx_.velocity(), dt, pts, engine);
      }
      drop_unlocated(pts);
      Scope s(trace_, "mpm.population");
      rep.population = control_population(ctx_.mesh(), po.population, pts);
    }
    if (po.update_mesh) {
      Scope stage(trace_, "stage.ale");
      {
        Scope s(trace_, "ale.update");
        rep.ale = update_mesh_free_surface(ctx_.mutable_mesh(), ctx_.velocity(),
                                           dt, po.ale);
      }
      MaterialPoints& pts = ctx_.points();
      {
        Scope s(trace_, "mpm.locate");
        locate_all(ctx_.mesh(), pts);
      }
      drop_unlocated(pts);
    }
    return rep;
  }

  Instance& in_;
  PtatinContext& ctx_;
  Trace& trace_;
  NonlinearOptions nl_;
  std::unique_ptr<NonlinearStokesSolver> nonlin_;
  std::unique_ptr<EnergySolver> energy_;
  VertexBc tbc_;
  CoefficientPipelineOptions pipeline_;
  QuadCoefficients coeff_;
};

void self_test_instance(const Instance& in, Outcome& out) {
  const PtatinContext& c = *in.ctx;
  const std::string st =
      self_test_state(c.mesh(), c.velocity(), c.pressure(), c.temperature(),
                      c.points(), in.bounds);
  if (!st.empty()) out.reject("self-test: " + st);
}

void run_steps(const Args& a, const StepSpec& w, Outcome& out) {
  const int n = w.steps_per_round;
  if (!a.trace) {
    std::unique_ptr<Instance> in;
    std::vector<double> setups = time_setups(in, [&] { return set_up(w); });
    const double w0 = now_seconds();
    StateDigest first;
    std::vector<std::vector<double>> by_step(n); ///< [step][round] seconds
    do {
      if (!out.round_op_s.empty()) {
        in.reset();
        const double t0 = now_seconds();
        in = set_up(w);
        setups.push_back(now_seconds() - t0);
      }
      const RoundResult r = step_round(*in, n, out);
      out.attempted += r.steps;
      out.failed += r.failed;
      if (out.round_op_s.empty()) first = r.digest;
      if (r.digest != first)
        out.reject("determinism: a repeated round ended in another state");
      out.round_op_s.push_back(r.loop_s / r.steps);
      for (int s = 0; s < n; ++s) by_step[s].push_back(r.step_s[s]);
    } while (another_round(w0, a.seconds, out.round_op_s.size()));
    // Step k of every round does the same work: the median over rounds of
    // each step drops a step slowed by the host, and the mean over the
    // steps of a round is what the user pays per step.
    double step_s = 0;
    for (const std::vector<double>& v : by_step) step_s += median(v) / n;
    const PtatinContext& c = *in->ctx;
    const double nel = double(c.mesh().num_elements());
    out.metrics.set("setup_s", median(setups), "s");
    out.metrics.set("solve_ecs", nel / (num_threads() * step_s),
                    "elements/core/s");
    out.metrics.set("step_s", step_s, "s");
    out.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
    self_test_instance(*in, out);
    return;
  }

  // Traced run: one untraced round, then two traced replays of its dt
  // sequence; all three must end in the same state with the same counts.
  Trace trace(true);
  zero_layer_metrics(out.metrics);
  std::unique_ptr<Instance> in = set_up(w);
  const Usage u0 = Usage::now();
  const RoundResult plain = step_round(*in, n, out);
  const Usage u1 = Usage::now();
  out.metrics.set("common.cpu_per_wall",
                  (u1.cpu_seconds - u0.cpu_seconds) / plain.loop_s, "ratio");
  self_test_instance(*in, out);
  in.reset();
  std::vector<RoundResult> replays;
  std::unique_ptr<Replay> replay;
  for (int rep = 0; rep < 2; ++rep) {
    replay.reset();
    in = set_up(w);
    replay = std::make_unique<Replay>(*in, trace);
    Scope span(trace, "round");
    replays.push_back(replay->run(plain.dts, out));
  }
  out.attempted = 3L * n;
  out.failed = plain.failed + replays[0].failed + replays[1].failed;
  for (const RoundResult& r : replays) {
    if (r.digest != plain.digest)
      out.reject("determinism: the traced replay ended in another "
                 "digest_state than the untraced run");
    if (!(r.counts == plain.counts))
      out.reject("determinism: the traced replay's exact counts differ");
  }

  const RoundResult& r = replays[0];
  const double steps = r.steps;
  out.metrics.set("obs.trace_overhead",
                  0.5 * (replays[0].loop_s + replays[1].loop_s) / plain.loop_s,
                  "ratio");
  out.metrics.set("ksp.iterations",
                  double(r.counts.krylov) / std::max(1L, r.counts.linear_solves),
                  "count");
  out.metrics.set("nonlin.solve_s", median(trace.durations("nonlin.solve")), "s");
  out.metrics.set("nonlin.iterations", r.counts.newton / steps, "count");
  out.metrics.set("nonlin.krylov_iterations", r.counts.krylov / steps, "count");
  out.metrics.set("nonlin.backtracks", r.counts.backtracks / steps, "count");
  out.metrics.set("nonlin.failed_solves", double(r.counts.nonlin_failed),
                  "count");
  out.metrics.set("ptatin.coefficients_s",
                  median(trace.durations("ptatin.coefficients")), "s");
  out.metrics.set("ptatin.coefficient_calls",
                  r.counts.coefficient_calls / steps, "count");
  out.metrics.set("ptatin.plastic_strain_s",
                  median(trace.durations("ptatin.plastic_strain")), "s");
  out.metrics.set("mpm.advect_s", median(trace.durations("mpm.advect")), "s");
  out.metrics.set("mpm.population_s", median(trace.durations("mpm.population")),
                  "s");
  out.metrics.set("mpm.locate_s", median(trace.durations("mpm.locate")), "s");
  out.metrics.set("ale.update_s", median(trace.durations("ale.update")), "s");
  out.metrics.set("energy.step_s", median(trace.durations("energy.step")), "s");
  out.metrics.set("fem.exchange_s", r.exchange_s / steps, "s");
  out.metrics.set("fem.halo_mb", r.counts.halo_bytes / steps / 1048576.0, "MiB");

  // Layer probes on the final state of the second replay.
  const PtatinContext& c = *in->ctx;
  const Vector f = assemble_body_force(c.mesh(), replay->coefficients(),
                                       c.setup().gravity, c.subdomain_engine());
  probe_solver_layers({c.mesh(), replay->coefficients(), c.setup().bc, f,
                       replay->nonlinear_options().linear},
                      true, trace, out.metrics);
  out.metrics.set("nonlin.residual_s",
                  time_residual(replay->nonlinear(), replay->coefficients(), f,
                                c.velocity(), c.pressure(), trace),
                  "s");
  {
    const std::string path = a.out + "/checkpoint.bin";
    CheckpointMeta meta;
    meta.step = r.steps;
    double t = 0;
    {
      Scope s(trace, "ptatin.checkpoint");
      const double t0 = now_seconds();
      save_checkpoint(path, c, meta);
      t = now_seconds() - t0;
    }
    out.metrics.set("ptatin.checkpoint_s", t, "s");
    out.metrics.set("ptatin.checkpoint_mb",
                    double(std::filesystem::file_size(path)) / 1048576.0, "MiB");
    std::filesystem::remove(path);
  }
  if (!trace.write_chrome(a.out + "/trace.json"))
    out.reject("could not write " + a.out + "/trace.json");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else return false;
  }
  return (argc % 2) == 1 && !a.workload.empty();
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: ptbench --workload sinker_solve|sinker_steps|"
                 "rifting_steps --seed N --seconds S --trace 0|1 --out DIR\n");
    return 2;
  }
  if (a.trace) std::filesystem::create_directories(a.out);
  const Usage usage0 = Usage::now();
  const double wall0 = now_seconds();
  Outcome out;
  if (a.workload == "sinker_solve") {
    run_sinker_solve(a, out);
  } else if (a.workload == "sinker_steps") {
    run_steps(a, {false, kSinkerStepsPerRound}, out);
  } else if (a.workload == "rifting_steps") {
    run_steps(a, {true, kRiftingStepsPerRound}, out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Usage usage1 = Usage::now();
  const double wall = now_seconds() - wall0;
  const long invol = usage1.invol_cs - usage0.invol_cs;

  // Run record: enough to recognise a run disturbed by the shared host.
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  const char* wait = std::getenv("OMP_WAIT_POLICY");
  const double cpu_per_wall = (usage1.cpu_seconds - usage0.cpu_seconds) / wall;
  std::printf("run: workload=%s seed=%llu trace=%d host=%s threads=%d "
              "OMP_WAIT_POLICY=%s task_clock/wall=%.3f invol_cs=%ld "
              "wall_s=%.2f\n",
              a.workload.c_str(), (unsigned long long)a.seed, int(a.trace),
              host, num_threads(), wait ? wait : "unset", cpu_per_wall, invol,
              wall);
  if (!out.round_op_s.empty()) {
    std::printf("rounds: seconds per operation:");
    for (double t : out.round_op_s) std::printf(" %.4f", t);
    std::printf("\n");
  }

  // Untraced runs carry the end-to-end metrics, traced runs the per-layer
  // metrics; a traced run also keeps them in DIR/layers.json.
  if (a.trace) out.metrics.set("common.invol_cs", double(invol), "count");
  if (!out.metrics.all_finite()) out.reject("a metric is not a finite number");
  for (const std::string& p : out.problems)
    std::printf("problem: %s\n", p.c_str());
  char head[160];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, ",
                out.problems.empty() ? "true" : "false", out.attempted,
                out.failed);
  const std::string result =
      std::string(head) + "\"metrics\": " + out.metrics.json() + "}";
  if (a.trace) {
    std::ofstream f(a.out + "/layers.json");
    f << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"threads\": " << num_threads() << ", \"result\": " << result
      << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
