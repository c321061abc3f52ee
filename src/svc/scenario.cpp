#include "svc/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "apps/comet/ccc.hpp"
#include "apps/exasky/hacc.hpp"
#include "apps/gests/psdns.hpp"
#include "apps/lammps/qeq.hpp"
#include "apps/lammps/system.hpp"
#include "apps/pele/driver.hpp"
#include "apps/sparse/cg.hpp"
#include "arch/machine.hpp"
#include "io/checkpoint.hpp"
#include "io/io_model.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace exa::svc {

namespace {

/// Locale-free shortest-roundtrip double encoding for key(). %.17g is
/// enough digits that distinct doubles never collide.
std::string encode(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double param_or(const Scenario& s, const std::string& name,
                double fallback) {
  const auto it = s.params.find(name);
  return it == s.params.end() ? fallback : it->second;
}

/// The params keys each app understands (plus the shared checkpoint knob).
const std::set<std::string>& known_params(App app) {
  static const std::set<std::string> pele = {"code_state",
                                             "checkpoint_bytes_per_rank"};
  static const std::set<std::string> gests = {"n", "pencils",
                                              "checkpoint_bytes_per_rank"};
  static const std::set<std::string> lammps = {
      "fused",          "cells",        "seed",
      "atoms_per_rank", "nnz_per_rank", "checkpoint_bytes_per_rank"};
  static const std::set<std::string> comet = {"vectors_per_device", "samples",
                                              "checkpoint_bytes_per_rank"};
  static const std::set<std::string> exasky = {"particles_per_rank", "hydro",
                                               "checkpoint_bytes_per_rank"};
  static const std::set<std::string> sparse_cg = {
      "grid", "rows_per_rank", "tol", "checkpoint_bytes_per_rank"};
  switch (app) {
    case App::kPele:
      return pele;
    case App::kGests:
      return gests;
    case App::kLammps:
      return lammps;
    case App::kComet:
      return comet;
    case App::kExaSky:
      return exasky;
    case App::kSparseCg:
      return sparse_cg;
  }
  throw support::Error("unhandled App");
}

/// Ranks the scenario simulates: one per device (GCDs count as 1), or one
/// per node on CPU-only machines.
int ranks_of(const arch::Machine& machine, int nodes) {
  const int per_node = std::max(1, machine.node.gpus_per_node);
  return nodes * per_node;
}

/// Prices the one collective checkpoint apps without native I/O plumbing
/// charge. Exactly 0.0 for quiet (io::checkpoint_time guarantees it), so
/// refactored benches stay bit-identical to their pre-svc goldens.
double checkpoint_surcharge(const Scenario& s, const arch::Machine& machine) {
  const io::IoConfig io = io::IoConfig::preset(s.io_preset);
  const double bytes =
      param_or(s, "checkpoint_bytes_per_rank", 256.0 * 1024 * 1024);
  return io::checkpoint_time(io, ranks_of(machine, s.nodes), bytes);
}

Report run_pele(const Scenario& s, const arch::Machine& machine) {
  const auto state =
      static_cast<apps::pele::CodeState>(int(param_or(s, "code_state", 4.0)));
  apps::pele::PeleConfig config;
  config.fabric = s.fabric_config();
  config.io = io::IoConfig::preset(s.io_preset);
  const apps::pele::CellTime cell =
      apps::pele::time_per_cell_step(machine, state, s.nodes, config);
  Report report;
  report.metrics = {{"chem_s", cell.chem_s},     {"hydro_s", cell.hydro_s},
                    {"launch_s", cell.launch_s}, {"uvm_s", cell.uvm_s},
                    {"ghost_s", cell.ghost_s},   {"plot_s", cell.plot_s}};
  report.time_s = cell.total();
  // FOM: cell-steps per second per cell — the inverse of the Figure 2
  // y-axis, so "bigger is better" holds like the other apps.
  report.fom = report.time_s > 0.0 ? 1.0 / report.time_s : 0.0;
  return report;
}

Report run_gests(const Scenario& s, const arch::Machine& machine) {
  apps::gests::PsdnsConfig config;
  config.n = static_cast<std::size_t>(param_or(s, "n", 8192.0));
  config.decomp = param_or(s, "pencils", 1.0) != 0.0
                      ? apps::gests::Decomposition::kPencils
                      : apps::gests::Decomposition::kSlabs;
  config.fabric = s.fabric_config();
  config.io = io::IoConfig::preset(s.io_preset);
  const apps::gests::StepTime step =
      apps::gests::step_time(machine, s.nodes, config);
  Report report;
  report.metrics = {{"fft_s", step.fft_s},
                    {"transpose_s", step.transpose_s},
                    {"pointwise_s", step.pointwise_s},
                    {"io_s", step.io_s}};
  report.time_s = step.total();
  report.fom = step.fom;
  return report;
}

Report run_lammps(const Scenario& s, const arch::Machine& machine) {
  const int cells = int(param_or(s, "cells", 2.0));
  const bool fused = param_or(s, "fused", 1.0) != 0.0;
  support::Rng rng(std::uint64_t(param_or(s, "seed", 42.0)));
  const apps::lammps::System sys =
      apps::lammps::make_molecular_crystal(cells, 5, rng);
  const apps::lammps::NeighborList neigh =
      apps::lammps::build_neighbor_list(sys, 3.0);
  const apps::lammps::QeqMatrix h =
      apps::lammps::build_qeq_matrix(sys, neigh, 3.0);
  const apps::lammps::QeqResult qeq = apps::lammps::equilibrate(sys, h, fused);
  const auto atoms =
      static_cast<std::size_t>(param_or(s, "atoms_per_rank", 2.0e5));
  const auto nnz =
      static_cast<std::size_t>(param_or(s, "nnz_per_rank", 5.2e6));
  const int ranks = ranks_of(machine, s.nodes);
  const double time = apps::lammps::simulate_qeq_time(
      machine, atoms, nnz, qeq.stats, fused ? 2 : 1, ranks,
      s.fabric_config());
  Report report;
  report.metrics = {{"cg_iterations", double(qeq.stats.iterations)},
                    {"matrix_reads", double(qeq.stats.matrix_reads)},
                    {"allreduces", double(qeq.stats.allreduces)},
                    {"converged", qeq.stats.converged ? 1.0 : 0.0}};
  report.time_s = time;
  // FOM: atom-equilibrations per second across the allocation.
  report.fom = time > 0.0 ? double(atoms) * ranks / time : 0.0;
  return report;
}

Report run_comet(const Scenario& s, const arch::Machine& machine) {
  const auto vectors =
      static_cast<std::size_t>(param_or(s, "vectors_per_device", 8192.0));
  const auto samples =
      static_cast<std::size_t>(param_or(s, "samples", 1.0e5));
  const apps::comet::CometScaleResult result = apps::comet::scale_run(
      machine, s.nodes, vectors, samples, s.fabric_config());
  Report report;
  report.metrics = {
      {"seconds_per_step", result.seconds_per_step},
      {"sustained_flops", result.sustained_flops},
      {"weak_scaling_efficiency", result.weak_scaling_efficiency}};
  report.time_s = result.seconds_per_step;
  report.fom = result.sustained_flops;
  return report;
}

Report run_exasky(const Scenario& s, const arch::Machine& machine) {
  const double particles = param_or(s, "particles_per_rank", 4.0e7);
  const auto kind = param_or(s, "hydro", 0.0) != 0.0
                        ? apps::exasky::SimKind::kHydro
                        : apps::exasky::SimKind::kGravityOnly;
  const apps::exasky::StepModel step = apps::exasky::step_model(
      machine, s.nodes, particles, kind, s.fabric_config());
  Report report;
  for (const apps::exasky::GravityKernelTime& kernel : step.kernels) {
    report.metrics[kernel.name + "_s"] = kernel.seconds;
  }
  report.metrics["comm_s"] = step.comm_s;
  report.time_s = step.total_s;
  report.fom = step.fom;
  return report;
}

Report run_sparse_cg(const Scenario& s, const arch::Machine& machine) {
  const auto grid = static_cast<std::size_t>(param_or(s, "grid", 16.0));
  const double tol = param_or(s, "tol", 1e-8);
  const apps::sparse::StencilMatrix a =
      apps::sparse::build_stencil_matrix(grid, grid, grid);
  // A varying dyadic-valued RHS: the all-ones vector is an exact
  // eigenvector of the stencil (every row sums to 1), which would let CG
  // converge in a single trivial iteration.
  std::vector<double> b(a.n);
  for (std::size_t i = 0; i < a.n; ++i) {
    b[i] = 1.0 + 0.125 * static_cast<double>(i % 7);
  }
  const apps::sparse::CgResult cg =
      apps::sparse::cg_solve(a, b, tol, /*max_iter=*/2000);
  const auto rows =
      static_cast<std::size_t>(param_or(s, "rows_per_rank", 1.0e6));
  const apps::sparse::SolveModel model = apps::sparse::solve_model(
      machine, s.nodes, rows, cg.stats, s.fabric_config());
  Report report;
  report.metrics = {{"cg_iterations", double(cg.stats.iterations)},
                    {"matrix_reads", double(cg.stats.matrix_reads)},
                    {"allreduces", double(cg.stats.allreduces)},
                    {"converged", cg.stats.converged ? 1.0 : 0.0},
                    {"spmv_s", model.spmv_s},
                    {"reduce_s", model.reduce_s},
                    {"halo_s", model.halo_s}};
  report.time_s = model.total_s;
  report.fom = model.fom;
  return report;
}

}  // namespace

std::string to_string(App app) {
  switch (app) {
    case App::kPele:
      return "pele";
    case App::kGests:
      return "gests";
    case App::kLammps:
      return "lammps";
    case App::kComet:
      return "comet";
    case App::kExaSky:
      return "exasky";
    case App::kSparseCg:
      return "sparse_cg";
  }
  throw support::Error("unhandled App");
}

App app_from_string(const std::string& name) {
  if (name == "pele") return App::kPele;
  if (name == "gests") return App::kGests;
  if (name == "lammps") return App::kLammps;
  if (name == "comet") return App::kComet;
  if (name == "exasky") return App::kExaSky;
  if (name == "sparse_cg") return App::kSparseCg;
  throw support::Error("unknown app: " + name);
}

std::string Scenario::key() const {
  // Canonical form: fixed field order, sorted params (std::map iterates in
  // key order), locale-free numbers. Two scenarios compare equal exactly
  // when their keys do.
  std::string out = "app=" + svc::to_string(app);
  out += ";machine=" + machine;
  out += ";nodes=" + std::to_string(nodes);
  out += ";io=" + io_preset;
  out += ";topology=" + topology;
  out += ";congestion=" + std::string(congestion ? "1" : "0");
  out += ";straggler_fraction=" + encode(straggler_fraction);
  out += ";straggler_slowdown=" + encode(straggler_slowdown);
  for (const auto& [name, value] : params) {
    out += ";" + name + "=" + encode(value);
  }
  return out;
}

net::FabricConfig Scenario::fabric_config() const {
  net::FabricConfig config;
  config.topology = topology == "dragonfly" ? net::Topology::kDragonfly
                                            : net::Topology::kFatTree;
  config.congestion = congestion;
  config.faults.straggler_fraction = straggler_fraction;
  config.faults.straggler_slowdown = straggler_slowdown;
  return config;
}

void validate(const Scenario& scenario) {
  if (scenario.nodes < 1) {
    throw support::Error("scenario nodes must be >= 1, got " +
                         std::to_string(scenario.nodes));
  }
  const arch::Machine machine = arch::machines::by_name(scenario.machine);
  (void)io::IoConfig::preset(scenario.io_preset);
  if (scenario.topology != "fattree" && scenario.topology != "dragonfly") {
    throw support::Error("scenario topology must be \"fattree\" or "
                         "\"dragonfly\", got \"" + scenario.topology + "\"");
  }
  if (scenario.straggler_fraction < 0.0 || scenario.straggler_fraction > 1.0) {
    throw support::Error("straggler_fraction must be in [0, 1]");
  }
  if (scenario.straggler_slowdown < 1.0) {
    throw support::Error("straggler_slowdown must be >= 1");
  }
  const std::set<std::string>& known = known_params(scenario.app);
  for (const auto& [name, value] : scenario.params) {
    (void)value;
    if (known.count(name) == 0) {
      throw support::Error("unknown " + svc::to_string(scenario.app) +
                           " param: " + name);
    }
  }
  // Rejected under every preset, so a bad value fails here rather than
  // mid-run and only under lustre/bb.
  const double ckpt_bytes =
      param_or(scenario, "checkpoint_bytes_per_rank", 0.0);
  if (!std::isfinite(ckpt_bytes) || ckpt_bytes < 0.0) {
    throw support::Error("checkpoint_bytes_per_rank must be finite and >= 0");
  }
  switch (scenario.app) {
    case App::kPele: {
      const double state = param_or(scenario, "code_state", 4.0);
      if (state < 0.0 || state > 4.0 || state != double(int(state))) {
        throw support::Error("pele code_state must be an integer in [0, 4]");
      }
      break;
    }
    case App::kGests: {
      const auto n =
          static_cast<std::size_t>(param_or(scenario, "n", 8192.0));
      const auto decomp = param_or(scenario, "pencils", 1.0) != 0.0
                              ? apps::gests::Decomposition::kPencils
                              : apps::gests::Decomposition::kSlabs;
      const int cap = apps::gests::max_nodes(machine, n, decomp);
      if (scenario.nodes > cap) {
        throw support::Error("gests n=" + std::to_string(n) + " admits at most " +
                             std::to_string(cap) + " nodes, got " +
                             std::to_string(scenario.nodes));
      }
      break;
    }
    case App::kLammps: {
      if (param_or(scenario, "cells", 2.0) < 1.0) {
        throw support::Error("lammps cells must be >= 1");
      }
      break;
    }
    case App::kSparseCg: {
      const double grid = param_or(scenario, "grid", 16.0);
      if (grid < 2.0 || grid > 64.0 || grid != double(int(grid))) {
        throw support::Error("sparse_cg grid must be an integer in [2, 64]");
      }
      const double tol = param_or(scenario, "tol", 1e-8);
      if (tol <= 0.0 || tol > 0.1) {
        throw support::Error("sparse_cg tol must be in (0, 0.1]");
      }
      if (param_or(scenario, "rows_per_rank", 1.0e6) < 1.0) {
        throw support::Error("sparse_cg rows_per_rank must be >= 1");
      }
      if (!machine.node.has_gpu()) {
        throw support::Error("sparse_cg needs a GPU machine, " +
                             machine.name + " has none");
      }
      break;
    }
    case App::kComet:
    case App::kExaSky:
      break;
  }
}

double Report::metric(const std::string& name) const {
  const auto it = metrics.find(name);
  if (it == metrics.end()) {
    throw support::Error("report has no metric named " + name);
  }
  return it->second;
}

Report run(const Scenario& scenario) {
  validate(scenario);
  const arch::Machine machine = arch::machines::by_name(scenario.machine);
  Report report;
  switch (scenario.app) {
    case App::kPele:
      report = run_pele(scenario, machine);
      break;
    case App::kGests:
      report = run_gests(scenario, machine);
      break;
    case App::kLammps:
      report = run_lammps(scenario, machine);
      break;
    case App::kComet:
      report = run_comet(scenario, machine);
      break;
    case App::kExaSky:
      report = run_exasky(scenario, machine);
      break;
    case App::kSparseCg:
      report = run_sparse_cg(scenario, machine);
      break;
  }
  // Pele and GESTS price the preset natively (plotfiles / field dumps);
  // the others charge one collective checkpoint. Quiet adds exactly 0.0.
  if (scenario.app != App::kPele && scenario.app != App::kGests) {
    const double ckpt = checkpoint_surcharge(scenario, machine);
    if (ckpt > 0.0) {
      report.metrics["checkpoint_s"] = ckpt;
      report.time_s += ckpt;
    }
  }
  report.scenario = scenario;
  return report;
}

}  // namespace exa::svc
