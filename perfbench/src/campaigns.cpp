/// The two campaign workloads: a what-if sweep under faults and a sizing
/// sweep with the fabric quiet. Both drive `campaign::parse_campaign`,
/// `campaign::expand_grid` and `campaign::CampaignRunner::run` with a
/// campaign document generated from the seed, and check the reports
/// against the benchmark's own enumeration of the grid, direct
/// `svc::run` calls, an independent CG, and orderings the models must
/// keep.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/gests/psdns.hpp"
#include "apps/lammps/qeq.hpp"
#include "apps/lammps/system.hpp"
#include "apps/sparse/cg.hpp"
#include "arch/machine.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common.hpp"
#include "io/checkpoint.hpp"
#include "io/io_model.hpp"
#include "net/fabric.hpp"
#include "support/rng.hpp"
#include "svc/scenario.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 41;
constexpr std::size_t kSampleReruns = 12;
/// Node HBM bandwidth ratio from published specs: Frontier 8 GCDs x
/// 1.6 TB/s over Wombat 2 A100 x 1.555 TB/s.
constexpr double kFrontierWombatBandwidthRatio = (8 * 1.6) / (2 * 1.555);
constexpr double kDefaultCheckpointBytes = 256.0 * 1024 * 1024;
/// Relative error within which the event-driven fabric reproduces the
/// analytic CommModel costs (the equivalence guarantee in net/fabric.hpp).
constexpr double kFabricEquivalence = 1e-9;

/// One grid point as the benchmark itself describes it.
struct Point {
  std::string app;
  std::string machine;
  int nodes = 1;
  std::string io = "quiet";
  std::string topology = "fattree";
  bool congestion = false;
  double straggler_fraction = 0.0;
  double straggler_slowdown = 1.0;
  std::map<std::string, double> params;

  [[nodiscard]] double param(const std::string& name, double fallback) const {
    const auto it = params.find(name);
    return it == params.end() ? fallback : it->second;
  }
  [[nodiscard]] bool fabric_event() const {
    return congestion || straggler_fraction > 0.0;
  }
  /// The benchmark's canonical tuple: distinct tuples are distinct runs.
  [[nodiscard]] std::string tuple() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s|%s|%d|%s|%s|%d|%a|%a", app.c_str(),
                  machine.c_str(), nodes, io.c_str(), topology.c_str(),
                  congestion ? 1 : 0, straggler_fraction, straggler_slowdown);
    std::string out = buf;
    for (const auto& [k, v] : params) {
      std::snprintf(buf, sizeof(buf), "|%s=%a", k.c_str(), v);
      out += buf;
    }
    return out;
  }
  [[nodiscard]] exa::svc::Scenario scenario() const {
    exa::svc::Scenario s;
    s.app = exa::svc::app_from_string(app);
    s.machine = machine;
    s.nodes = nodes;
    s.io_preset = io;
    s.topology = topology;
    s.congestion = congestion;
    s.straggler_fraction = straggler_fraction;
    s.straggler_slowdown = straggler_slowdown;
    s.params = params;
    return s;
  }
};

/// The sweep axes a campaign document lists.
struct Axes {
  std::string name;
  std::vector<std::string> machines;
  std::vector<std::string> apps;
  std::vector<int> nodes;
  std::vector<std::string> io = {"quiet"};
  std::vector<std::string> topology = {"fattree"};
  std::vector<bool> congestion = {false};
  std::vector<double> straggler_fraction = {0.0};
  std::vector<double> straggler_slowdown = {1.0};
  std::map<std::string, std::map<std::string, std::vector<double>>> params;

  [[nodiscard]] std::string json() const {
    const auto num = [](double v) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    };
    const auto list = [](const auto& values, const auto& fmt) {
      std::string out = "[";
      for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i ? ", " : "") + fmt(values[i]);
      }
      return out + "]";
    };
    const auto str = [](const std::string& s) { return "\"" + s + "\""; };
    std::string out = "{\n  \"name\": " + str(name);
    out += ",\n  \"machines\": " + list(machines, str);
    out += ",\n  \"apps\": " + list(apps, str);
    out += ",\n  \"nodes\": " + list(nodes, [](int n) { return std::to_string(n); });
    out += ",\n  \"io\": " + list(io, str);
    out += ",\n  \"topology\": " + list(topology, str);
    out += ",\n  \"congestion\": " +
           list(congestion, [](bool b) { return std::string(b ? "true" : "false"); });
    out += ",\n  \"fault\": {\"straggler_fraction\": " + list(straggler_fraction, num) +
           ", \"straggler_slowdown\": " + list(straggler_slowdown, num) + "}";
    out += ",\n  \"params\": {";
    bool first_app = true;
    for (const auto& [app, axes] : params) {
      out += std::string(first_app ? "" : ", ") + str(app) + ": {";
      first_app = false;
      bool first = true;
      for (const auto& [param, values] : axes) {
        out += std::string(first ? "" : ", ") + str(param) + ": " + list(values, num);
        first = false;
      }
      out += "}";
    }
    return out + "}\n}\n";
  }

  /// The grid in the documented expansion order (machines outermost, then
  /// apps, the app's params in name order with the last fastest, nodes,
  /// io, topology, congestion, straggler fraction, straggler slowdown),
  /// with a zero straggler fraction pinning the slowdown to 1.
  [[nodiscard]] std::vector<Point> enumerate() const {
    std::vector<Point> out;
    for (const std::string& machine : machines) {
      for (const std::string& app : apps) {
        std::vector<std::map<std::string, double>> combos = {{}};
        if (const auto it = params.find(app); it != params.end()) {
          for (const auto& [param, values] : it->second) {
            std::vector<std::map<std::string, double>> next;
            for (const auto& combo : combos) {
              for (const double v : values) {
                auto c = combo;
                c[param] = v;
                next.push_back(std::move(c));
              }
            }
            combos = std::move(next);
          }
        }
        for (const auto& combo : combos) {
          for (const int n : nodes) {
            for (const std::string& preset : io) {
              for (const std::string& topo : topology) {
                for (const bool cong : congestion) {
                  for (const double sf : straggler_fraction) {
                    for (const double ss : straggler_slowdown) {
                      Point p;
                      p.app = app;
                      p.machine = machine;
                      p.nodes = n;
                      p.io = preset;
                      p.topology = topo;
                      p.congestion = cong;
                      p.straggler_fraction = sf;
                      p.straggler_slowdown = sf == 0.0 ? 1.0 : ss;
                      p.params = combo;
                      out.push_back(std::move(p));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
    return out;
  }
};

/// One node count within 10% of each base scale: the seed moves every
/// scale, while the grid's total cost, which grows with the node counts,
/// stays within a few percent across seeds.
std::vector<int> jittered_nodes(Rng& rng, const std::vector<int>& bases) {
  std::vector<int> out;
  for (const int base : bases) {
    out.push_back(rng.uniform_int(base - base / 10, base + base / 10));
  }
  return out;
}

Axes faults_axes(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 1));
  Axes a;
  a.name = "what_if_faults";
  a.machines = {"frontier", "summit"};
  a.apps = {"pele", "gests", "lammps", "comet", "exasky", "sparse_cg"};
  a.nodes = jittered_nodes(rng, {24, 48, 96, 192});
  a.topology = {"fattree", "dragonfly"};
  a.congestion = {false, true};
  a.straggler_fraction = {0.0, rng.uniform(0.05, 0.15)};
  a.straggler_slowdown = {1.0, rng.uniform(1.5, 3.0)};
  a.params["gests"]["n"] = {2048};
  a.params["sparse_cg"]["grid"] = {16};
  return a;
}

Axes solvers_axes(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 2));
  Axes a;
  a.name = "solver_sizing";
  a.machines = {"frontier", "summit", "wombat"};
  // Heaviest points first in the grid's pop order, so each round ends on
  // cheap LAMMPS points rather than on a worker finishing a GESTS dump.
  a.apps = {"gests", "sparse_cg", "lammps"};
  // Node counts move freely (Wombat has 16 nodes): the host-side CG and
  // the storage walk cost the same at any scale. The stencil sizes stay
  // fixed because CG cost grows with their fourth power.
  a.nodes = {rng.uniform_int(2, 5), rng.uniform_int(8, 16)};
  a.io = {"quiet", "lustre", "bb"};
  a.params["sparse_cg"]["grid"] = {24, 36};
  a.params["sparse_cg"]["tol"] = {1e-8};
  a.params["lammps"]["fused"] = {0, 1};
  a.params["lammps"]["seed"] = {double(rng.uniform_int(1, 1 << 20))};
  a.params["gests"]["n"] = {4096, 8192};
  return a;
}

/// Independent CG on the same 27-point stencil, right-hand side and
/// stopping rule the sparse_cg app documents, applied matrix-free.
int reference_cg_iterations(int g, double tol) {
  const std::size_t n = std::size_t(g) * g * g;
  std::vector<double> b(n), x(n, 0.0), r(n), p(n), ap(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = 1.0 + 0.125 * double(i % 7);
  const auto apply = [&](const std::vector<double>& in, std::vector<double>& out) {
    for (int z = 0; z < g; ++z) {
      for (int y = 0; y < g; ++y) {
        for (int xx = 0; xx < g; ++xx) {
          const std::size_t row = (std::size_t(z) * g + y) * g + xx;
          double diag = 1.0;
          double acc = 0.0;
          for (int dz = -1; dz <= 1; ++dz) {
            for (int dy = -1; dy <= 1; ++dy) {
              for (int dx = -1; dx <= 1; ++dx) {
                const int cx = xx + dx, cy = y + dy, cz = z + dz;
                if ((dx | dy | dz) == 0 || cx < 0 || cy < 0 || cz < 0 ||
                    cx >= g || cy >= g || cz >= g) {
                  continue;
                }
                const double w = 1.0 / double(dx * dx + dy * dy + dz * dz);
                diag += w;
                acc -= w * in[(std::size_t(cz) * g + cy) * g + cx];
              }
            }
          }
          out[row] = diag * in[row] + acc;
        }
      }
    }
  };
  const auto dot = [](const std::vector<double>& u, const std::vector<double>& v) {
    double s = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
    return s;
  };
  r = b;
  p = r;
  double rr = dot(r, r);
  const double threshold = tol * tol * std::max(dot(b, b), 1e-300);
  int it = 0;
  while (it < 2000 && rr > threshold) {
    apply(p, ap);
    const double alpha = rr / dot(p, ap);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
    ++it;
  }
  return it;
}

/// Everything the checks look at.
struct CampaignObs {
  std::vector<Point> points;      ///< the benchmark's own enumeration
  std::size_t own_distinct = 0;   ///< distinct canonical tuples
  exa::campaign::CampaignResult result;  ///< first round
  std::vector<std::size_t> sample;             ///< re-run grid indices
  std::vector<exa::svc::Report> sample_direct; ///< direct svc::run of each
  std::map<std::pair<int, double>, int> reference_iterations;  ///< (grid, tol)
  std::size_t rounds = 0;
  std::size_t rounds_reproducing_first = 0;
};

/// Grid index of every canonical tuple (first occurrence).
std::map<std::string, std::size_t> tuple_index(const std::vector<Point>& points) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < points.size(); ++i) index.emplace(points[i].tuple(), i);
  return index;
}

/// Index of the point equal to points[i] except for the edit `f` applies.
template <typename Edit>
std::ptrdiff_t partner(const std::vector<Point>& points,
                       const std::map<std::string, std::size_t>& index,
                       std::size_t i, Edit f) {
  Point q = points[i];
  f(q);
  if (q.straggler_fraction == 0.0) q.straggler_slowdown = 1.0;
  const auto it = index.find(q.tuple());
  return it == index.end() ? -1 : std::ptrdiff_t(it->second);
}

/// "" when time(worse) >= time(better) for every pair `edit` forms from a
/// point `select` picks.
template <typename Select, typename Edit>
std::string ordering(const CampaignObs& o, const char* what, Select select, Edit edit) {
  const std::map<std::string, std::size_t> index = tuple_index(o.points);
  std::size_t n = 0;
  for (std::size_t i = 0; i < o.points.size(); ++i) {
    if (!select(o.points[i])) continue;
    const std::ptrdiff_t j = partner(o.points, index, i, edit);
    if (j < 0) return std::string("no partner for ") + o.points[i].tuple();
    ++n;
    const double worse = o.result.reports[i].time_s;
    const double better = o.result.reports[std::size_t(j)].time_s;
    // The event-driven fabric reproduces the analytic costs to within
    // kFabricEquivalence relative (fabric.hpp), so an uncongested
    // event-driven sum may land a rounding step below the quiet one.
    if (!(worse >= better * (1.0 - kFabricEquivalence))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: %.9g s < %.9g s at grid point %zu", what,
                    worse, better, i);
      return buf;
    }
  }
  return n == 0 ? std::string("no ") + what + " pairs in the grid" : "";
}

/// Index of the first report of `app` in the grid (for corruptions).
std::size_t first_of(const CampaignObs& o, const std::string& app,
                     bool (*extra)(const Point&) = nullptr) {
  for (std::size_t i = 0; i < o.points.size(); ++i) {
    if (o.points[i].app == app && (extra == nullptr || extra(o.points[i]))) return i;
  }
  return 0;
}

std::vector<Check<CampaignObs>> campaign_checks(bool solvers) {
  using Obs = CampaignObs;
  std::vector<Check<Obs>> checks;
  checks.push_back(
      {"ledger",
       [](const Obs& o) -> std::string {
         const auto& r = o.result;
         if (r.grid_size != o.points.size()) return "grid size differs from own enumeration";
         if (r.submitted != r.grid_size || r.completed != r.grid_size) {
           return "submitted/completed differ from grid size";
         }
         if (r.executed + r.dedupe_hits != r.submitted) return "executed + hits != submitted";
         if (r.executed != o.own_distinct) return "executed != own distinct tuple count";
         return "";
       },
       [](Obs& o) { o.result.executed += 1; }});
  checks.push_back(
      {"grid order matches own enumeration",
       [](const Obs& o) -> std::string {
         if (o.result.reports.size() != o.points.size()) return "report count differs";
         for (std::size_t i = 0; i < o.points.size(); ++i) {
           if (o.result.reports[i].scenario.key() != o.points[i].scenario().key()) {
             return "grid point " + std::to_string(i) + " is not the enumerated scenario";
           }
         }
         return "";
       },
       [](Obs& o) { std::swap(o.result.reports.front(), o.result.reports.back()); }});
  checks.push_back(
      {"sampled points equal direct svc::run",
       [](const Obs& o) -> std::string {
         for (std::size_t k = 0; k < o.sample.size(); ++k) {
           if (!same_report(o.result.reports[o.sample[k]], o.sample_direct[k])) {
             return "grid point " + std::to_string(o.sample[k]) + " differs";
           }
         }
         return o.sample.empty() ? "no sample" : "";
       },
       [](Obs& o) {
         double& t = o.result.reports[o.sample[0]].time_s;
         t = std::nextafter(t, 1e300);
       }});
  checks.push_back(
      {"every round reproduces round 1",
       [](const Obs& o) -> std::string {
         return o.rounds_reproducing_first == o.rounds ? "" : "a round's reports differ";
       },
       [](Obs& o) { o.rounds_reproducing_first -= 1; }});
  checks.push_back(
      {"sparse_cg converged, reads = iters",
       [](const Obs& o) -> std::string {
         for (std::size_t i = 0; i < o.points.size(); ++i) {
           if (o.points[i].app != "sparse_cg") continue;
           const auto& rep = o.result.reports[i];
           const double it = rep.metric("cg_iterations");
           if (rep.metric("converged") != 1.0 || rep.metric("matrix_reads") != it ||
               rep.metric("allreduces") != 1.0 + 2.0 * it) {
             return "sparse_cg ledger broken at grid point " + std::to_string(i);
           }
         }
         return "";
       },
       [](Obs& o) { o.result.reports[first_of(o, "sparse_cg")].metrics["allreduces"] += 1; }});
  checks.push_back(
      {"sparse_cg iterations = independent CG",
       [](const Obs& o) -> std::string {
         for (std::size_t i = 0; i < o.points.size(); ++i) {
           const Point& p = o.points[i];
           if (p.app != "sparse_cg") continue;
           const int ref = o.reference_iterations.at(
               {int(p.param("grid", 16)), p.param("tol", 1e-8)});
           const double it = o.result.reports[i].metric("cg_iterations");
           if (std::abs(it - ref) > 1.0) {
             return "grid point " + std::to_string(i) + ": " + std::to_string(int(it)) +
                    " iterations, independent CG " + std::to_string(ref);
           }
         }
         return "";
       },
       [](Obs& o) { o.result.reports[first_of(o, "sparse_cg")].metrics["cg_iterations"] += 2; }});
  if (!solvers) {
    checks.push_back(
        {"congestion on >= off",
         [](const Obs& o) {
           return ordering(o, "congestion", [](const Point& p) { return p.congestion; },
                           [](Point& q) { q.congestion = false; });
         },
         [](Obs& o) {
           const std::size_t i = first_of(o, "pele", [](const Point& p) { return p.congestion; });
           o.result.reports[i].time_s = 0.0;
         }});
    checks.push_back(
        {"stragglers >= none",
         [](const Obs& o) {
           return ordering(o, "straggler",
                           [](const Point& p) { return p.straggler_fraction > 0.0; },
                           [](Point& q) { q.straggler_fraction = 0.0; });
         },
         [](Obs& o) {
           const std::size_t i = first_of(
               o, "exasky", [](const Point& p) { return p.straggler_fraction > 0.0; });
           o.result.reports[i].time_s = 0.0;
         }});
    return checks;
  }
  checks.push_back(
      {"io non-quiet >= quiet",
       [](const Obs& o) {
         return ordering(o, "io", [](const Point& p) { return p.io != "quiet"; },
                         [](Point& q) { q.io = "quiet"; });
       },
       [](Obs& o) {
         const std::size_t i = first_of(o, "gests", [](const Point& p) { return p.io == "bb"; });
         o.result.reports[i].time_s = 0.0;
       }});
  checks.push_back(
      {"lammps converged, fused < split",
       [](const Obs& o) -> std::string {
         const std::map<std::string, std::size_t> index = tuple_index(o.points);
         std::size_t pairs = 0;
         for (std::size_t i = 0; i < o.points.size(); ++i) {
           const Point& p = o.points[i];
           if (p.app != "lammps") continue;
           if (o.result.reports[i].metric("converged") != 1.0) return "lammps did not converge";
           if (p.param("fused", 1) == 0.0) continue;
           const std::ptrdiff_t j = partner(o.points, index, i, [](Point& q) { q.params["fused"] = 0; });
           if (j < 0) return "no split partner";
           ++pairs;
           if (!(o.result.reports[i].time_s < o.result.reports[std::size_t(j)].time_s)) {
             return "fused not faster than split at grid point " + std::to_string(i);
           }
         }
         return pairs == 0 ? "no fused/split pairs" : "";
       },
       [](Obs& o) {
         const std::size_t i =
             first_of(o, "lammps", [](const Point& p) { return p.param("fused", 1) == 1.0; });
         o.result.reports[i].time_s = 1e300;
       }});
  checks.push_back(
      {"gests io_s == 0 iff quiet",
       [](const Obs& o) -> std::string {
         for (std::size_t i = 0; i < o.points.size(); ++i) {
           if (o.points[i].app != "gests") continue;
           const bool zero = o.result.reports[i].metric("io_s") == 0.0;
           if (zero != (o.points[i].io == "quiet")) {
             return "gests io_s wrong at grid point " + std::to_string(i);
           }
         }
         return "";
       },
       [](Obs& o) { o.result.reports[first_of(o, "gests")].metrics["io_s"] = 1e-9; }});
  checks.push_back(
      {"frontier/wombat sparse_cg fom ~ 4.12",
       [](const Obs& o) -> std::string {
         const std::map<std::string, std::size_t> index = tuple_index(o.points);
         std::size_t pairs = 0;
         for (std::size_t i = 0; i < o.points.size(); ++i) {
           const Point& p = o.points[i];
           if (p.app != "sparse_cg" || p.machine != "frontier") continue;
           const std::ptrdiff_t j =
               partner(o.points, index, i, [](Point& q) { q.machine = "wombat"; });
           if (j < 0) return "no wombat partner";
           ++pairs;
           const double ratio =
               o.result.reports[i].fom / o.result.reports[std::size_t(j)].fom;
           if (std::abs(ratio / kFrontierWombatBandwidthRatio - 1.0) > 0.05) {
             return "fom ratio " + std::to_string(ratio) + " at grid point " +
                    std::to_string(i);
           }
         }
         return pairs == 0 ? "no frontier/wombat pairs" : "";
       },
       [](Obs& o) {
         const std::size_t i = first_of(
             o, "sparse_cg", [](const Point& p) { return p.machine == "wombat"; });
         o.result.reports[i].fom *= 1.1;
       }});
  return checks;
}

/// Spans and per-layer sums of the serial replay (traced runs only).
struct Replay {
  double run_s = 0.0;
  std::vector<double> run_times;
  std::map<std::string, double> run_by_app;
  double run_event = 0.0;
  double run_quiet = 0.0;
  double fabric_build_s = 0.0;
  double cg_solve_s = 0.0;
  double cg_iterations = 0.0;
  double spmv_bytes = 0.0;
  double qeq_s = 0.0;
  double gests_s = 0.0;
  std::map<std::string, double> checkpoint_s;
};

int ranks_of(const exa::arch::Machine& m, int nodes) {
  return nodes * std::max(1, m.node.gpus_per_node);
}

/// Replays every distinct grid point serially: svc::run, then the layer
/// calls that point prices, each as its own span under the point's span.
Replay replay(const std::vector<Point>& points, bool solvers, Tracer& tracer) {
  Tracer::Lane lane = tracer.lane(0);
  std::set<std::string> seen;
  std::vector<std::pair<std::int64_t, std::size_t>> run_spans;
  std::vector<std::pair<std::int64_t, std::string>> ckpt_spans;
  std::vector<std::int64_t> build_spans, cg_spans, qeq_spans, gests_spans;
  double cg_iterations = 0.0;
  double spmv_bytes = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (!seen.insert(p.tuple()).second) continue;
    const exa::svc::Scenario s = p.scenario();
    const exa::arch::Machine machine = exa::arch::machines::by_name(p.machine);
    const std::int64_t root = lane.open("campaign.point", i, -1, p.app.c_str());

    std::int64_t h = lane.open("svc.run", i, root);
    (void)exa::svc::run(s);
    lane.close(h);
    run_spans.emplace_back(h, i);

    h = lane.open("net.fabric_build", i, root);
    {
      const exa::net::Fabric fabric(machine, std::max(1, machine.node.gpus_per_node),
                                    s.fabric_config());
      (void)fabric;
    }
    lane.close(h);
    build_spans.push_back(h);
    if (!solvers) {
      lane.close(root);
      continue;
    }

    const exa::io::IoConfig io = exa::io::IoConfig::preset(p.io);
    const int ranks = ranks_of(machine, p.nodes);
    if (p.app == "sparse_cg") {
      const auto g = std::size_t(p.param("grid", 16));
      h = lane.open("apps.sparse.cg_solve", i, root);
      const exa::apps::sparse::StencilMatrix a = exa::apps::sparse::build_stencil_matrix(g, g, g);
      std::vector<double> b(a.n);
      for (std::size_t k = 0; k < a.n; ++k) b[k] = 1.0 + 0.125 * double(k % 7);
      const auto cg = exa::apps::sparse::cg_solve(a, b, p.param("tol", 1e-8), 2000);
      lane.close(h);
      cg_spans.push_back(h);
      cg_iterations += cg.stats.iterations;
      // Computed bytes per SpMV: values, column indices, row offsets, the
      // gathered input and the written output, once each.
      spmv_bytes += double(cg.stats.matrix_reads) *
                    (double(a.nnz()) * (sizeof(double) + sizeof(std::size_t)) +
                     double(a.n + 1) * sizeof(std::size_t) + 2.0 * double(a.n) * sizeof(double));
    } else if (p.app == "lammps") {
      h = lane.open("apps.lammps.qeq", i, root);
      exa::support::Rng rng(std::uint64_t(p.param("seed", 42)));
      const auto sys = exa::apps::lammps::make_molecular_crystal(int(p.param("cells", 2)), 5, rng);
      const auto neigh = exa::apps::lammps::build_neighbor_list(sys, 3.0);
      const auto hm = exa::apps::lammps::build_qeq_matrix(sys, neigh, 3.0);
      (void)exa::apps::lammps::equilibrate(sys, hm, p.param("fused", 1) != 0.0);
      lane.close(h);
      qeq_spans.push_back(h);
    } else if (p.app == "gests") {
      exa::apps::gests::PsdnsConfig config;
      config.n = std::size_t(p.param("n", 8192));
      config.fabric = s.fabric_config();
      config.io = io;
      h = lane.open("apps.gests.step_time", i, root);
      (void)exa::apps::gests::step_time(machine, p.nodes, config);
      lane.close(h);
      gests_spans.push_back(h);
    }
    // The storage call the point prices: GESTS dumps its field share
    // natively (every preset); the others charge one checkpoint when the
    // preset is not quiet.
    const double n = p.param("n", 8192);
    if (p.app == "gests") {
      h = lane.open("io.checkpoint", i, root, p.io.c_str());
      (void)exa::io::checkpoint_time(io, ranks, n * n * n * 16.0 / ranks);
      lane.close(h);
      ckpt_spans.emplace_back(h, p.io);
    } else if (!io.quiet()) {
      h = lane.open("io.checkpoint", i, root, p.io.c_str());
      (void)exa::io::checkpoint_time(
          io, ranks, p.param("checkpoint_bytes_per_rank", kDefaultCheckpointBytes));
      lane.close(h);
      ckpt_spans.emplace_back(h, p.io);
    }
    lane.close(root);
  }
  const std::size_t base = tracer.spans().size();
  tracer.merge(std::move(lane));
  const std::vector<double> self = tracer.self_times();
  const auto self_of = [&](std::int64_t handle) { return self[base + std::size_t(handle)]; };

  Replay out;
  for (const auto& [handle, i] : run_spans) {
    const double t = self_of(handle);
    out.run_s += t;
    out.run_times.push_back(t);
    out.run_by_app[points[i].app] += t;
    (points[i].fabric_event() ? out.run_event : out.run_quiet) += t;
  }
  for (const std::int64_t h : build_spans) out.fabric_build_s += self_of(h);
  for (const std::int64_t h : cg_spans) out.cg_solve_s += self_of(h);
  for (const std::int64_t h : qeq_spans) out.qeq_s += self_of(h);
  for (const std::int64_t h : gests_spans) out.gests_s += self_of(h);
  for (const auto& [h, preset] : ckpt_spans) out.checkpoint_s[preset] += self_of(h);
  out.cg_iterations = cg_iterations;
  out.spmv_bytes = spmv_bytes;
  return out;
}

RunResult run_campaign(const Options& options, const Axes& axes, bool solvers) {
  const Clock::time_point origin = Clock::now();
  Tracer tracer(options.trace, origin);
  Tracer::Lane lane = tracer.lane(0);
  RunResult out;

  CampaignObs obs;
  obs.points = axes.enumerate();
  {
    std::set<std::string> distinct;
    for (const Point& p : obs.points) distinct.insert(p.tuple());
    obs.own_distinct = distinct.size();
  }
  const std::string json = axes.json();
  std::printf("campaign %s: %zu grid points, %zu distinct (duplicate share %.4f)\n",
              axes.name.c_str(), obs.points.size(), obs.own_distinct,
              1.0 - double(obs.own_distinct) / double(obs.points.size()));

  // Set-up: the program's own parse and expansion, repeated. Every
  // repeat's spec and grid stay alive, so each repeat allocates fresh
  // memory as a new process would, instead of reusing or re-faulting
  // what the allocator happened to keep from the previous one.
  std::vector<double> setup;
  std::vector<exa::campaign::CampaignSpec> specs;
  std::vector<std::vector<exa::svc::Scenario>> grids;
  specs.reserve(kSetupRepeats);
  grids.reserve(kSetupRepeats);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t root = lane.open("campaign.setup", std::uint64_t(i));
    const Clock::time_point t0 = Clock::now();
    std::int64_t h = lane.open("campaign.parse", std::uint64_t(i), root);
    specs.push_back(exa::campaign::parse_campaign(json));
    lane.close(h);
    h = lane.open("campaign.expand", std::uint64_t(i), root);
    grids.push_back(exa::campaign::expand_grid(specs.back()));
    lane.close(h);
    setup.push_back(seconds_since(t0));
    lane.close(root);
    if (grids.back().size() != obs.points.size()) throw std::runtime_error("grid size mismatch");
  }
  const exa::campaign::CampaignSpec spec = specs.back();
  specs.clear();
  grids.clear();

  exa::campaign::RunnerConfig config;
  config.workers = std::size_t(options.cpus);
  std::vector<double> round_s;
  const double cpu0 = process_cpu_s();
  const Clock::time_point loop0 = Clock::now();
  do {
    const std::int64_t h = lane.open("campaign.run", round_s.size());
    const Clock::time_point t0 = Clock::now();
    // A failed grid point makes run() throw, which aborts the benchmark.
    exa::campaign::CampaignResult result = exa::campaign::CampaignRunner(config).run(spec);
    round_s.push_back(seconds_since(t0));
    lane.close(h);
    std::printf("round %zu: %.1f points/s\n", round_s.size() - 1,
                double(result.grid_size) / round_s.back());
    out.attempted += result.grid_size;
    ++obs.rounds;
    if (obs.rounds == 1) {
      obs.result = std::move(result);
      ++obs.rounds_reproducing_first;
    } else {
      bool same = result.reports.size() == obs.result.reports.size();
      for (std::size_t i = 0; same && i < result.reports.size(); ++i) {
        same = same_report(result.reports[i], obs.result.reports[i]);
      }
      obs.rounds_reproducing_first += same ? 1 : 0;
    }
  } while (seconds_since(loop0) < options.seconds);
  const double loop_cpu_s = process_cpu_s() - cpu0;
  tracer.merge(std::move(lane));
  std::printf("rounds %zu, round time median %.4f s\n", round_s.size(), median(round_s));

  // Checks: own enumeration, direct re-runs, independent CG, orderings.
  Rng pick(mix_seed(options.seed, 3));
  std::set<std::size_t> sample;
  while (sample.size() < std::min(kSampleReruns, obs.points.size())) {
    sample.insert(std::size_t(pick.next() % obs.points.size()));
  }
  for (const std::size_t i : sample) {
    obs.sample.push_back(i);
    obs.sample_direct.push_back(exa::svc::run(obs.points[i].scenario()));
  }
  for (const Point& p : obs.points) {
    if (p.app != "sparse_cg") continue;
    const std::pair<int, double> key{int(p.param("grid", 16)), p.param("tol", 1e-8)};
    if (!obs.reference_iterations.count(key)) {
      obs.reference_iterations[key] = reference_cg_iterations(key.first, key.second);
    }
  }
  const CheckReport checks = run_checks(obs, campaign_checks(solvers));
  out.correct = checks.ok();
  std::printf("dedupe hits %llu of %zu grid points (share %.4f)\n",
              (unsigned long long)obs.result.dedupe_hits, obs.result.grid_size,
              double(obs.result.dedupe_hits) / double(obs.result.grid_size));

  std::vector<double> rates;
  for (const double t : round_s) rates.push_back(double(obs.points.size()) / t);
  if (!options.trace) {
    out.add("ops_per_s", median(rates), "ops/s");
    out.add("latency_p50_s", median(round_s), "s");
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const Replay r = replay(obs.points, solvers, tracer);
  out.add("campaign.parse_s", median(tracer.self_times_of("campaign.parse")), "s");
  out.add("campaign.expand_s", median(tracer.self_times_of("campaign.expand")), "s");
  out.add("campaign.dedupe_hits", double(obs.result.dedupe_hits), "count");
  out.add("svc.run_s", r.run_s, "s");
  out.add("svc.run_p50_s", quantile(r.run_times, 0.5), "s");
  out.add("svc.run_p99_s", quantile(r.run_times, 0.99), "s");
  for (const auto& [app, t] : r.run_by_app) out.add("svc.run_s." + app, t, "s");
  out.add("svc.run_s.fabric_event", r.run_event, "s");
  out.add("svc.run_s.fabric_quiet", r.run_quiet, "s");
  out.add("svc.worker_busy", r.run_s / (double(options.cpus) * median(round_s)), "ratio");
  out.add("net.fabric_build_s", r.fabric_build_s, "s");
  if (solvers) {
    out.add("apps.sparse.cg_solve_s", r.cg_solve_s, "s");
    out.add("apps.sparse.cg_iterations", r.cg_iterations, "count");
    out.add("apps.sparse.spmv_gbytes_per_s", r.spmv_bytes / r.cg_solve_s / 1e9, "GB/s");
    out.add("apps.lammps.qeq_s", r.qeq_s, "s");
    out.add("apps.gests.step_time_s", r.gests_s, "s");
    for (const auto& [preset, t] : r.checkpoint_s) out.add("io.checkpoint_s." + preset, t, "s");
  }
  out.add("proc.cpu_s", loop_cpu_s, "s");
  out.add("trace.ops_per_s", median(rates), "ops/s");
  tracer.write_json(trace_path(options), kTraceFileSpans);
  return out;
}

}  // namespace

RunResult run_campaign_faults(const Options& options) {
  return run_campaign(options, faults_axes(options.seed), /*solvers=*/false);
}

RunResult run_campaign_solvers(const Options& options) {
  return run_campaign(options, solvers_axes(options.seed), /*solvers=*/true);
}

}  // namespace perfbench
