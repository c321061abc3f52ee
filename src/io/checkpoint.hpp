#pragma once
/// \file checkpoint.hpp
/// Collective checkpoint helpers over `FileSystem`: the one storage
/// pattern every app in the paper shares — N ranks each open a
/// file-per-process, stream their state, and close.
///
/// Two forms: a free-standing one over explicit start times (what the
/// analytic app drivers use to price Pele plotfiles, GESTS field dumps
/// and LAMMPS restarts), and one coupled to `net::RankSim` — each rank's
/// write begins at its own virtual clock and the clock is advanced to the
/// I/O completion, so checkpoints compose with overlapped communication
/// schedules on the same per-rank timelines.
///
/// Units: all times seconds, all sizes bytes.

#include <string>

#include "io/file_system.hpp"
#include "net/rank_sim.hpp"

namespace exa::io {

/// Outcome of one collective checkpoint.
struct CheckpointStats {
  int ranks = 0;
  double bytes_per_rank = 0.0;
  double begin_s = 0.0;  ///< earliest rank's start (seconds)
  double end_s = 0.0;    ///< latest rank's close completion (seconds)
  /// Wall time of the collective from first start to last completion
  /// (seconds).
  [[nodiscard]] double makespan_s() const { return end_s - begin_s; }
};

/// Checkpoints `ranks` ranks of `bytes_per_rank` each through `fs`,
/// file-per-process under `path_prefix` ("<prefix>/r<rank>"), all
/// starting at `start_s`. Returns the collective outcome.
CheckpointStats checkpoint(FileSystem& fs, int ranks, double bytes_per_rank,
                           double start_s = 0.0,
                           const std::string& path_prefix = "ckpt");

/// RankSim-coupled form: rank r's open/write/close starts at
/// `sim.now(r)` and the rank's virtual clock is advanced to its close
/// completion.
CheckpointStats checkpoint(FileSystem& fs, net::RankSim& sim,
                           double bytes_per_rank,
                           const std::string& path_prefix = "ckpt");

/// Convenience: the wall time of one collective checkpoint on a fresh
/// filesystem built from `config`. Exactly 0.0 for a quiet config — the
/// guarantee the app drivers' golden-stable defaults rest on — which it
/// returns after checking its arguments, without building the filesystem
/// (so a quiet call leaves no DXT records or trace spans).
[[nodiscard]] double checkpoint_time(const IoConfig& config, int ranks,
                                     double bytes_per_rank);

}  // namespace exa::io
