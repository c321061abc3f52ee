/// Unit tests of the service layer's job description (svc::Scenario →
/// svc::run → svc::Report): canonical content keys, submit-time
/// validation, and the purity guarantee the dedupe machinery rests on —
/// equal keys must imply bitwise-equal reports.

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "support/assert.hpp"
#include "svc/scenario.hpp"

namespace exa::svc {
namespace {

/// The cheapest runnable scenario: a one-node ExaSky step at a tiny
/// particle count.
Scenario tiny_exasky() {
  Scenario s;
  s.app = App::kExaSky;
  s.nodes = 1;
  s.params = {{"particles_per_rank", 1.0e5}};
  return s;
}

TEST(SvcScenario, AppNamesRoundTrip) {
  for (const App app : {App::kPele, App::kGests, App::kLammps, App::kComet,
                        App::kExaSky, App::kSparseCg}) {
    EXPECT_EQ(app_from_string(to_string(app)), app);
  }
  EXPECT_THROW((void)app_from_string("nbody"), support::Error);
  EXPECT_THROW((void)app_from_string(""), support::Error);
}

TEST(SvcScenario, KeyCoversEveryReportInfluencingField) {
  const Scenario base = tiny_exasky();
  const std::string key = base.key();
  EXPECT_NE(key.find("app=exasky"), std::string::npos);

  // Every field that can change the report must change the key.
  Scenario s = base;
  s.nodes = 2;
  EXPECT_NE(s.key(), key);
  s = base;
  s.machine = "summit";
  EXPECT_NE(s.key(), key);
  s = base;
  s.io_preset = "lustre";
  EXPECT_NE(s.key(), key);
  s = base;
  s.topology = "dragonfly";
  EXPECT_NE(s.key(), key);
  s = base;
  s.congestion = true;
  EXPECT_NE(s.key(), key);
  s = base;
  s.straggler_fraction = 0.25;
  s.straggler_slowdown = 2.0;
  EXPECT_NE(s.key(), key);
  s = base;
  s.params["hydro"] = 1.0;
  EXPECT_NE(s.key(), key);
  s = base;
  s.params["particles_per_rank"] = 2.0e5;
  EXPECT_NE(s.key(), key);
}

TEST(SvcScenario, KeyIsInsertionOrderFree) {
  Scenario a = tiny_exasky();
  a.params.clear();
  a.params.emplace("particles_per_rank", 1.0e5);
  a.params.emplace("hydro", 1.0);

  Scenario b = tiny_exasky();
  b.params.clear();
  b.params.emplace("hydro", 1.0);
  b.params.emplace("particles_per_rank", 1.0e5);

  EXPECT_EQ(a.key(), b.key());
}

TEST(SvcScenario, ValidateRejectsBadScenarios) {
  Scenario s = tiny_exasky();
  s.nodes = 0;
  EXPECT_THROW(validate(s), support::Error);

  s = tiny_exasky();
  s.machine = "el-capitan-jr";
  EXPECT_THROW(validate(s), support::Error);

  s = tiny_exasky();
  s.io_preset = "ramdisk";
  EXPECT_THROW(validate(s), support::Error);

  s = tiny_exasky();
  s.straggler_fraction = 1.5;
  EXPECT_THROW(validate(s), support::Error);
  s.straggler_fraction = -0.1;
  EXPECT_THROW(validate(s), support::Error);

  s = tiny_exasky();
  s.straggler_slowdown = 0.5;
  EXPECT_THROW(validate(s), support::Error);

  // Only the two wired fabric topologies are accepted.
  s = tiny_exasky();
  s.topology = "torus";
  EXPECT_THROW(validate(s), support::Error);
  s.topology = "dragonfly";
  EXPECT_NO_THROW(validate(s));

  // A typo'd param key must be rejected, not silently run the default.
  s = tiny_exasky();
  s.params["partcles_per_rank"] = 1.0e5;
  EXPECT_THROW(validate(s), support::Error);

  // A bad checkpoint payload is rejected under every preset, quiet too.
  for (const double bytes : {-1.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    for (const char* preset : {"quiet", "lustre", "bb"}) {
      s = tiny_exasky();
      s.io_preset = preset;
      s.params["checkpoint_bytes_per_rank"] = bytes;
      EXPECT_THROW(validate(s), support::Error) << preset << " " << bytes;
    }
  }
  s.params["checkpoint_bytes_per_rank"] = 0.0;
  EXPECT_NO_THROW(validate(s));
}

TEST(SvcScenario, ValidateEnforcesAppLimits) {
  Scenario s;
  s.app = App::kPele;
  s.params = {{"code_state", 7.0}};
  EXPECT_THROW(validate(s), support::Error);
  s.params = {{"code_state", 2.5}};  // must be an integer state
  EXPECT_THROW(validate(s), support::Error);
  s.params = {{"code_state", 3.0}};
  EXPECT_NO_THROW(validate(s));

  // GESTS slabs cap at N ranks: a tiny grid cannot fill many nodes.
  s = Scenario{};
  s.app = App::kGests;
  s.nodes = 4096;
  s.params = {{"n", 64.0}, {"pencils", 0.0}};
  EXPECT_THROW(validate(s), support::Error);

  s = Scenario{};
  s.app = App::kLammps;
  s.params = {{"cells", 0.0}};
  EXPECT_THROW(validate(s), support::Error);

  // sparse_cg needs a GPU machine and a stencil grid in [2, 64].
  s = Scenario{};
  s.app = App::kSparseCg;
  s.machine = "cori";
  EXPECT_THROW(validate(s), support::Error);
  s.machine = "frontier";
  s.params = {{"grid", 1.0}};
  EXPECT_THROW(validate(s), support::Error);
  s.params = {{"grid", 16.0}};
  EXPECT_NO_THROW(validate(s));
}

TEST(SvcScenario, DefaultParamsRunForEveryApp) {
  for (const App app : {App::kPele, App::kGests, App::kLammps, App::kComet,
                        App::kExaSky, App::kSparseCg}) {
    Scenario s;
    s.app = app;
    s.nodes = 1;
    ASSERT_NO_THROW(validate(s)) << to_string(app);
    const Report report = run(s);
    EXPECT_GT(report.time_s, 0.0) << to_string(app);
    EXPECT_GT(report.fom, 0.0) << to_string(app);
    EXPECT_FALSE(report.metrics.empty()) << to_string(app);
  }
}

TEST(SvcScenario, RunIsPure) {
  // Equal scenarios → bitwise-equal reports; this is the contract the
  // server's content-keyed dedupe depends on (server.hpp).
  const Scenario s = tiny_exasky();
  const Report first = run(s);
  const Report second = run(s);
  EXPECT_EQ(first.time_s, second.time_s);
  EXPECT_EQ(first.fom, second.fom);
  EXPECT_EQ(first.metrics, second.metrics);
}

TEST(SvcScenario, MetricLookupFailsLoudly) {
  const Report report = run(tiny_exasky());
  EXPECT_GE(report.metric("comm_s"), 0.0);
  EXPECT_THROW((void)report.metric("comm_seconds"), support::Error);
}

TEST(SvcScenario, QuietIoAddsNothingAndLustreCharges) {
  Scenario quiet = tiny_exasky();
  Scenario defaulted = tiny_exasky();
  quiet.io_preset = "quiet";
  EXPECT_EQ(run(quiet).time_s, run(defaulted).time_s);

  Scenario lustre = tiny_exasky();
  lustre.io_preset = "lustre";
  EXPECT_GT(run(lustre).time_s, run(quiet).time_s);
}

TEST(SvcScenario, RunRejectsWhatValidateRejects) {
  Scenario s = tiny_exasky();
  s.params["no_such_knob"] = 1.0;
  EXPECT_THROW((void)run(s), support::Error);
}

}  // namespace
}  // namespace exa::svc
