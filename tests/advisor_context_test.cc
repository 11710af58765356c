// Tests for the workload-context machinery: data-size feature vs the
// hour-of-day/day-of-week fallback (paper §3.3, data-privacy case).
#include <gtest/gtest.h>

#include <cmath>

#include "bo/advisor.h"

namespace sparktune {
namespace {

ConfigSpace TinySpace() {
  ConfigSpace s;
  EXPECT_TRUE(s.Add(Parameter::Float("x", 0.0, 1.0, 0.5)).ok());
  EXPECT_TRUE(s.Add(Parameter::Float("y", 0.0, 1.0, 0.5)).ok());
  return s;
}

Observation Obs(const Configuration& c, double objective, double ds,
                double hours) {
  Observation o;
  o.config = c;
  o.objective = objective;
  o.runtime_sec = objective;
  o.resource_rate = 1.0;
  o.data_size_gb = ds;
  o.hours = hours;
  o.feasible = true;
  return o;
}

TEST(AdvisorContextTest, UsesDataSizeWhenObservable) {
  ConfigSpace space = TinySpace();
  AdvisorOptions opts;
  opts.init_samples = 2;
  Advisor advisor(&space, opts);
  Rng rng(1);
  for (int i = 0; i < 6; ++i) {
    Configuration c = advisor.Suggest(/*ds=*/50.0, /*hours=*/i);
    advisor.Observe(Obs(c, rng.Uniform(1.0, 2.0), 50.0, i));
  }
  EXPECT_FALSE(advisor.using_time_context());
  EXPECT_EQ(advisor.Schema().size(), space.size() + 1);
}

TEST(AdvisorContextTest, FallsBackToTimeContextWhenDataSizeHidden) {
  ConfigSpace space = TinySpace();
  AdvisorOptions opts;
  opts.init_samples = 2;
  Advisor advisor(&space, opts);
  Rng rng(2);
  for (int i = 0; i < 6; ++i) {
    Configuration c = advisor.Suggest(/*ds=*/-1.0, /*hours=*/i * 1.0);
    advisor.Observe(Obs(c, rng.Uniform(1.0, 2.0), -1.0, i * 1.0));
  }
  EXPECT_TRUE(advisor.using_time_context());
  EXPECT_EQ(advisor.Schema().size(), space.size() + 2);
}

TEST(AdvisorContextTest, TimeContextEncodingIsPeriodic) {
  // TimeOfDayContext wraps daily and weekly.
  auto a = TimeOfDayContext(3.0);
  auto b = TimeOfDayContext(3.0 + 24.0 * 7.0);  // one week later
  ASSERT_EQ(a.size(), 2u);
  EXPECT_NEAR(a[0], b[0], 1e-9);
  EXPECT_NEAR(a[1], b[1], 1e-9);
  auto c = TimeOfDayContext(15.0);
  EXPECT_NE(a[0], c[0]);
}

TEST(AdvisorContextTest, MixedVisibilityPrefersDataSize) {
  // If any observation exposes the data size, the data-size feature wins.
  ConfigSpace space = TinySpace();
  AdvisorOptions opts;
  opts.init_samples = 2;
  Advisor advisor(&space, opts);
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    Configuration c = advisor.Suggest(i == 0 ? 20.0 : -1.0, i);
    advisor.Observe(Obs(c, rng.Uniform(1.0, 2.0), i == 0 ? 20.0 : -1.0, i));
  }
  EXPECT_FALSE(advisor.using_time_context());
}

}  // namespace
}  // namespace sparktune
