// Fault-tolerance tests (DESIGN.md §7): retry/backoff watchdog, circuit
// breaker with degraded incumbent runs, infra-failure transparency to the
// advisor, batch error-slot semantics, and thread-count invariance of the
// fault-seeded trajectory.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "service/tuning_service.h"
#include "sparksim/hibench.h"
#include "tuner/fault_injection.h"

namespace sparktune {
namespace {

struct Fixture {
  Fixture()
      : cluster(ClusterSpec::HiBenchCluster()),
        space(BuildSparkSpace(cluster)) {}

  std::unique_ptr<SimulatorEvaluator> MakeInner(const std::string& task,
                                                uint64_t seed) {
    auto w = HiBenchTask(task);
    EXPECT_TRUE(w.ok());
    SimulatorEvaluatorOptions opts;
    opts.seed = seed;
    return std::make_unique<SimulatorEvaluator>(&space, *w, cluster,
                                                DriftModel::Diurnal(), opts);
  }

  TuningServiceOptions ServiceOpts() {
    TuningServiceOptions opts;
    opts.tuner.budget = 10;
    opts.tuner.ei_stop_threshold = 0.0;
    opts.tuner.advisor.expert_ranking = ExpertParameterRanking();
    return opts;
  }

  ClusterSpec cluster;
  ConfigSpace space;
};

TEST(BackoffTest, ExponentialScheduleIsBoundedAndDeterministic) {
  RetryPolicy policy;  // base 1, max 8
  EXPECT_EQ(policy.BackoffPeriods(0), 0);
  EXPECT_EQ(policy.BackoffPeriods(1), 1);
  EXPECT_EQ(policy.BackoffPeriods(2), 2);
  EXPECT_EQ(policy.BackoffPeriods(3), 4);
  EXPECT_EQ(policy.BackoffPeriods(4), 8);
  EXPECT_EQ(policy.BackoffPeriods(40), 8);  // capped, no shift overflow
}

TEST(BackoffTest, ShiftOverflowIsClampedToCap) {
  RetryPolicy policy;
  policy.base_backoff_periods = 3;
  policy.max_backoff_periods = 1000000000;
  // Exponents at and far past the operand width: the clamp kicks in before
  // `base << (k-1)` becomes undefined, and the answer is the cap.
  EXPECT_EQ(policy.BackoffPeriods(40), 1000000000);
  EXPECT_EQ(policy.BackoffPeriods(63), 1000000000);
  EXPECT_EQ(policy.BackoffPeriods(1000), 1000000000);
  policy.base_backoff_periods = std::numeric_limits<int>::max();
  policy.max_backoff_periods = std::numeric_limits<int>::max();
  EXPECT_EQ(policy.BackoffPeriods(2), std::numeric_limits<int>::max());
  // Degenerate policies disable backoff instead of misbehaving.
  policy.base_backoff_periods = 0;
  EXPECT_EQ(policy.BackoffPeriods(5), 0);
  policy.base_backoff_periods = 4;
  policy.max_backoff_periods = 0;
  EXPECT_EQ(policy.BackoffPeriods(5), 0);
  policy.base_backoff_periods = -3;
  policy.max_backoff_periods = 8;
  EXPECT_EQ(policy.BackoffPeriods(5), 0);
}

TEST(BackoffTest, CircuitBreakerParksAndRecovers) {
  RetryPolicy policy;
  policy.circuit_break_failures = 2;
  policy.park_periods = 3;
  RetryState st;

  ASSERT_EQ(DecidePeriod(&st), PeriodDecision::kRun);
  RecordPeriodOutcome(policy, &st, FailureKind::kInfra);
  EXPECT_EQ(st.consecutive_infra, 1);
  EXPECT_EQ(st.backoff_remaining, 1);

  ASSERT_EQ(DecidePeriod(&st), PeriodDecision::kSkipBackoff);
  ASSERT_EQ(DecidePeriod(&st), PeriodDecision::kRun);
  RecordPeriodOutcome(policy, &st, FailureKind::kInfra);
  EXPECT_TRUE(st.parked);  // streak hit circuit_break_failures
  EXPECT_EQ(st.park_events, 1);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(DecidePeriod(&st), PeriodDecision::kRunDegraded);
  }
  EXPECT_FALSE(st.parked);
  EXPECT_EQ(st.degraded_runs, 3);
  EXPECT_EQ(st.consecutive_infra, 0);  // streak restarted on unpark
  EXPECT_EQ(DecidePeriod(&st), PeriodDecision::kRun);

  // A config-induced failure closes the streak without backoff.
  RecordPeriodOutcome(policy, &st, FailureKind::kOom);
  EXPECT_EQ(st.consecutive_infra, 0);
  EXPECT_EQ(st.backoff_remaining, 0);
}

TEST(FaultToleranceTest, WatchdogBacksOffThenParksUnderTotalOutage) {
  Fixture f;
  TuningService service(&f.space, f.ServiceOpts());
  auto inner = f.MakeInner("WordCount", 3);
  FaultInjectionOptions fopts;
  fopts.crash_prob = 1.0;  // total outage: every run is an infra failure
  FaultInjectingEvaluator eval(inner.get(), fopts);
  ASSERT_TRUE(service.RegisterTask("wc", &eval).ok());

  // Defaults: backoff 1,2,4 then the 4th consecutive infra failure parks.
  // Expected period decisions: run, skip, run, skip, skip, run, 4x skip,
  // run(parks), 6x degraded, run...
  std::vector<Result<Observation>> r;
  for (int i = 0; i < 18; ++i) r.push_back(service.ExecutePeriodic("wc"));

  for (int i : {0, 2, 5, 10}) {
    ASSERT_TRUE(r[i].ok()) << "period " << i;
    EXPECT_EQ(r[i]->failure, FailureKind::kInfra);
    EXPECT_FALSE(r[i]->degraded);
  }
  for (int i : {1, 3, 4, 6, 7, 8, 9}) {
    ASSERT_FALSE(r[i].ok()) << "period " << i;
    EXPECT_EQ(r[i].status().code(), Status::Code::kUnavailable);
  }
  for (int i = 11; i <= 16; ++i) {
    ASSERT_TRUE(r[i].ok()) << "period " << i;
    EXPECT_TRUE(r[i]->degraded);
  }

  const RetryState* st = service.retry_state("wc");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->infra_failures, 5);  // periods 0, 2, 5, 10, 17
  EXPECT_EQ(st->park_events, 1);
  EXPECT_EQ(st->degraded_runs, 6);
  EXPECT_EQ(st->backoff_skips, 7);

  // The advisor never saw any of it: the baseline still has not been
  // measured, and no observation entered the history.
  const OnlineTuner* tuner = service.tuner("wc");
  ASSERT_NE(tuner, nullptr);
  EXPECT_FALSE(tuner->baseline_observation().has_value());
  EXPECT_EQ(tuner->history().size(), 0u);
  EXPECT_EQ(inner->executions(), 0);
}

// Acceptance: crash/transient infra faults are invisible to the advisor —
// the surviving observations (and therefore the unsafe-config labels) are
// bit-identical to a fault-free run's.
TEST(FaultToleranceTest, InfraFaultsLeaveAdvisorTrajectoryIdentical) {
  Fixture f;
  // Budget 10 => the advisor history holds baseline + 10 tuning runs.
  constexpr size_t kObservations = 11;
  // A generous retry policy isolates the property under test: abandoning a
  // pending suggestion or parking would (correctly) alter the trajectory,
  // so neither may trigger here.
  TuningServiceOptions opts = f.ServiceOpts();
  opts.tuner.retry.max_attempts = 1000000;
  opts.tuner.retry.circuit_break_failures = 1000000;

  TuningService clean_service(&f.space, opts);
  auto clean_inner = f.MakeInner("WordCount", 3);
  ASSERT_TRUE(clean_service.RegisterTask("wc", clean_inner.get()).ok());
  for (size_t i = 0; i < kObservations; ++i) {
    ASSERT_TRUE(clean_service.ExecutePeriodic("wc").ok());
  }

  TuningService faulty_service(&f.space, opts);
  auto faulty_inner = f.MakeInner("WordCount", 3);
  FaultInjectionOptions fopts;
  fopts.crash_prob = 0.2;
  fopts.transient_error_prob = 0.15;
  FaultInjectingEvaluator eval(faulty_inner.get(), fopts);
  ASSERT_TRUE(faulty_service.RegisterTask("wc", &eval).ok());
  const OnlineTuner* faulty_tuner = faulty_service.tuner("wc");
  int periods = 0;
  while (faulty_tuner->history().size() < kObservations && periods < 400) {
    faulty_service.ExecutePeriodic("wc");  // Unavailable slots are fine
    ++periods;
  }
  ASSERT_GT(periods, static_cast<int>(kObservations));  // periods were lost
  EXPECT_GT(eval.counters().crashes + eval.counters().transient_errors, 0);

  const RunHistory& a = clean_service.tuner("wc")->history();
  const RunHistory& b = faulty_tuner->history();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a.at(i).config == b.at(i).config) << "obs " << i;
    EXPECT_EQ(a.at(i).objective, b.at(i).objective) << "obs " << i;
    EXPECT_EQ(a.at(i).failure, b.at(i).failure) << "obs " << i;
    EXPECT_EQ(a.at(i).feasible, b.at(i).feasible) << "obs " << i;
  }
}

TEST(FaultToleranceTest, BatchErrorSlotSemantics) {
  Fixture f;
  TuningService service(&f.space, f.ServiceOpts());
  auto e1 = f.MakeInner("WordCount", 3);
  ASSERT_TRUE(service.RegisterTask("wc", e1.get()).ok());

  // A second task in permanent outage, driven into backoff first.
  auto inner2 = f.MakeInner("Sort", 4);
  FaultInjectionOptions fopts;
  fopts.crash_prob = 1.0;
  FaultInjectingEvaluator down(inner2.get(), fopts);
  ASSERT_TRUE(service.RegisterTask("down", &down).ok());
  auto first = service.ExecutePeriodic("down");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->failure, FailureKind::kInfra);

  auto results =
      service.ExecutePeriodicAll({"wc", "ghost", "wc", "down"});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), Status::Code::kNotFound);
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), Status::Code::kInvalidArgument);
  ASSERT_FALSE(results[3].ok());
  EXPECT_EQ(results[3].status().code(), Status::Code::kUnavailable);

  // The duplicate slot did not double-step the task: one batch + one
  // earlier period for "down", one batch execution for "wc".
  EXPECT_EQ(service.tuner("wc")->executions(), 1);
}

TEST(FaultToleranceTest, BatchDegradedSlotForParkedTask) {
  Fixture f;
  TuningService service(&f.space, f.ServiceOpts());
  auto inner = f.MakeInner("WordCount", 3);
  FaultInjectionOptions fopts;
  fopts.crash_prob = 1.0;
  FaultInjectingEvaluator down(inner.get(), fopts);
  ASSERT_TRUE(service.RegisterTask("down", &down).ok());
  // Drive through backoff (periods 0-9) into the parked state (period 10).
  for (int i = 0; i < 11; ++i) service.ExecutePeriodic("down");
  ASSERT_TRUE(service.retry_state("down")->parked);

  auto results = service.ExecutePeriodicAll({"down"});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(results[0]->degraded);
}

// Acceptance: the fault-seeded batch trajectory is bit-identical at any
// thread count, including hang/corrupt/truncate faults and watchdog slots.
TEST(FaultToleranceTest, FaultSeededBatchTrajectoryThreadInvariant) {
  Fixture f;
  const std::vector<std::string> ids = {"wc", "sort", "ts"};
  const std::vector<std::string> workloads = {"WordCount", "Sort", "TeraSort"};

  auto run = [&](int num_threads) {
    TuningServiceOptions opts = f.ServiceOpts();
    opts.num_threads = num_threads;
    TuningService service(&f.space, opts);
    std::vector<std::unique_ptr<SimulatorEvaluator>> inners;
    std::vector<std::unique_ptr<FaultInjectingEvaluator>> evals;
    for (size_t t = 0; t < ids.size(); ++t) {
      inners.push_back(f.MakeInner(workloads[t], 3 + t));
      FaultInjectionOptions fopts;
      fopts.seed = 101 + t;
      fopts.crash_prob = 0.12;
      fopts.transient_error_prob = 0.08;
      fopts.hang_prob = 0.06;
      fopts.corrupt_log_prob = 0.06;
      fopts.truncate_log_prob = 0.06;
      evals.push_back(std::make_unique<FaultInjectingEvaluator>(
          inners.back().get(), fopts));
      EXPECT_TRUE(service.RegisterTask(ids[t], evals.back().get()).ok());
    }
    std::vector<std::vector<Result<Observation>>> ticks;
    for (int tick = 0; tick < 25; ++tick) {
      ticks.push_back(service.ExecutePeriodicAll(ids));
    }
    std::vector<RetryState> watchdogs;
    for (const auto& id : ids) watchdogs.push_back(*service.retry_state(id));
    return std::make_pair(ticks, watchdogs);
  };

  auto [serial, serial_wd] = run(1);
  auto [parallel, parallel_wd] = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(serial_wd[i].infra_failures, parallel_wd[i].infra_failures);
    EXPECT_EQ(serial_wd[i].backoff_skips, parallel_wd[i].backoff_skips);
    EXPECT_EQ(serial_wd[i].park_events, parallel_wd[i].park_events);
    EXPECT_EQ(serial_wd[i].degraded_runs, parallel_wd[i].degraded_runs);
  }
  for (size_t t = 0; t < serial.size(); ++t) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto& a = serial[t][i];
      const auto& b = parallel[t][i];
      ASSERT_EQ(a.ok(), b.ok()) << "tick " << t << " slot " << i;
      if (!a.ok()) {
        EXPECT_EQ(a.status().code(), b.status().code());
        continue;
      }
      EXPECT_TRUE(a->config == b->config) << "tick " << t << " slot " << i;
      EXPECT_EQ(a->objective, b->objective) << "tick " << t << " slot " << i;
      EXPECT_EQ(a->failure, b->failure) << "tick " << t << " slot " << i;
      EXPECT_EQ(a->degraded, b->degraded) << "tick " << t << " slot " << i;
    }
  }
}

TEST(FaultToleranceTest, HarvestTaskIsIdempotentPerVersion) {
  Fixture f;
  TuningService service(&f.space, f.ServiceOpts());
  auto e1 = f.MakeInner("WordCount", 3);
  ASSERT_TRUE(service.RegisterTask("wc", e1.get()).ok());
  // Stay inside the tuning phase (budget 10): only tuning-phase periods
  // grow the advisor history that harvesting versions on.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  }
  ASSERT_TRUE(service.HarvestTask("wc").ok());
  EXPECT_EQ(service.knowledge_base().size(), 1u);
  // Re-harvesting the same task version is a no-op, not a duplicate.
  ASSERT_TRUE(service.HarvestTask("wc").ok());
  EXPECT_EQ(service.knowledge_base().size(), 1u);
  // New observations make a new version, which harvests again.
  ASSERT_TRUE(service.ExecutePeriodic("wc").ok());
  ASSERT_TRUE(service.HarvestTask("wc").ok());
  EXPECT_EQ(service.knowledge_base().size(), 2u);
}

}  // namespace
}  // namespace sparktune
