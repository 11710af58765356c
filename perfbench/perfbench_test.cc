// The benchmark's own tests: self-time arithmetic on span trees, the
// metric catalogue (names, units, agreement with BENCHMARK.json), the
// result line, and the benchmark binary failing on a corrupted digest.
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "metrics.h"
#include "trace.h"

namespace perfbench {
namespace {

Span MakeSpan(int id, int parent, double start, double end,
              const char* name = "layer.call") {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTime, SubtractsNestedChildrenOnce) {
  // root [0,100] has children a [10,40] and b [30,60] that overlap (they
  // ran in parallel); a has a grandchild g [15,20].
  const std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 100, "service.tick"),
      MakeSpan(1, 0, 10, 40, "sparksim.run"),
      MakeSpan(2, 0, 30, 60, "sparksim.run"),
      MakeSpan(3, 1, 15, 20, "meta.extract"),
  };
  const std::vector<double> self = SelfTimesUs(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 50.0);  // 100 minus the union [10,60]
  EXPECT_DOUBLE_EQ(self[1], 25.0);  // 30 minus g's 5
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 5.0);

  const auto by_layer = SelfTimeByLayerUs(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("service"), 50.0);
  EXPECT_DOUBLE_EQ(by_layer.at("sparksim"), 55.0);
  EXPECT_DOUBLE_EQ(by_layer.at("meta"), 5.0);
}

TEST(SelfTime, ClipsChildrenToTheParentAndNeverGoesNegative) {
  const std::vector<Span> spans = {
      MakeSpan(0, -1, 10, 20),
      MakeSpan(1, 0, 5, 15),   // starts before its parent
      MakeSpan(2, 0, 12, 30),  // ends after it
  };
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[1], 10.0);
  EXPECT_DOUBLE_EQ(self[2], 18.0);
}

TEST(Tracer, ParentsFollowTheOwnerStackAndOtherThreadsHangOffIt) {
  Tracer tracer(true);
  tracer.SetTick(7);
  const int tick = tracer.Begin("service.tick");
  const int call = tracer.Begin("service.execute_periodic_all");
  // The pool's caller runs a job too: as a leaf it must not adopt the
  // job the worker thread starts meanwhile.
  const int caller_span = tracer.Begin("sparksim.run", /*leaf=*/true);
  int worker_span = -2;
  // lint:allow(no-raw-thread) the test needs a thread other than the tracer's owner, as the service's pool provides
  std::thread worker([&] {
    worker_span = tracer.Begin("sparksim.run", /*leaf=*/true);
    tracer.End(worker_span);
  });
  worker.join();
  tracer.End(caller_span);
  tracer.End(call);
  tracer.End(tick);
  const int after = tracer.Begin("bo.suggest");
  tracer.End(after);

  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[tick].parent, -1);
  EXPECT_EQ(spans[call].parent, tick);
  EXPECT_EQ(spans[caller_span].parent, call);
  EXPECT_EQ(spans[worker_span].parent, call);
  EXPECT_EQ(spans[after].parent, -1);
  for (const Span& s : spans) {
    EXPECT_EQ(s.tick, 7);
    EXPECT_LE(s.start_us, s.end_us);
  }
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(&tracer, "service.tick"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Metrics, NamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const MetricDef& m : Catalogue()) {
    EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
  EXPECT_TRUE(ValidMetricName("model.gp_fit_ms"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("per/second"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Metrics, EveryMetricHasAUnitAndADirection) {
  for (const MetricDef& m : Catalogue()) {
    const std::string unit = m.unit;
    EXPECT_FALSE(unit.empty()) << m.name;
    EXPECT_LE(unit.size(), 16u) << m.name;
    for (char c : unit) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                  std::string("_/%.-").find(c) != std::string::npos)
          << m.name << " unit " << unit;
    }
    const std::string better = m.better;
    EXPECT_TRUE(better == "lower" || better == "higher") << m.name;
  }
}

TEST(Metrics, BenchmarkJsonListsTheCatalogue) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  auto doc = sparktune::Json::Parse(text.str());
  ASSERT_TRUE(doc.ok());
  std::vector<const sparktune::Json*> listed;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const sparktune::Json* metrics = doc->Get(section);
    ASSERT_NE(metrics, nullptr) << section;
    for (const sparktune::Json& m : metrics->elements()) listed.push_back(&m);
  }
  ASSERT_EQ(listed.size(), Catalogue().size());
  for (size_t i = 0; i < listed.size(); ++i) {
    const MetricDef& m = Catalogue()[i];
    EXPECT_EQ(listed[i]->GetStringOr("name", ""), m.name);
    EXPECT_EQ(listed[i]->GetStringOr("unit", ""), m.unit) << m.name;
    EXPECT_EQ(listed[i]->GetStringOr("better", ""), m.better) << m.name;
    const bool e2e = m.tier == Tier::kEndToEnd;
    EXPECT_EQ(listed[i]->Has("bound"), e2e) << m.name;
    if (e2e) {
      const double bound = listed[i]->GetNumberOr("bound", 1.0);
      EXPECT_GT(bound, 0.0) << m.name;
      EXPECT_LE(bound, 0.25) << m.name;
    }
  }
}

TEST(Report, ResultLineHasExactlyTheContractKeys) {
  Report report;
  EXPECT_FALSE(report.Problems(Tier::kEndToEnd).empty());
  for (const MetricDef& m : Catalogue()) {
    if (m.tier == Tier::kEndToEnd) report.Set(m.name, 1.25);
  }
  EXPECT_TRUE(report.Problems(Tier::kEndToEnd).empty());
  report.Set("not.a_metric", 1.0);
  EXPECT_FALSE(report.Problems(Tier::kEndToEnd).empty());

  Report clean;
  clean.Set("setup_s", 0.5);
  auto line = sparktune::Json::Parse(
      clean.ResultLine(Tier::kEndToEnd, true, 10, 0));
  ASSERT_TRUE(line.ok());
  std::set<std::string> keys;
  for (const auto& [key, value] : line->items()) keys.insert(key);
  EXPECT_EQ(keys, (std::set<std::string>{"attempted", "correct", "failed",
                                          "metrics"}));
  const sparktune::Json* setup = line->Get("metrics")->Get("setup_s");
  ASSERT_NE(setup, nullptr);
  EXPECT_EQ(setup->GetNumberOr("value", 0), 0.5);
  EXPECT_EQ(setup->GetStringOr("unit", ""), "s");
}

// Runs the benchmark binary; returns its exit status and fills `out` with
// its standard output.
int RunBenchmark(const std::string& args, std::string* out) {
  const std::string cmd = std::string(PERFBENCH_BINARY) +
                          " --work-dir .bench_build/test-work " + args;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  out->clear();
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) *out += buf;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string DigestLine(const std::string& out) {
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("digest ", 0) == 0) return line.substr(7);
  }
  return "";
}

TEST(Binary, FailsOnACorruptedDigest) {
  const std::string args =
      "--workload bo_tuning --seed 11 --seconds 1 --trace 0";
  std::string out;
  ASSERT_EQ(RunBenchmark(args, &out), 0) << out;
  const std::string digest = DigestLine(out);
  ASSERT_EQ(digest.size(), 16u) << out;

  std::string corrupted = digest;
  corrupted.back() = corrupted.back() == '0' ? '1' : '0';
  ASSERT_EQ(RunBenchmark(args + " --expect-digest " + corrupted, &out), 1)
      << out;
  EXPECT_NE(out.find("\"correct\": false"), std::string::npos) << out;
  EXPECT_NE(out.find("differs from the expected"), std::string::npos) << out;
}

}  // namespace
}  // namespace perfbench
