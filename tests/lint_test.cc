// Tests for tools/sparktune_lint: every rule id fires on its seeded
// fixture at the exact expected line, clean counterparts stay silent,
// suppression annotations behave as documented, the cross-TU rules see
// through file boundaries (two-file fixture pairs), and the CLI honors
// its exit-code / --format / --fix contracts.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "index.h"
#include "lint.h"

namespace {

using sparktune::Json;
using sparktune::lint::Finding;
using sparktune::lint::LintFileOnDisk;
using sparktune::lint::LintFilesIndexed;

using RuleLine = std::pair<std::string, int>;

std::vector<RuleLine> RuleLines(const std::vector<Finding>& fs) {
  std::vector<RuleLine> out;
  for (const Finding& f : fs) out.emplace_back(f.rule, f.line);
  std::sort(out.begin(), out.end());
  return out;
}

std::string FixturePath(const std::string& rel) {
  return std::string(LINT_FIXTURE_DIR) + "/" + rel;
}

std::vector<Finding> LintFixture(const std::string& rel) {
  return LintFileOnDisk(FixturePath(rel));
}

void ExpectFindings(const std::string& rel, std::vector<RuleLine> want) {
  std::vector<RuleLine> got = RuleLines(LintFixture(rel));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << "fixture: " << rel;
}

// Two-phase lint of a fixture pair: the header is indexed together with
// the .cc, which is what arms the cross-TU rules.
std::vector<Finding> LintFixturePair(const std::string& header,
                                     const std::string& cc) {
  return LintFilesIndexed({FixturePath(header), FixturePath(cc)});
}

void ExpectIndexedFindings(const std::string& header, const std::string& cc,
                           std::vector<RuleLine> want) {
  std::vector<RuleLine> got = RuleLines(LintFixturePair(header, cc));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << "fixture pair: " << header << " + " << cc;
}

// The write-only-member fixtures: a header and .cc under idx/src/ (the
// rule covers library members only), the test that calls the accessor,
// and the production code that calls the methods.
const std::vector<std::string> kBadWriteOnly = {
    "idx/src/bad_write_only.h", "idx/src/bad_write_only.cc",
    "idx/bad_write_only_test.cc", "idx/write_only_callers.cc"};
const std::vector<std::string> kCleanWriteOnly = {
    "idx/src/clean_write_only.h", "idx/src/clean_write_only.cc",
    "idx/write_only_callers.cc"};

// The test-only-function fixtures: library functions under idx/src/, the
// tests that call them, and callers under perfbench/, tests/ and bench/.
const std::vector<std::string> kBadTestOnly = {
    "idx/src/bad_test_only.h", "idx/src/bad_test_only.cc",
    "idx/bad_test_only_test.cc", "idx/tests/test_only_reference.h"};
const std::vector<std::string> kCleanTestOnly = {
    "idx/src/clean_test_only.h",
    "idx/src/clean_test_only.cc",
    "idx/clean_test_only_test.cc",
    "idx/perfbench/clean_test_only_bench.cc",
    "idx/tests/bench_reference.h",
    "idx/bench/bench_reference_user.cc"};

std::vector<Finding> LintFixtureSet(const std::vector<std::string>& rels) {
  std::vector<std::string> paths;
  for (const std::string& rel : rels) paths.push_back(FixturePath(rel));
  return LintFilesIndexed(paths);
}

// Run the built CLI; returns its exit code, captures stdout+stderr.
int RunCli(const std::string& args, std::string* output) {
  std::string cmd = std::string(LINT_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return -1;
  char buf[4096];
  output->clear();
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) output->append(buf, n);
  int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Copy fixture files into a fresh temp dir (for --fix, which rewrites).
class TempTree {
 public:
  TempTree() {
    dir_ = std::filesystem::temp_directory_path() /
           ("lint_fix_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempTree() { std::filesystem::remove_all(dir_); }
  std::string Stage(const std::string& rel) {
    std::filesystem::path dst = dir_ / std::filesystem::path(rel).filename();
    std::filesystem::copy_file(FixturePath(rel), dst);
    return dst.string();
  }
  std::string Read(const std::string& staged) {
    std::ifstream in(staged);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

 private:
  std::filesystem::path dir_;
};

TEST(LintRules, BannedCPrng) {
  ExpectFindings("bad_rand.cc", {{"no-rand", 6}, {"no-rand", 7}});
}

TEST(LintRules, RandomDevice) {
  ExpectFindings("bad_random_device.cc", {{"no-random-device", 5}});
}

TEST(LintRules, WallClock) {
  // Line 8 carries two reads: system_clock and its argless now().
  ExpectFindings("bad_wall_clock.cc", {{"no-wall-clock", 7},
                                       {"no-wall-clock", 8},
                                       {"no-wall-clock", 8},
                                       {"no-wall-clock", 9}});
}

TEST(LintRules, RawThread) {
  ExpectFindings("bad_raw_thread.cc",
                 {{"no-raw-thread", 9}, {"no-raw-thread", 11}});
}

TEST(LintRules, NondetReduce) {
  // Line 9 has both std::reduce and std::execution.
  ExpectFindings("bad_nondet_reduce.cc", {{"no-nondet-reduce", 8},
                                          {"no-nondet-reduce", 9},
                                          {"no-nondet-reduce", 9}});
}

TEST(LintRules, FloatAccumInLinalgScope) {
  ExpectFindings("linalg/bad_float_accum.cc",
                 {{"no-float-accum", 7}, {"no-float-accum", 9}});
}

TEST(LintRules, UnorderedIteration) {
  ExpectFindings("bad_unordered_iter.cc",
                 {{"no-unordered-iter", 10}, {"no-unordered-iter", 18}});
}

TEST(LintRules, RngForkRequired) {
  ExpectFindings("bad_rng_fork.cc",
                 {{"rng-fork-required", 12}, {"rng-fork-required", 13}});
}

TEST(LintRules, RngRefCapture) {
  ExpectFindings("bad_rng_capture.cc",
                 {{"no-rng-ref-capture", 10}, {"rng-fork-required", 11}});
}

TEST(LintRules, MutableStatic) {
  ExpectFindings("bad_mutable_static.cc", {{"mutable-static", 7},
                                           {"mutable-static", 9},
                                           {"mutable-static", 12}});
}

TEST(LintRules, BadAllow) {
  // A reason-less allow is itself a finding and does not suppress the
  // violation beneath it; an unknown rule id is a finding too.
  ExpectFindings("bad_allow.cc",
                 {{"bad-allow", 7}, {"no-rand", 8}, {"bad-allow", 9}});
}

TEST(LintRules, ParallelSharedWrite) {
  ExpectFindings("bad_parallel_shared_write.cc",
                 {{"parallel-shared-write", 13},
                  {"parallel-shared-write", 14},
                  {"parallel-shared-write", 15},
                  {"parallel-shared-write", 22}});
}

TEST(LintRules, NoAbortInLibraryScope) {
  ExpectFindings("src/bad_abort.cc",
                 {{"no-abort", 6}, {"no-abort", 7}, {"no-abort", 8}});
}

TEST(LintRules, NoAbortOnlyAppliesToLibraryPaths) {
  // The identical source outside src/ is process-owning code (bench, tests,
  // tools) and may terminate.
  ExpectFindings("bad_abort_outside_src.cc", {});
}

TEST(LintClean, ForkedRngPattern) { ExpectFindings("clean_rng_fork.cc", {}); }

TEST(LintClean, AssertionsAndAllowedExits) {
  ExpectFindings("src/clean_abort.cc", {});
}

TEST(LintClean, AnnotatedState) {
  ExpectFindings("clean_mutable_static.cc", {});
}

TEST(LintClean, SafeUnorderedUse) {
  ExpectFindings("clean_unordered_iter.cc", {});
}

TEST(LintClean, ReasonedSuppressions) {
  ExpectFindings("clean_suppressed.cc", {});
}

TEST(LintClean, ParallelTaskOwnedAndGuardedWrites) {
  ExpectFindings("clean_parallel_shared_write.cc", {});
}

// ---------------------------------------------------------------------------
// Cross-TU rules (two-file fixture pairs, phase-1 index armed).
// ---------------------------------------------------------------------------

TEST(LintCrossTU, UnorderedMemberIterSeesAcrossFiles) {
  ExpectIndexedFindings("idx/registry.h", "idx/bad_member_iter.cc",
                        {{"unordered-member-iter", 14},
                         {"unordered-member-iter", 21}});
}

TEST(LintCrossTU, UnorderedMemberIterSilentWithoutIndex) {
  // The same file linted per-file (no index) shows nothing — this is the
  // exact gap the two-phase analysis closes.
  ExpectFindings("idx/bad_member_iter.cc", {});
}

TEST(LintCrossTU, GuardDisciplineNotHeldEarlyUnlockAndDeferred) {
  ExpectIndexedFindings("idx/registry.h", "idx/bad_guard.cc",
                        {{"guard-discipline", 13},
                         {"guard-discipline", 20},
                         {"guard-discipline", 28}});
}

TEST(LintCrossTU, RngRefEscapeThroughIndexedHelper) {
  ExpectIndexedFindings("idx/rng_helpers.h", "idx/bad_rng_escape.cc",
                        {{"rng-fork-required", 15},
                         {"rng-ref-escape", 15},
                         {"rng-ref-escape", 17}});
}

TEST(LintCrossTU, CleanCounterpartsStaySilent) {
  ExpectIndexedFindings("idx/registry.h", "idx/clean_member_iter.cc", {});
  ExpectIndexedFindings("idx/registry.h", "idx/clean_guard.cc", {});
  ExpectIndexedFindings("idx/rng_helpers.h", "idx/clean_rng_escape.cc", {});
}

TEST(LintCrossTU, WriteOnlyMembersFireAtTheirDeclarations) {
  // Assigned only; copied only into a *State struct; read only through
  // an accessor that only a test calls.
  EXPECT_EQ(RuleLines(LintFixtureSet(kBadWriteOnly)),
            (std::vector<RuleLine>{{"write-only-member", 26},
                                   {"write-only-member", 27},
                                   {"write-only-member", 28}}));
}

TEST(LintCrossTU, WriteOnlyMemberCleanCounterpartStaysSilent) {
  // A value-used increment, a read through a pointer, and an accessor
  // called outside its class all count as reads.
  EXPECT_EQ(RuleLines(LintFixtureSet(kCleanWriteOnly)),
            std::vector<RuleLine>{});
}

TEST(LintCrossTU, TestOnlyFunctionsFireAtTheirDeclarations) {
  // Called by a test; only by itself; only by a test-only function; only
  // by a tests/ header no bench/ file includes; a method a test calls.
  const std::vector<Finding> findings = LintFixtureSet(kBadTestOnly);
  EXPECT_EQ(RuleLines(findings), (std::vector<RuleLine>{
                                     {"test-only-function", 17},
                                     {"test-only-function", 18},
                                     {"test-only-function", 19},
                                     {"test-only-function", 20},
                                     {"test-only-function", 24}}));
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.file.ends_with("idx/src/bad_test_only.h")) << f.file;
  }
}

TEST(LintCrossTU, TestOnlyFunctionCleanCounterpartStaysSilent) {
  // Called from perfbench/; from a tests/ header a bench/ file includes;
  // address taken as &Pump::Loop and as &OnTick; called as Widen<long>(1);
  // a reasoned allow.
  EXPECT_EQ(RuleLines(LintFixtureSet(kCleanTestOnly)),
            std::vector<RuleLine>{});
}

TEST(LintCrossTU, TestOnlyFunctionNeedsItsProductionCaller) {
  // Without the perfbench/ caller, or without the bench/ file that makes
  // the tests/ header production code, that function fires.
  const std::vector<std::pair<std::string, int>> cases = {
      {"idx/perfbench/clean_test_only_bench.cc", 12},
      {"idx/bench/bench_reference_user.cc", 14}};
  for (const auto& [dropped, line] : cases) {
    std::vector<std::string> rels;
    for (const std::string& rel : kCleanTestOnly) {
      if (rel != dropped) rels.push_back(rel);
    }
    EXPECT_EQ(RuleLines(LintFixtureSet(rels)),
              (std::vector<RuleLine>{{"test-only-function", line}}))
        << "without " << dropped;
  }
}

TEST(LintCrossTU, LibraryPathIsTheInnermostTreeDirectory) {
  using sparktune::lint::InLibraryPath;
  EXPECT_TRUE(InLibraryPath("src/bo/advisor.h"));
  EXPECT_TRUE(InLibraryPath("./src/model/gp.cc"));
  EXPECT_TRUE(InLibraryPath("/home/me/src/sparktune/src/bo/advisor.h"));
  EXPECT_FALSE(InLibraryPath("/home/me/src/sparktune/tests/gp_test.cc"));
  EXPECT_FALSE(InLibraryPath("/home/me/src/sparktune/bench/bench_fleet.cpp"));
  EXPECT_TRUE(InLibraryPath(FixturePath("idx/src/bad_write_only.h")));
  EXPECT_FALSE(InLibraryPath(FixturePath("idx/registry.h")));
  EXPECT_FALSE(InLibraryPath("advisor.h"));
  using sparktune::lint::TreeDir;
  EXPECT_EQ(TreeDir("/home/me/src/sparktune/perfbench/workloads.cc"),
            "perfbench");
  EXPECT_EQ(TreeDir(FixturePath("idx/tests/bench_reference.h")), "tests");
  EXPECT_EQ(TreeDir(FixturePath("idx/registry.h")), "lint_fixtures");
  EXPECT_EQ(TreeDir("advisor.h"), "");
}

TEST(LintCrossTU, AliasedMembersTriggerUnorderedMemberIter) {
  ExpectIndexedFindings("idx/alias_types.h", "idx/bad_alias_iter.cc",
                        {{"unordered-member-iter", 15},
                         {"unordered-member-iter", 23},
                         {"unordered-member-iter", 30}});
}

TEST(LintCrossTU, AliasedMembersSilentWithoutIndex) {
  // Per-file linting cannot see through the alias declared in the header:
  // the exact laundering the alias pre-pass closes.
  ExpectFindings("idx/bad_alias_iter.cc", {});
}

TEST(LintCrossTU, AliasedCleanCounterpartStaysSilent) {
  ExpectIndexedFindings("idx/alias_types.h", "idx/clean_alias_iter.cc", {});
}

TEST(LintCrossTU, IndexRecordsAliasesTransitively) {
  sparktune::lint::SymbolIndex index =
      sparktune::lint::BuildIndex({FixturePath("idx/alias_types.h"),
                                   FixturePath("idx/bad_alias_iter.cc")});
  // Direct alias, alias-of-alias, and the typedef spelling all classify.
  EXPECT_TRUE(index.IsUnorderedAlias("ScoreMap"));
  EXPECT_TRUE(index.IsUnorderedAlias("CacheMap"));
  EXPECT_TRUE(index.IsUnorderedAlias("IdMap"));
  EXPECT_TRUE(index.IsMutexAlias("Guard"));
  // Ordered alias must not classify as unordered.
  EXPECT_FALSE(index.IsUnorderedAlias("Rows"));
  EXPECT_FALSE(index.IsUnorderedAlias("NoSuchAlias"));
  EXPECT_GE(index.alias_count(), 5u);
  // Members declared through aliases classify like literal spellings.
  EXPECT_NE(index.FindUnorderedMember("scores_"), nullptr);
  EXPECT_NE(index.FindUnorderedMember("cache_"), nullptr);
  EXPECT_NE(index.FindUnorderedMember("ids_"), nullptr);
  EXPECT_EQ(index.FindUnorderedMember("rows_"), nullptr);
  EXPECT_TRUE(index.IsMutexMember("alias_mu_"));
  const auto* hits = index.FindGuardedMember("alias_hits_");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->guarded_by, "alias_mu_");
}

TEST(LintCrossTU, IndexRecordsMembersAndSignatures) {
  sparktune::lint::SymbolIndex index =
      sparktune::lint::BuildIndex({FixturePath("idx/registry.h"),
                                   FixturePath("idx/rng_helpers.h")});
  const auto* scores = index.FindUnorderedMember("scores_");
  ASSERT_NE(scores, nullptr);
  EXPECT_EQ(scores->cls, "Registry");
  EXPECT_TRUE(scores->unordered);
  const auto* hits = index.FindGuardedMember("hits_");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->guarded_by, "mu_");
  EXPECT_TRUE(index.IsMutexMember("mu_"));
  const auto* fn = index.FindRngRefFunction("SampleCost");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->rng_ref_params.size(), 1u);
  EXPECT_EQ(fn->rng_ref_params[0], "rng");
  // Decl-site allow on tags_ is recorded and blesses every use.
  const auto* tags = index.FindUnorderedMember("tags_");
  ASSERT_NE(tags, nullptr);
  ASSERT_EQ(tags->decl_allows.size(), 1u);
  EXPECT_EQ(tags->decl_allows[0], "unordered-member-iter");
}

// ---------------------------------------------------------------------------
// Output formats & exit codes.
// ---------------------------------------------------------------------------

TEST(LintOutput, ExitCodeContract) {
  using sparktune::lint::ExitCodeForFindings;
  EXPECT_EQ(ExitCodeForFindings({}), 0);
  EXPECT_EQ(ExitCodeForFindings({{"a.cc", 1, "no-rand", "m", "h"}}), 1);
  EXPECT_EQ(ExitCodeForFindings({{"a.cc", 1, "no-rand", "m", "h"},
                                 {"b.cc", 0, "io-error", "m", ""}}),
            2);
}

TEST(LintOutput, JsonMatchesSchemaAndRoundTrips) {
  std::vector<Finding> findings =
      LintFixturePair("idx/registry.h", "idx/bad_guard.cc");
  ASSERT_EQ(findings.size(), 3u);
  auto parsed = Json::Parse(sparktune::lint::FindingsToJson(findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json& doc = parsed.value();
  EXPECT_EQ(doc.GetStringOr("schema", ""), "sparktune-lint-findings-v1");
  EXPECT_EQ(doc.GetNumberOr("count", -1), 3.0);
  const Json* arr = doc.Get("findings");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->size(), 3u);
  for (size_t i = 0; i < arr->size(); ++i) {
    const Json& f = arr->at(i);
    EXPECT_EQ(f.GetStringOr("rule", ""), "guard-discipline");
    EXPECT_TRUE(f.Has("file"));
    EXPECT_TRUE(f.Has("line"));
    EXPECT_TRUE(f.Has("message"));
    EXPECT_TRUE(f.Has("hint"));
  }
}

TEST(LintOutput, SarifIsWellFormed) {
  std::vector<Finding> findings =
      LintFixturePair("idx/registry.h", "idx/bad_member_iter.cc");
  auto parsed = Json::Parse(sparktune::lint::FindingsToSarif(findings));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json& doc = parsed.value();
  EXPECT_EQ(doc.GetStringOr("version", ""), "2.1.0");
  const Json* runs = doc.Get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const Json* results = runs->at(0).Get("results");
  ASSERT_NE(results, nullptr);
  EXPECT_EQ(results->size(), findings.size());
  // Rule metadata covers the whole catalogue.
  const Json* driver = runs->at(0).Get("tool")->Get("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_GE(driver->Get("rules")->size(),
            sparktune::lint::RuleIds().size());
  bool names_write_only = false;
  bool names_test_only = false;
  for (const Json& rule : driver->Get("rules")->elements()) {
    names_write_only |= rule.GetStringOr("id", "") == "write-only-member";
    names_test_only |= rule.GetStringOr("id", "") == "test-only-function";
  }
  EXPECT_TRUE(names_write_only);
  EXPECT_TRUE(names_test_only);
}

// ---------------------------------------------------------------------------
// CLI contract (drives the built binary).
// ---------------------------------------------------------------------------

TEST(LintCli, ExitCodesCleanFindingsBroken) {
  std::string out;
  EXPECT_EQ(RunCli("\"" + FixturePath("idx/registry.h") + "\" \"" +
                       FixturePath("idx/clean_guard.cc") + "\"",
                   &out),
            0)
      << out;
  EXPECT_EQ(RunCli("\"" + FixturePath("idx/registry.h") + "\" \"" +
                       FixturePath("idx/bad_guard.cc") + "\"",
                   &out),
            1)
      << out;
  EXPECT_EQ(RunCli("/nonexistent/no_such_file.cc", &out), 2) << out;
  EXPECT_EQ(RunCli("--no-such-flag", &out), 2) << out;
}

TEST(LintCli, ListRulesPrintsIdAndDoc) {
  std::string out;
  EXPECT_EQ(RunCli("--list-rules", &out), 0);
  for (const auto& r : sparktune::lint::RuleDocs()) {
    EXPECT_NE(out.find(r.id), std::string::npos) << r.id;
  }
  EXPECT_NE(out.find("cross-TU"), std::string::npos)
      << "one-line docs missing:\n"
      << out;
}

TEST(LintCli, JsonFormatPassesItsOwnSchemaCheck) {
  std::string out;
  int code = RunCli("--format=json --schema-check \"" +
                        FixturePath("idx/registry.h") + "\" \"" +
                        FixturePath("idx/bad_guard.cc") + "\"",
                    &out);
  EXPECT_EQ(code, 1) << out;  // findings present, but the run is healthy
  EXPECT_NE(out.find("schema-check: ok"), std::string::npos) << out;
}

TEST(LintCli, FixRoundTripsToCleanWithWellFormedStubs) {
  TempTree tmp;
  std::string header = tmp.Stage("idx/registry.h");
  std::string bad_iter = tmp.Stage("idx/bad_member_iter.cc");
  std::string bad_guard = tmp.Stage("idx/bad_guard.cc");
  std::string files = "\"" + header + "\" \"" + bad_iter + "\" \"" +
                      bad_guard + "\"";
  std::string out;
  EXPECT_EQ(RunCli("--fix --fix-user=fixtest " + files, &out), 0) << out;
  // Stubs are well-formed reasoned allows naming the user.
  std::string fixed = tmp.Read(bad_iter);
  EXPECT_NE(
      fixed.find("lint:allow(unordered-member-iter) TODO(fixtest): justify"),
      std::string::npos)
      << fixed;
  EXPECT_NE(tmp.Read(bad_guard)
                .find("lint:allow(guard-discipline) TODO(fixtest): justify"),
            std::string::npos);
  // Re-linting the fixed tree is clean (exit 0).
  EXPECT_EQ(RunCli(files, &out), 0) << out;
}

TEST(LintMeta, EveryRuleIdIsExercisedByTheCorpus) {
  // Union of findings across all bad fixtures (per-file and indexed
  // pairs) must cover the catalogue, so a rule cannot silently stop
  // firing.
  const std::vector<std::string> fixtures = {
      "bad_rand.cc",           "bad_random_device.cc", "bad_wall_clock.cc",
      "bad_raw_thread.cc",     "bad_nondet_reduce.cc", "linalg/bad_float_accum.cc",
      "bad_unordered_iter.cc", "bad_rng_fork.cc",      "bad_rng_capture.cc",
      "bad_mutable_static.cc", "bad_allow.cc",         "src/bad_abort.cc",
      "bad_parallel_shared_write.cc",
  };
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"idx/registry.h", "idx/bad_member_iter.cc"},
      {"idx/registry.h", "idx/bad_guard.cc"},
      {"idx/rng_helpers.h", "idx/bad_rng_escape.cc"},
  };
  std::set<std::string> fired;
  for (const std::string& f : fixtures) {
    for (const Finding& finding : LintFixture(f)) fired.insert(finding.rule);
  }
  for (const auto& [h, cc] : pairs) {
    for (const Finding& finding : LintFixturePair(h, cc)) {
      fired.insert(finding.rule);
    }
  }
  for (const auto& set : {kBadWriteOnly, kBadTestOnly}) {
    for (const Finding& finding : LintFixtureSet(set)) {
      fired.insert(finding.rule);
    }
  }
  for (const std::string& id : sparktune::lint::RuleIds()) {
    EXPECT_TRUE(fired.count(id)) << "rule never fired in corpus: " << id;
  }
}

TEST(LintMeta, FormatIncludesFileLineRuleAndHint) {
  Finding f{"src/foo.cc", 12, "no-rand", "msg", "do better"};
  std::string s = sparktune::lint::FormatFinding(f);
  EXPECT_NE(s.find("src/foo.cc:12"), std::string::npos);
  EXPECT_NE(s.find("[no-rand]"), std::string::npos);
  EXPECT_NE(s.find("do better"), std::string::npos);
}

}  // namespace
