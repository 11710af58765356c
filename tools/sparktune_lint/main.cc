// sparktune_lint CLI.
//
//   sparktune_lint [--root <dir>] [--format=text|json|sarif] [--out=<file>]
//                  [--fix] [--fix-user=<name>] [--list-rules]
//                  [--schema-check] [path ...]
//
// With no explicit paths, walks src/, bench/, tests/, tools/, examples/
// and perfbench/ under --root (default: current directory) in two phases:
// build the symbol index over every file, then lint each file with the
// index (which enables the cross-TU rules — see lint.h). Explicit paths
// may be files or directories; they are indexed together, so a two-file
// fixture pair (header + misusing .cc) exercises the cross-TU rules.
//
// Exit status (pinned by tests/lint_test.cc, relied on by tools/check.sh):
//   0  clean
//   1  unsuppressed findings
//   2  the run itself is broken (unreadable input, bad flag)
//
// --fix inserts `// lint:allow(<rule>) TODO(<user>): justify` stubs above
// each finding so the tree lints clean while every exception stays
// greppable for review. --schema-check re-parses the JSON report with
// common/json.h and validates it against sparktune-lint-findings-v1.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "index.h"
#include "lint.h"

namespace {

constexpr char kUsage[] =
    "usage: sparktune_lint [--root <dir>] [--format=text|json|sarif]\n"
    "                      [--out=<file>] [--fix] [--fix-user=<name>]\n"
    "                      [--list-rules] [--schema-check] [path ...]\n"
    "exit: 0 clean, 1 findings, 2 broken run (I/O or usage error)\n";

// Validate a JSON report against the sparktune-lint-findings-v1 shape.
// Returns true and prints a summary on success; prints the defect on
// failure.
bool SchemaCheck(const std::string& text) {
  using sparktune::Json;
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "schema-check: JSON does not parse: %s\n",
                 parsed.status().message().c_str());
    return false;
  }
  const Json& doc = parsed.value();
  if (!doc.is_object()) {
    std::fprintf(stderr, "schema-check: top level is not an object\n");
    return false;
  }
  if (doc.GetStringOr("schema", "") != "sparktune-lint-findings-v1") {
    std::fprintf(stderr, "schema-check: missing or wrong \"schema\" tag\n");
    return false;
  }
  const Json* findings = doc.Get("findings");
  if (findings == nullptr || !findings->is_array()) {
    std::fprintf(stderr, "schema-check: \"findings\" is not an array\n");
    return false;
  }
  if (static_cast<size_t>(doc.GetNumberOr("count", -1)) !=
      findings->size()) {
    std::fprintf(stderr, "schema-check: \"count\" != findings length\n");
    return false;
  }
  for (size_t i = 0; i < findings->size(); ++i) {
    const Json& f = findings->at(i);
    if (!f.is_object() || !f.Has("file") || !f.Has("line") ||
        !f.Has("rule") || !f.Has("message") || !f.Has("hint")) {
      std::fprintf(stderr,
                   "schema-check: finding %zu missing a required key\n", i);
      return false;
    }
    const Json* rule = f.Get("rule");
    if (!rule->is_string() || rule->AsString().empty()) {
      std::fprintf(stderr, "schema-check: finding %zu has no rule id\n", i);
      return false;
    }
  }
  std::printf("schema-check: ok (%zu finding(s))\n", findings->size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using sparktune::lint::Finding;
  std::string root = ".";
  std::string format = "text";
  std::string out_path;
  std::string fix_user = "lint-fix";
  bool fix = false;
  bool schema_check = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "sparktune_lint: unknown format '%s'\n%s",
                     format.c_str(), kUsage);
        return 2;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg.rfind("--fix-user=", 0) == 0) {
      fix_user = arg.substr(11);
    } else if (arg == "--schema-check") {
      schema_check = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : sparktune::lint::RuleDocs()) {
        std::printf("%-24s %s\n", r.id.c_str(), r.doc.c_str());
      }
      return 0;
    } else if (arg == "--help") {
      std::printf("%s", kUsage);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "sparktune_lint: unknown flag '%s'\n%s",
                   arg.c_str(), kUsage);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  // Resolve the file set, then run the two phases over it.
  std::vector<std::string> files;
  if (paths.empty()) {
    files = sparktune::lint::CollectFiles(
        root, {"src", "bench", "tests", "tools", "examples", "perfbench"});
  } else {
    for (const std::string& p : paths) {
      std::error_code ec;
      if (std::filesystem::is_directory(p, ec)) {
        auto sub = sparktune::lint::CollectFiles(p, {"."});
        files.insert(files.end(), sub.begin(), sub.end());
      } else {
        files.push_back(p);
      }
    }
  }
  std::vector<Finding> findings = sparktune::lint::LintFilesIndexed(files);

  if (fix) {
    auto result = sparktune::lint::ApplyFixStubs(findings, fix_user);
    std::printf("sparktune_lint --fix: %d stub(s) in %zu file(s)\n",
                result.stubs, result.files.size());
    for (const std::string& f : result.files) {
      std::printf("  stubbed: %s\n", f.c_str());
    }
    for (const Finding& f : result.skipped) {
      std::printf("  not stubbable: %s\n",
                  sparktune::lint::FormatFinding(f).c_str());
    }
    // A fixable tree exits 0 after --fix; unstubbable findings keep the
    // exit-code contract (bad-allow -> 1, io-error -> 2).
    return sparktune::lint::ExitCodeForFindings(result.skipped);
  }

  std::string report;
  if (format == "json") {
    report = sparktune::lint::FindingsToJson(findings);
  } else if (format == "sarif") {
    report = sparktune::lint::FindingsToSarif(findings);
  } else {
    for (const Finding& f : findings) {
      report += sparktune::lint::FormatFinding(f) + "\n";
    }
    report += findings.empty()
                  ? "sparktune_lint: clean\n"
                  : "sparktune_lint: " + std::to_string(findings.size()) +
                        " finding(s)\n";
  }

  if (schema_check && format == "json") {
    if (!SchemaCheck(report)) return 2;
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "sparktune_lint: cannot write '%s'\n",
                   out_path.c_str());
      return 2;
    }
    out << report;
  } else {
    std::fputs(report.c_str(), stdout);
  }
  return sparktune::lint::ExitCodeForFindings(findings);
}
