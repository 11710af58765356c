// sparktune_lint — determinism & concurrency static analysis for the
// sparktune tree. A lightweight tokenizer + rule engine (no libclang):
// it cannot resolve types the way a compiler does, but the project's
// determinism discipline is deliberately syntactic (all randomness flows
// through common/rng.h, all parallelism through common/thread_pool.h),
// which is exactly what a token-level pass can enforce.
//
// The analysis runs in two phases (DESIGN.md §6):
//   Phase 1 (index)  walk every header and source once and build a
//                    SymbolIndex (tools/sparktune_lint/index.h): class
//                    members with declared types (unordered containers,
//                    mutexes), lint:guarded-by annotations attached to
//                    declarations, function signatures that accept
//                    Rng by reference or pointer, whether any use of
//                    each member name reads it, and who calls each
//                    function.
//   Phase 2 (check)  re-run the rule engine per file with the index in
//                    hand, which is what lets the cross-TU rules see a
//                    member declared in one header and misused in a
//                    different file's .cc.
//
// Rule catalogue (ids are what lint:allow takes):
//   no-rand            std::rand / srand / rand_r / drand48
//   no-random-device   std::random_device
//   no-wall-clock      time(), clock(), gettimeofday, clock_gettime,
//                      system_clock, argless now() — exempt under
//                      src/sparksim/ (the simulated clock domain)
//   no-raw-thread      std::thread construction, std::jthread, std::async,
//                      pthread_create, #pragma omp — exempt in
//                      common/thread_pool.cc (the one sanctioned home)
//   no-nondet-reduce   std::reduce / std::transform_reduce / std::execution
//   no-float-accum     `float` in src/linalg or src/model (accumulation
//                      paths must be double for cross-platform bit-identity)
//   no-unordered-iter  range-for over an unordered_{map,set} whose body
//                      writes into another container (iteration order is
//                      unspecified, so the output order is too)
//   rng-fork-required  an Rng declared outside a ParallelFor body is used
//                      inside it (fork per task with ForkRngs and index)
//   no-rng-ref-capture a ParallelFor lambda capture list names an Rng by
//                      reference ([&rng])
//   mutable-static     mutable namespace-scope, function-static, or
//                      thread_local state without a
//                      // lint:guarded-by(<mutex>) or lint:allow annotation
//   parallel-shared-write
//                      a ParallelFor body writes (assigns, ++/--, or calls
//                      a container mutator on) non-RNG state it does not
//                      own — not declared in the body, not the lambda
//                      parameter, and not an index-owned slot whose
//                      subscript names a body-owned index (out[task_id])
//   no-abort           abort()/exit()/_Exit()/quick_exit()/assert(false)
//                      in library code (InLibraryPath) — library code
//                      returns Status
//   bad-allow          a lint:allow with no reason string or an unknown
//                      rule id (never suppressible)
// Cross-TU rules (need the phase-1 index; silent without it):
//   unordered-member-iter
//                      range-for or begin()-iterator walk over an
//                      unordered_{map,set} *member* declared in any
//                      indexed header, even one in another file
//   guard-discipline   a member annotated lint:guarded-by(m) on its
//                      declaration is read or written in a scope where
//                      `m` is not visibly held (lock_guard / unique_lock /
//                      scoped_lock / manual .lock()/.unlock() tracking)
//   rng-ref-escape     an un-forked Rng flows by reference into a
//                      function whose indexed signature takes Rng&/Rng*
//                      inside a ParallelFor body, or an Rng is captured
//                      by reference in a lambda stored outside the
//                      sanctioned ParallelFor call site
//   write-only-member  a library data member (name ending in '_') that
//                      no use in any indexed file reads: every use is a
//                      write, a copy in SaveState/RestoreState, or the
//                      return of an accessor only tests or its own class
//                      call (index.h lists the uses that are not reads);
//                      reported at the declaration
//   test-only-function a function defined in src/ outside a class body
//                      whose only callers are test files (index.h), its
//                      own body, or other such functions; calls from
//                      perfbench/ and from tests/ headers a bench/ file
//                      includes count, and so does taking its address;
//                      reported at the declaration
//
// Suppressions: `// lint:allow(<rule-id>) <reason>` on the finding's line
// or the line directly above. `// lint:guarded-by(<mutex>)` satisfies
// mutable-static and parallel-shared-write specifically, and on a member
// declaration it *enables* guard-discipline for that member tree-wide.
// A lint:allow placed on a member declaration suppresses that rule for
// every use of the member (prefer use-site allows; declaration-site is
// for members whose invariant makes the rule moot everywhere — see
// DESIGN.md §6 "Declarations vs use sites"). Reasons are mandatory so
// every exception is self-documenting in the diff.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sparktune::lint {

struct Finding {
  std::string file;  // path as given to the linter
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
  std::string hint;
};

// ---------------------------------------------------------------------------
// Shared source plumbing. One annotation parser serves every rule and the
// phase-1 indexer (it used to be re-parsed per consumer).
// ---------------------------------------------------------------------------

// Annotations harvested from one line's comments.
// (The comments below name the annotations without their lint: prefix on
// purpose — a literal spelled-out annotation here would be harvested by
// the indexer as a real declaration-site annotation on these members.)
struct Annotation {
  std::vector<std::string> allowed;        // rule ids from allow(...)
  std::vector<std::string> allow_reasons;  // parallel to `allowed`
  std::vector<std::string> guards;         // mutex names from guarded-by
  bool guarded_by = false;                 // any guarded-by(...) present
};

// Parse every lint:allow(...) / lint:guarded-by(...) inside one comment's
// text and record it against `line` in `notes`. Ill-formed ids (anything
// but kebab-case, e.g. prose like "lint:allow(<rule-id>)") are ignored.
void ParseAnnotations(const std::string& text, int line,
                      std::map<int, Annotation>* notes);

struct Token {
  std::string text;
  int line = 0;
};

// Comments, string/char literals, and preprocessor lines blanked (newlines
// kept, so line numbers survive); comments harvested for annotations and
// preprocessor lines for `#pragma omp` before blanking.
struct CleanedSource {
  std::string code;                   // same length/lines as input
  std::map<int, Annotation> notes;    // line -> annotations found there
  std::vector<int> omp_pragma_lines;  // lines holding `#pragma omp`
};

CleanedSource CleanSource(const std::string& src);
std::vector<Token> Tokenize(const std::string& code);

// The innermost directory of `path` named src, tests, bench, tools,
// examples, perfbench or lint_fixtures; "" when there is none. The
// innermost one decides, so a checkout that itself sits under some ~/src/
// is not all library.
std::string TreeDir(const std::string& path);

// Library code, for the rules scoped to it (no-abort, write-only-member,
// test-only-function): TreeDir(path) is src.
bool InLibraryPath(const std::string& path);

// ---------------------------------------------------------------------------
// Rule catalogue.
// ---------------------------------------------------------------------------

// All rule ids the engine knows, in catalogue order.
const std::vector<std::string>& RuleIds();

struct RuleDoc {
  std::string id;
  std::string doc;  // one line, printed by --list-rules
};

// Catalogue order, one entry per RuleIds() id.
const std::vector<RuleDoc>& RuleDocs();

// ---------------------------------------------------------------------------
// Linting entry points.
// ---------------------------------------------------------------------------

class SymbolIndex;  // tools/sparktune_lint/index.h

// Lint one file's contents without cross-TU knowledge: the per-file rules
// only. `path` is used for path-scoped rules (sparksim wall-clock
// exemption, thread_pool exemption, float scoping) and is reported
// verbatim in findings.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content);

// Phase-2 entry point: per-file rules plus the cross-TU rules
// (unordered-member-iter, guard-discipline, rng-ref-escape,
// write-only-member, test-only-function) when `index` is non-null.
std::vector<Finding> LintFileWithIndex(const std::string& path,
                                       const std::string& content,
                                       const SymbolIndex* index);

// Read `path` from disk and lint it. Unreadable files yield a single
// finding with rule "io-error" (exit code 2, not 1 — see
// ExitCodeForFindings).
std::vector<Finding> LintFileOnDisk(const std::string& path);
std::vector<Finding> LintFileOnDiskWithIndex(const std::string& path,
                                             const SymbolIndex* index);

// Every lintable file (.cc/.cpp/.h/.hpp) under `root`/<dir> for each of
// `dirs`, skipping directories named "lint_fixtures" (the intentionally-
// violating test corpus), anything starting with "build", and
// dot-directories. Sorted, so everything downstream is deterministic.
std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& dirs);

// Single-phase tree walk (per-file rules only; kept for tooling that
// wants the cheap pass).
std::vector<Finding> LintTree(const std::string& root,
                              const std::vector<std::string>& dirs);

// Two-phase tree walk: CollectFiles, BuildIndex over all of them, then
// lint each with the index. Results are sorted by path then line.
std::vector<Finding> LintTreeIndexed(const std::string& root,
                                     const std::vector<std::string>& dirs);

// Two-phase over an explicit file list (fixture pairs, CLI path args).
std::vector<Finding> LintFilesIndexed(const std::vector<std::string>& paths);

// ---------------------------------------------------------------------------
// Output & exit codes.
// ---------------------------------------------------------------------------

// "file:line: [rule] message" plus an indented hint line when present.
std::string FormatFinding(const Finding& f);

// Machine-readable reports. The JSON schema is
//   { "tool": "sparktune_lint", "schema": "sparktune-lint-findings-v1",
//     "count": N, "findings": [{file, line, rule, message, hint}...] }
// and the SARIF output is minimal but valid SARIF 2.1.0 (one run, rule
// metadata from RuleDocs, one result per finding).
std::string FindingsToJson(const std::vector<Finding>& findings);
std::string FindingsToSarif(const std::vector<Finding>& findings);

// CLI exit-code contract, pinned by lint_test: 0 = clean, 1 = findings
// present, 2 = the run itself is broken (io-error findings: unreadable
// input, not a dirty tree). tools/check.sh relies on the distinction.
int ExitCodeForFindings(const std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// --fix: suppression stubs.
// ---------------------------------------------------------------------------

struct FixResult {
  int stubs = 0;                    // lint:allow stubs inserted
  std::vector<std::string> files;   // files rewritten, sorted unique
  std::vector<Finding> skipped;     // not stubbable (bad-allow, io-error)
};

// Insert `// lint:allow(<rule>) TODO(<user>): justify` stubs directly
// above each finding's line (merging into an existing annotation comment
// line when one is already there, so it keeps suppressing its own rule).
// The stub parses as a well-formed reasoned allow, so a --fix'd tree
// lints clean while every stub stays greppable for review. bad-allow and
// io-error findings are never stubbed (reported in `skipped`).
FixResult ApplyFixStubs(const std::vector<Finding>& findings,
                        const std::string& user);

}  // namespace sparktune::lint
