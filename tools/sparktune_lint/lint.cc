#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "index.h"
#include "scopes.h"

namespace sparktune::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared annotation parsing. Every consumer — the per-file rules, the
// suppression pass, and the phase-1 indexer — goes through this one
// helper, so the annotation grammar is defined in exactly one place.
// ---------------------------------------------------------------------------

void ParseAnnotations(const std::string& text, int line,
                      std::map<int, Annotation>* notes) {
  size_t pos = 0;
  while ((pos = text.find("lint:", pos)) != std::string::npos) {
    size_t tail = pos + 5;
    if (text.compare(tail, 6, "allow(") == 0) {
      size_t open = tail + 6;
      size_t close = text.find(')', open);
      if (close == std::string::npos) break;
      std::string id = Trim(text.substr(open, close - open));
      // Only well-formed kebab-case ids count as annotations; prose like
      // "lint:allow(<rule-id>)" in documentation is not one.
      bool well_formed = !id.empty();
      for (char c : id) {
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) || c == '-')) {
          well_formed = false;
        }
      }
      if (!well_formed) {
        pos = close + 1;
        continue;
      }
      // The reason is everything after ')' up to the next annotation (or
      // end of comment).
      size_t reason_end = text.find("lint:", close);
      std::string reason = Trim(text.substr(
          close + 1, reason_end == std::string::npos ? std::string::npos
                                                    : reason_end - close - 1));
      Annotation& a = (*notes)[line];
      a.allowed.push_back(id);
      a.allow_reasons.push_back(reason);
      pos = close + 1;
    } else if (text.compare(tail, 11, "guarded-by(") == 0) {
      size_t open = tail + 11;
      size_t close = text.find(')', open);
      if (close == std::string::npos) break;
      Annotation& a = (*notes)[line];
      a.guarded_by = true;
      // The guard name's base identifier (s->mu_ records as mu_), which
      // is what the lock tracker compares against.
      std::string guard = Trim(text.substr(open, close - open));
      size_t base = guard.find_last_not_of(
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_");
      if (base != std::string::npos) guard = guard.substr(base + 1);
      if (!guard.empty()) a.guards.push_back(guard);
      pos = close + 1;
    } else {
      pos = tail;
    }
  }
}

// ---------------------------------------------------------------------------
// Source cleaning: blank out comments, string/char literals, and
// preprocessor lines (keeping newlines so line numbers survive). Comments
// are harvested for lint: annotations before being blanked; preprocessor
// lines are scanned for `#pragma omp` before being blanked.
// ---------------------------------------------------------------------------

CleanedSource CleanSource(const std::string& src) {
  CleanedSource out;
  out.code.reserve(src.size());
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  auto emit = [&](char c) { out.code.push_back(c == '\n' ? '\n' : c); };
  auto blank = [&](char c) { out.code.push_back(c == '\n' ? '\n' : ' '); };

  // Preprocessor lines (incl. backslash continuations) are blanked whole;
  // scan them for `#pragma omp` first. We detect "line starts with #"
  // at each newline boundary.
  bool at_line_start = true;
  while (i < n) {
    char c = src[i];
    if (at_line_start) {
      size_t j = i;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      if (j < n && src[j] == '#') {
        // Consume the whole (possibly continued) preprocessor directive.
        int start_line = line;
        std::string text;
        while (i < n) {
          if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
            blank(src[i]);
            ++i;
            emit('\n');
            ++line;
            ++i;
            continue;
          }
          if (src[i] == '\n') break;
          text.push_back(src[i]);
          blank(src[i]);
          ++i;
        }
        // Normalize whitespace for the pragma check.
        std::string squeezed;
        for (char tc : text) {
          if (tc == '\t') tc = ' ';
          if (tc == ' ' && !squeezed.empty() && squeezed.back() == ' ')
            continue;
          squeezed.push_back(tc);
        }
        if (squeezed.find("#pragma omp") != std::string::npos ||
            squeezed.find("# pragma omp") != std::string::npos) {
          out.omp_pragma_lines.push_back(start_line);
        }
        continue;  // the '\n' (or EOF) is handled by the main loop
      }
      at_line_start = false;
    }
    if (c == '\n') {
      emit('\n');
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::string text;
      while (i < n && src[i] != '\n') {
        text.push_back(src[i]);
        blank(src[i]);
        ++i;
      }
      ParseAnnotations(text, line, &out.notes);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      int start_line = line;
      std::string text;
      blank(src[i]);
      blank(src[i + 1]);
      i += 2;
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          emit('\n');
          ++line;
        } else {
          text.push_back(src[i]);
          blank(src[i]);
        }
        ++i;
      }
      if (i < n) {
        blank(src[i]);
        blank(src[i + 1]);
        i += 2;
      }
      ParseAnnotations(text, start_line, &out.notes);
      continue;
    }
    if (c == '"') {
      // Raw string? (only when preceded by R just emitted)
      bool raw = !out.code.empty() && out.code.back() == 'R' &&
                 (out.code.size() < 2 || !IsIdentChar(out.code[out.code.size() - 2]));
      if (raw) {
        blank(src[i]);
        ++i;
        std::string delim;
        while (i < n && src[i] != '(') {
          delim.push_back(src[i]);
          blank(src[i]);
          ++i;
        }
        std::string closer = ")" + delim + "\"";
        while (i < n && src.compare(i, closer.size(), closer) != 0) {
          if (src[i] == '\n') {
            emit('\n');
            ++line;
          } else {
            blank(src[i]);
          }
          ++i;
        }
        for (size_t k = 0; k < closer.size() && i < n; ++k, ++i) blank(src[i]);
        continue;
      }
      blank(src[i]);
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) {
          blank(src[i]);
          ++i;
        }
        if (src[i] == '\n') {
          emit('\n');
          ++line;
        } else {
          blank(src[i]);
        }
        ++i;
      }
      if (i < n) {
        blank(src[i]);
        ++i;
      }
      continue;
    }
    if (c == '\'') {
      blank(src[i]);
      ++i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\' && i + 1 < n) {
          blank(src[i]);
          ++i;
        }
        blank(src[i]);
        ++i;
      }
      if (i < n) {
        blank(src[i]);
        ++i;
      }
      continue;
    }
    emit(c);
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer over cleaned code.
// ---------------------------------------------------------------------------

std::vector<Token> Tokenize(const std::string& code) {
  std::vector<Token> toks;
  toks.reserve(code.size() / 4);
  int line = 1;
  size_t i = 0;
  const size_t n = code.size();
  while (i < n) {
    char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsIdentChar(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && IsIdentChar(code[j])) ++j;
      toks.push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IsIdentChar(code[j]) || code[j] == '.')) ++j;
      toks.push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && code[i + 1] == ':') {
      toks.push_back({"::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && code[i + 1] == '>') {
      toks.push_back({"->", line});
      i += 2;
      continue;
    }
    toks.push_back({std::string(1, c), line});
    ++i;
  }
  return toks;
}

std::string TreeDir(const std::string& path) {
  static const std::set<std::string> kTreeDirs = {
      "src",      "tests",     "bench",        "tools",
      "examples", "perfbench", "lint_fixtures"};
  size_t end = path.rfind('/');
  while (end != std::string::npos && end > 0) {
    const size_t slash = path.rfind('/', end - 1);
    const size_t begin = slash == std::string::npos ? 0 : slash + 1;
    std::string dir = path.substr(begin, end - begin);
    if (kTreeDirs.count(dir)) return dir;
    end = slash;
  }
  return "";
}

bool InLibraryPath(const std::string& path) { return TreeDir(path) == "src"; }

// ---------------------------------------------------------------------------
// Rule engine.
// ---------------------------------------------------------------------------

namespace {

const std::vector<std::string> kRules = {
    "no-rand",           "no-random-device",   "no-wall-clock",
    "no-raw-thread",     "no-nondet-reduce",   "no-float-accum",
    "no-unordered-iter", "rng-fork-required",  "no-rng-ref-capture",
    "mutable-static",    "bad-allow",          "no-abort",
    "parallel-shared-write",
    // Cross-TU rules (phase 2, need the phase-1 index).
    "unordered-member-iter", "guard-discipline", "rng-ref-escape",
    "write-only-member", "test-only-function",
};

const std::vector<RuleDoc> kRuleDocs = {
    {"no-rand", "C PRNG (rand/srand/rand_r/drand48); draw from a seeded "
                "common/rng.h Rng instead"},
    {"no-random-device", "std::random_device breaks replayability; seed an "
                         "Rng explicitly"},
    {"no-wall-clock", "host-clock read (time/clock/gettimeofday/"
                      "system_clock/argless now()); exempt under "
                      "src/sparksim/"},
    {"no-raw-thread", "raw std::thread/jthread/async/pthread/OpenMP outside "
                      "common/thread_pool.cc"},
    {"no-nondet-reduce", "std::reduce/transform_reduce/std::execution "
                         "reassociate floating-point accumulation"},
    {"no-float-accum", "float arithmetic in src/linalg or src/model "
                       "accumulation paths; use double"},
    {"no-unordered-iter", "range-for over an unordered container feeding an "
                          "output container or accumulator"},
    {"rng-fork-required", "Rng declared outside a ParallelFor body used "
                          "inside it; fork per task with ForkRngs"},
    {"no-rng-ref-capture", "ParallelFor lambda capture list names an Rng by "
                           "reference"},
    {"mutable-static", "mutable namespace-scope/function-static/thread_local "
                       "state without a guard annotation"},
    {"bad-allow", "lint:allow with no reason string or an unknown rule id "
                  "(never suppressible)"},
    {"no-abort", "abort/exit/_Exit/quick_exit/assert(false) in library code "
                 "(src/); return a Status instead"},
    {"parallel-shared-write", "ParallelFor body writes non-RNG state it does "
                              "not own (not body-declared, not a parameter, "
                              "not an index-owned slot)"},
    {"unordered-member-iter", "cross-TU: iteration over an unordered member "
                              "declared in any indexed header"},
    {"guard-discipline", "cross-TU: access to a lint:guarded-by(m) member "
                         "where m is not visibly held"},
    {"rng-ref-escape", "cross-TU: un-forked Rng reference flowing into an "
                       "Rng&-taking callee in a ParallelFor body, or "
                       "captured by reference in a stored lambda"},
    {"write-only-member", "cross-TU: library (src/) data member that is "
                          "written, or saved and restored, but never read"},
    {"test-only-function", "cross-TU: function defined in src/ outside a "
                           "class body that only tests reach (directly or "
                           "through other such functions)"},
};

bool PathContains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

class Linter {
 public:
  Linter(std::string path, const std::string& content,
         const SymbolIndex* index)
      : path_(std::move(path)),
        cleaned_(CleanSource(content)),
        index_(index) {
    toks_ = Tokenize(cleaned_.code);
  }

  std::vector<Finding> Run() {
    CheckAnnotations();
    CheckBannedCalls();
    TrackDeclarations();
    CheckUnorderedIteration();
    CheckParallelForBodies();
    CheckMutableState();
    if (index_ != nullptr) {
      CheckUnorderedMemberIteration();
      CheckRngRefEscape();
      CheckWriteOnlyMembers();
      CheckTestOnlyFunctions();
      std::vector<Finding> guard =
          CheckGuardDiscipline(path_, toks_, *index_);
      findings_.insert(findings_.end(), guard.begin(), guard.end());
    }
    ApplySuppressions();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return findings_;
  }

 private:
  void Add(const std::string& rule, int line, std::string message,
           std::string hint) {
    findings_.push_back(
        {path_, line, rule, std::move(message), std::move(hint)});
  }

  const std::string& Tok(size_t i) const {
    static const std::string kEmpty;
    return i < toks_.size() ? toks_[i].text : kEmpty;
  }

  bool Prev(size_t i, const char* s) const {
    return i > 0 && toks_[i - 1].text == s;
  }

  // --- annotations: every allow needs a reason and a known rule id -------
  void CheckAnnotations() {
    for (const auto& [line, note] : cleaned_.notes) {
      for (size_t k = 0; k < note.allowed.size(); ++k) {
        const std::string& id = note.allowed[k];
        if (std::find(kRules.begin(), kRules.end(), id) == kRules.end()) {
          Add("bad-allow", line, "lint:allow names unknown rule '" + id + "'",
              "valid ids: run sparktune_lint --list-rules");
        } else if (note.allow_reasons[k].empty()) {
          Add("bad-allow", line,
              "lint:allow(" + id + ") has no reason string",
              "write lint:allow(" + id + ") <why this exception is sound>");
        }
      }
    }
  }

  // --- flat token scans ---------------------------------------------------
  void CheckBannedCalls() {
    const bool in_sparksim = PathContains(path_, "sparksim/");
    const bool is_pool = PathEndsWith(path_, "common/thread_pool.cc");
    // Library code (src/) must fail soft: a dying tuner task may not take
    // the whole multi-tenant service with it. Benchmarks, tests, and CLIs
    // own their process and are exempt.
    const bool in_library = InLibraryPath(path_);
    for (int line : cleaned_.omp_pragma_lines) {
      if (!is_pool) {
        Add("no-raw-thread", line, "OpenMP pragma",
            "use common/thread_pool.h ParallelFor");
      }
    }
    for (size_t i = 0; i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      const int line = toks_[i].line;
      if (in_library) CheckAbort(i, t, line);
      if ((t == "rand" || t == "srand" || t == "rand_r" || t == "drand48") &&
          Tok(i + 1) == "(" && !Prev(i, ".") && !Prev(i, "->")) {
        Add("no-rand", line, "C PRNG '" + t + "' is nondeterministic state",
            "draw from a seeded common/rng.h Rng instead");
      } else if (t == "random_device") {
        Add("no-random-device", line,
            "std::random_device breaks replayability",
            "seed a common/rng.h Rng explicitly");
      } else if (t == "reduce" || t == "transform_reduce" ||
                 t == "execution") {
        if (Prev(i, "::") && i >= 2 && toks_[i - 2].text == "std") {
          Add("no-nondet-reduce", line,
              "std::" + t + " reassociates floating-point accumulation",
              "accumulate serially in index order (or tree-reduce with a "
              "fixed shape)");
        }
      } else if (t == "float" && (PathContains(path_, "linalg/") ||
                                  PathContains(path_, "model/"))) {
        Add("no-float-accum", line,
            "float arithmetic in a surrogate/linalg accumulation path",
            "use double; float rounding makes results platform-dependent");
      } else if (!in_sparksim && CheckWallClock(i, t, line)) {
      } else if (!is_pool) {
        CheckRawThread(i, t, line);
      }
    }
  }

  bool CheckWallClock(size_t i, const std::string& t, int line) {
    if (t == "system_clock" || t == "gettimeofday" || t == "clock_gettime" ||
        t == "timespec_get") {
      Add("no-wall-clock", line, "wall-clock source '" + t + "'",
          "simulated time lives in sparksim; results must not read the "
          "host clock");
      return true;
    }
    if (t == "time" && Tok(i + 1) == "(" && !Prev(i, ".") && !Prev(i, "->")) {
      // `std::time(` and bare `time(` are the C wall clock; `Foo::time(`
      // for Foo != std is somebody's accessor.
      if (Prev(i, "::") && !(i >= 2 && toks_[i - 2].text == "std")) {
        return false;
      }
      Add("no-wall-clock", line, "time() reads the host clock",
          "thread simulated time through explicitly");
      return true;
    }
    if ((t == "now" || t == "clock") && Tok(i + 1) == "(" &&
        Tok(i + 2) == ")") {
      Add("no-wall-clock", line, "argless " + t + "() reads the host clock",
          "pass time in from the simulator (or lint:allow for pure "
          "benchmark timing)");
      return true;
    }
    return false;
  }

  void CheckAbort(size_t i, const std::string& t, int line) {
    if ((t == "abort" || t == "exit" || t == "_Exit" || t == "quick_exit") &&
        Tok(i + 1) == "(" && !Prev(i, ".") && !Prev(i, "->")) {
      // `std::abort(` and bare `abort(` terminate the process; `Foo::exit(`
      // for Foo != std is somebody's accessor.
      if (Prev(i, "::") && !(i >= 2 && toks_[i - 2].text == "std")) return;
      Add("no-abort", line,
          "process-terminating call '" + t + "' in library code",
          "return a Status error (common/status.h) so the service can "
          "degrade instead of dying");
    } else if (t == "assert" && Tok(i + 1) == "(" &&
               (Tok(i + 2) == "false" || Tok(i + 2) == "0") &&
               Tok(i + 3) == ")") {
      Add("no-abort", line,
          "assert(false) aborts the process in debug builds",
          "unreachable states should surface as Status errors, not aborts");
    }
  }

  void CheckRawThread(size_t i, const std::string& t, int line) {
    if ((t == "thread" || t == "jthread" || t == "async") && Prev(i, "::") &&
        i >= 2 && toks_[i - 2].text == "std" && Tok(i + 1) != "::") {
      Add("no-raw-thread", line, "raw std::" + t + " outside the pool",
          "all parallelism goes through common/thread_pool.h ParallelFor");
    } else if (t == "pthread_create") {
      Add("no-raw-thread", line, "pthread_create outside the pool",
          "all parallelism goes through common/thread_pool.h ParallelFor");
    }
  }

  // --- declaration tracking (Rng + unordered containers) ------------------
  void TrackDeclarations() {
    for (size_t i = 0; i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if (t == "Rng") {
        // std::vector<Rng> name — an indexed per-task family.
        if (Prev(i, "<") && Tok(i + 1) == ">") {
          size_t j = i + 2;
          while (Tok(j) == "&" || Tok(j) == "*" || Tok(j) == "const") ++j;
          if (!Tok(j).empty() && IsIdentChar(Tok(j)[0]) &&
              Tok(j + 1) != "(") {
            rng_arrays_.insert(Tok(j));
          }
          continue;
        }
        size_t j = i + 1;
        while (Tok(j) == "*" || Tok(j) == "&" || Tok(j) == "const") ++j;
        if (!Tok(j).empty() && IsIdentChar(Tok(j)[0]) && Tok(j + 1) != "(") {
          rng_scalars_.insert(Tok(j));
        }
      } else if (t == "unordered_map" || t == "unordered_set" ||
                 t == "unordered_multimap" || t == "unordered_multiset") {
        size_t j = i + 1;
        if (Tok(j) != "<") continue;
        int depth = 0;
        for (; j < toks_.size(); ++j) {
          if (toks_[j].text == "<") ++depth;
          if (toks_[j].text == ">" && --depth == 0) break;
        }
        ++j;
        while (Tok(j) == "&" || Tok(j) == "*" || Tok(j) == "const") ++j;
        if (!Tok(j).empty() && IsIdentChar(Tok(j)[0]) && Tok(j + 1) != "(") {
          unordered_vars_.insert(Tok(j));
        }
      }
    }
  }

  size_t MatchForward(size_t open, const char* open_s, const char* close_s) {
    // Index of the token closing the bracket at `open`; toks_.size() if
    // unbalanced.
    int depth = 0;
    for (size_t i = open; i < toks_.size(); ++i) {
      if (toks_[i].text == open_s) ++depth;
      if (toks_[i].text == close_s && --depth == 0) return i;
    }
    return toks_.size();
  }

  // Index of the token opening the bracket that closes at `close`,
  // collecting every identifier strictly inside into `ids`. Returns
  // `close` when unbalanced.
  size_t MatchBackward(size_t close, const char* open_s, const char* close_s,
                       std::set<std::string>* ids) {
    int depth = 0;
    for (size_t k = close + 1; k-- > 0;) {
      const std::string& t = toks_[k].text;
      if (t == close_s) {
        ++depth;
      } else if (t == open_s) {
        if (--depth == 0) return k;
      } else if (depth > 0 && !t.empty() && IsIdentChar(t[0]) &&
                 !std::isdigit(static_cast<unsigned char>(t[0]))) {
        ids->insert(t);
      }
    }
    return close;
  }

  // The lvalue chain ending at token `e`, walked back to its leftmost
  // (base) identifier. `inner` collects the identifiers inside any
  // subscripts/call arguments along the chain, so index-owned writes
  // (out[task_id]) can be recognized.
  struct Lvalue {
    std::string base;
    std::set<std::string> inner;
  };
  Lvalue WalkLvalue(size_t e) {
    Lvalue lv;
    size_t k = e;
    while (k < toks_.size()) {
      const std::string& t = toks_[k].text;
      if (t == "]" || t == ")") {
        size_t o = t == "]" ? MatchBackward(k, "[", "]", &lv.inner)
                            : MatchBackward(k, "(", ")", &lv.inner);
        if (o == k || o == 0) return lv;
        k = o - 1;
        continue;
      }
      if (!t.empty() && IsIdentChar(t[0]) &&
          !std::isdigit(static_cast<unsigned char>(t[0]))) {
        lv.base = t;
        if (k >= 2 && (toks_[k - 1].text == "." || toks_[k - 1].text == "->" ||
                       toks_[k - 1].text == "::")) {
          k -= 2;
          continue;
        }
        return lv;
      }
      return lv;
    }
    return lv;
  }

  // --- range-for over unordered containers --------------------------------
  void CheckUnorderedIteration() {
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "insert", "emplace",
        "push_front", "append",      "push",
    };
    for (size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (toks_[i].text != "for" || Tok(i + 1) != "(") continue;
      size_t close = MatchForward(i + 1, "(", ")");
      if (close >= toks_.size()) continue;
      // Find the range-for ':' at depth 1 ('::' is a distinct token).
      size_t colon = 0;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (toks_[j].text == "(") ++depth;
        if (toks_[j].text == ")") --depth;
        if (toks_[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      bool unordered_range = false;
      for (size_t j = colon + 1; j < close; ++j) {
        const std::string& rt = toks_[j].text;
        if (unordered_vars_.count(rt) || rt.rfind("unordered_", 0) == 0) {
          unordered_range = true;
          break;
        }
      }
      if (!unordered_range) continue;
      // Loop body: `{ ... }` or a single statement.
      size_t body_begin = close + 1;
      size_t body_end;
      if (Tok(body_begin) == "{") {
        body_end = MatchForward(body_begin, "{", "}");
      } else {
        body_end = body_begin;
        while (body_end < toks_.size() && toks_[body_end].text != ";")
          ++body_end;
      }
      for (size_t j = body_begin; j < body_end && j < toks_.size(); ++j) {
        const std::string& bt = toks_[j].text;
        bool compound_assign =
            (bt == "+" || bt == "-") && Tok(j + 1) == "=" &&
            toks_[j].line == (j + 1 < toks_.size() ? toks_[j + 1].line : -1);
        if (kMutators.count(bt) || compound_assign) {
          Add("no-unordered-iter", toks_[i].line,
              "iteration over an unordered container feeds an accumulator "
              "or output container",
              "iterate a sorted copy of the keys (or collect then sort) so "
              "the result does not depend on hash order");
          break;
        }
      }
    }
  }

  // --- cross-TU: iteration over indexed unordered members ------------------
  // The per-file pass cannot see that `config_index_` in history.cc is an
  // unordered_map declared in history.h; the phase-1 index can. Fires on
  // range-fors and explicit begin()/cbegin() walks. Any iteration is
  // flagged (not just ones feeding outputs): hash order must not be load-
  // bearing, and provably order-independent uses take a reasoned allow —
  // at the use site, or on the declaration to bless the member wholesale.
  void CheckUnorderedMemberIteration() {
    auto decl_allowed = [](const MemberRecord* rec) {
      return std::find(rec->decl_allows.begin(), rec->decl_allows.end(),
                       "unordered-member-iter") != rec->decl_allows.end();
    };
    auto already_flagged = [&](int line) {
      for (const Finding& f : findings_) {
        if (f.line == line && (f.rule == "no-unordered-iter" ||
                               f.rule == "unordered-member-iter")) {
          return true;
        }
      }
      return false;
    };
    for (size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (toks_[i].text != "for" || Tok(i + 1) != "(") continue;
      size_t close = MatchForward(i + 1, "(", ")");
      if (close >= toks_.size()) continue;
      size_t colon = 0;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (toks_[j].text == "(") ++depth;
        if (toks_[j].text == ")") --depth;
        if (toks_[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      for (size_t j = colon + 1; j < close; ++j) {
        const std::string& rt = toks_[j].text;
        if (rt.empty() || !IsIdentChar(rt[0])) continue;
        const MemberRecord* rec = index_->FindUnorderedMember(rt);
        if (rec == nullptr || decl_allowed(rec)) continue;
        if (already_flagged(toks_[i].line)) break;
        Add("unordered-member-iter", toks_[i].line,
            "range-for over unordered member '" + rt + "' (declared at " +
                rec->file + ":" + std::to_string(rec->line) +
                ") — iteration order is hash-dependent",
            "iterate a sorted copy of the keys, or justify with "
            "lint:allow(unordered-member-iter) <reason> (on this line for "
            "one site, on the declaration to bless every use)");
        break;
      }
    }
    // Explicit iterator walks: member.begin() / member.cbegin().
    for (size_t i = 0; i + 3 < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if (t.empty() || !IsIdentChar(t[0])) continue;
      if (!(Tok(i + 1) == "." || Tok(i + 1) == "->")) continue;
      if (!(Tok(i + 2) == "begin" || Tok(i + 2) == "cbegin")) continue;
      if (Tok(i + 3) != "(") continue;
      const MemberRecord* rec = index_->FindUnorderedMember(t);
      if (rec == nullptr || decl_allowed(rec)) continue;
      if (rec->file == path_ && rec->line == toks_[i].line) continue;
      if (already_flagged(toks_[i].line)) continue;
      Add("unordered-member-iter", toks_[i].line,
          "iterator walk over unordered member '" + t + "' (declared at " +
              rec->file + ":" + std::to_string(rec->line) +
              ") — iteration order is hash-dependent",
          "iterate a sorted copy of the keys, or justify with "
          "lint:allow(unordered-member-iter) <reason>");
    }
  }

  // --- cross-TU: members nothing reads -------------------------------------
  // Reported at the declaration: the index has seen every use in the tree.
  void CheckWriteOnlyMembers() {
    for (const MemberRecord* m : index_->DataMembersIn(path_)) {
      if (index_->IsMemberRead(m->name)) continue;
      Add("write-only-member", m->line,
          "member '" + m->name + "' of " + m->cls +
              " is written, or saved and restored, but never read",
          "delete it with its *State and codec fields, or justify with "
          "lint:allow(write-only-member) <reason> on the declaration");
    }
  }

  // --- cross-TU: functions only tests call ---------------------------------
  // Reported at the declaration: the index has seen every call in the tree.
  void CheckTestOnlyFunctions() {
    for (const FunctionSite& f : index_->TestOnlyFunctionsIn(path_)) {
      const std::string name = f.cls.empty() ? f.name : f.cls + "::" + f.name;
      Add("test-only-function", f.line,
          "function '" + name + "' is defined in src/ but only tests reach it",
          "delete it with the tests that only check it, or justify with "
          "lint:allow(test-only-function) <reason> on the declaration");
    }
  }

  // --- ParallelFor lambda bodies ------------------------------------------
  struct PfCall {
    size_t cap_begin = 0;   // '[' of the first lambda in the call
    size_t body_begin = 0;  // '{' of that lambda's body
    size_t body_end = 0;    // matching '}'
    std::set<std::string> rng_locals;  // Rng names declared in the body
  };

  void CheckParallelForBodies() {
    for (size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].text != "ParallelFor" || Tok(i + 1) != "(") continue;
      size_t call_end = MatchForward(i + 1, "(", ")");
      if (call_end >= toks_.size()) continue;
      // First lambda inside the call.
      size_t lb = i + 2;
      while (lb < call_end && toks_[lb].text != "[") ++lb;
      if (lb >= call_end) continue;
      size_t cap_end = MatchForward(lb, "[", "]");
      if (cap_end >= call_end) continue;
      pf_lambda_caps_.insert(lb);
      // Capture list: an explicit &rng is always wrong.
      for (size_t j = lb + 1; j < cap_end; ++j) {
        if (toks_[j].text == "&" && rng_scalars_.count(Tok(j + 1))) {
          Add("no-rng-ref-capture", toks_[j].line,
              "ParallelFor lambda captures Rng '" + Tok(j + 1) +
                  "' by reference",
              "fork per-task streams before the loop: ForkRngs(rng, n), "
              "then index by task id");
        }
      }
      size_t body_begin = cap_end + 1;
      if (Tok(body_begin) == "(") body_begin = MatchForward(body_begin, "(", ")") + 1;
      while (body_begin < call_end && Tok(body_begin) != "{") ++body_begin;
      if (body_begin >= call_end) continue;
      size_t body_end = MatchForward(body_begin, "{", "}");
      // Rng names declared inside the body are per-task locals.
      std::set<std::string> locals;
      for (size_t j = body_begin; j < body_end; ++j) {
        if (toks_[j].text != "Rng") continue;
        size_t k = j + 1;
        while (Tok(k) == "*" || Tok(k) == "&" || Tok(k) == "const") ++k;
        if (!Tok(k).empty() && IsIdentChar(Tok(k)[0])) locals.insert(Tok(k));
      }
      for (size_t j = body_begin; j < body_end; ++j) {
        const std::string& t = toks_[j].text;
        if (!rng_scalars_.count(t) || locals.count(t)) continue;
        if (Prev(j, ".") || Prev(j, "->") || Prev(j, "::")) continue;
        Add("rng-fork-required", toks_[j].line,
            "Rng '" + t + "' declared outside this ParallelFor body is "
            "used inside it",
            "draws would interleave by schedule; ForkRngs(rng, n) before "
            "the loop and use the task's own stream");
      }
      CheckSharedWrites(cap_end, body_begin, body_end);
      pf_calls_.push_back({lb, body_begin, body_end, std::move(locals)});
    }
  }

  // --- cross-TU: un-forked RNG references escaping -------------------------
  // Two escape routes the per-file rules cannot pin down:
  //   (a) a ParallelFor body hands an outer-scope Rng to a callee whose
  //       *indexed* signature (possibly from another file's header) takes
  //       Rng& / Rng* — the callee will draw from the shared stream;
  //   (b) a lambda stored outside the sanctioned ParallelFor call site
  //       captures an Rng by reference ([&rng]), so the reference outlives
  //       the statement and can run on any schedule later.
  void CheckRngRefEscape() {
    for (const PfCall& pf : pf_calls_) {
      for (size_t j = pf.body_begin; j < pf.body_end; ++j) {
        const std::string& t = toks_[j].text;
        if (t.empty() || !IsIdentChar(t[0]) || Tok(j + 1) != "(") continue;
        const FunctionRecord* fr = index_->FindRngRefFunction(t);
        if (fr == nullptr) continue;
        size_t close = MatchForward(j + 1, "(", ")");
        for (size_t k = j + 2; k < close && k < toks_.size(); ++k) {
          const std::string& a = toks_[k].text;
          if (!rng_scalars_.count(a) || pf.rng_locals.count(a)) continue;
          if (Prev(k, ".") || Prev(k, "->") || Prev(k, "::")) continue;
          Add("rng-ref-escape", toks_[j].line,
              "un-forked Rng '" + a + "' passed into '" + t +
                  "' (declared at " + fr->file + ":" +
                  std::to_string(fr->line) +
                  ", takes Rng by reference) inside a ParallelFor body",
              "fork per-task streams before the loop (ForkRngs) and pass "
              "the task's own stream");
          break;
        }
      }
    }
    // Stored-lambda captures: a '[' opening a capture list (not a
    // subscript — subscripts follow an identifier, ']' or ')') that is
    // not the first lambda of a ParallelFor call.
    for (size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].text != "[") continue;
      if (pf_lambda_caps_.count(i)) continue;  // no-rng-ref-capture owns it
      if (i > 0) {
        const std::string& p = toks_[i - 1].text;
        if (p == "]" || p == ")" ||
            (!p.empty() && IsIdentChar(p[0]) &&
             !std::isdigit(static_cast<unsigned char>(p[0])) &&
             p != "return"))
          continue;  // subscript, not a capture list
        if (p == "[") continue;  // attribute [[...]]
      }
      size_t cap_end = MatchForward(i, "[", "]");
      if (cap_end >= toks_.size() || Tok(cap_end + 1) == "[") continue;
      for (size_t j = i + 1; j < cap_end; ++j) {
        if (toks_[j].text == "&" && rng_scalars_.count(Tok(j + 1))) {
          Add("rng-ref-escape", toks_[j].line,
              "Rng '" + Tok(j + 1) + "' captured by reference in a stored "
              "lambda — the reference escapes this statement",
              "capture a forked stream by value, or pass the Rng "
              "explicitly at the (serial) call site");
        }
      }
    }
  }

  // --- non-RNG shared writes in ParallelFor bodies -------------------------
  // Flags writes (assignments, compound assignments, ++/--, container
  // mutator calls) whose target is neither owned by the body (declared
  // inside it or the lambda parameter) nor an index-owned slot (a
  // subscript/argument naming a body-owned index, like out[task_id]).
  // Rng targets are skipped — the rng rules own that failure mode.
  void CheckSharedWrites(size_t cap_end, size_t body_begin, size_t body_end) {
    // Lambda parameters: identifiers directly before ',' or ')' in the
    // parameter list.
    std::set<std::string> owned;
    if (Tok(cap_end + 1) == "(") {
      size_t parm_end = MatchForward(cap_end + 1, "(", ")");
      for (size_t j = cap_end + 2; j < parm_end && j < toks_.size(); ++j) {
        const std::string& t = toks_[j].text;
        if ((Tok(j + 1) == "," || j + 1 == parm_end) && !t.empty() &&
            IsIdentChar(t[0]) &&
            !std::isdigit(static_cast<unsigned char>(t[0]))) {
          owned.insert(t);
        }
      }
    }
    // Body-local declarations, token-level: an identifier preceded by a
    // type-ish token (identifier, '*', '&', '>'). Expression keywords
    // (`return x`) are not types. Over-collecting exempts too much rather
    // than false-positives, the right bias for a syntactic pass.
    static const std::set<std::string> kExprKeywords = {
        "return",   "throw",    "else",     "case",     "goto",
        "new",      "delete",   "sizeof",   "operator", "co_return",
        "co_yield", "co_await", "if",       "while",    "for",
        "do",       "switch",
    };
    for (size_t j = body_begin + 1; j < body_end && j < toks_.size(); ++j) {
      const std::string& t = toks_[j].text;
      if (t.empty() || !IsIdentChar(t[0]) ||
          std::isdigit(static_cast<unsigned char>(t[0]))) {
        continue;
      }
      const std::string& p = Tok(j - 1);
      bool after_type =
          p == "*" || p == "&" || p == ">" ||
          (!p.empty() && IsIdentChar(p[0]) &&
           !std::isdigit(static_cast<unsigned char>(p[0])) &&
           !kExprKeywords.count(p));
      // Later declarators of a multi-declarator statement
      // (`double a0 = x, a1 = y;`) follow a comma, not the type.
      bool later_declarator = p == "," && Tok(j + 1) == "=";
      if (after_type || later_declarator) owned.insert(t);
    }
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "insert",  "emplace", "push_front",
        "append",    "push",         "pop_back", "clear",  "erase",
        "resize",    "assign",
    };
    auto exempt = [&](const Lvalue& lv) {
      if (!lv.base.empty() &&
          (owned.count(lv.base) || rng_scalars_.count(lv.base) ||
           rng_arrays_.count(lv.base))) {
        return true;
      }
      for (const std::string& id : lv.inner) {
        if (owned.count(id)) return true;
      }
      return false;
    };
    auto flag = [&](const Lvalue& lv, int line) {
      std::string what = lv.base.empty() ? "shared state" : "'" + lv.base + "'";
      Add("parallel-shared-write", line,
          "write to " + what + " shared across ParallelFor tasks",
          "give each task its own slot (index by the task id), hoist the "
          "write out of the loop, or guard it and annotate "
          "lint:guarded-by(<mutex>)");
    };
    static const std::set<std::string> kCompound = {"+", "-", "*", "/",
                                                    "%", "&", "|", "^"};
    static const std::set<std::string> kNotBeforeAssign = {
        "=", "!", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^"};
    for (size_t j = body_begin + 1; j < body_end && j < toks_.size(); ++j) {
      const std::string& t = toks_[j].text;
      size_t lhs_end = 0;
      if (t == "=" && Tok(j + 1) != "=" && !kNotBeforeAssign.count(Tok(j - 1))) {
        lhs_end = j - 1;  // plain assignment
      } else if (kCompound.count(t) && Tok(j + 1) == "=" &&
                 Tok(j + 2) != "=") {
        lhs_end = j - 1;  // compound assignment
      } else if ((t == "+" && Tok(j + 1) == "+") ||
                 (t == "-" && Tok(j + 1) == "-")) {
        const std::string& before = Tok(j - 1);
        if (!before.empty() && (IsIdentChar(before[0]) || before == "]" ||
                                before == ")")) {
          lhs_end = j - 1;  // postfix
        } else {
          // Prefix: extend forward over the target's member chain.
          size_t e = j + 2;
          while (Tok(e + 1) == "." || Tok(e + 1) == "->" ||
                 Tok(e + 1) == "::") {
            e += 2;
          }
          if (!Tok(e).empty() && IsIdentChar(Tok(e)[0])) lhs_end = e;
        }
      } else if (kMutators.count(t) && Tok(j + 1) == "(" &&
                 (Prev(j, ".") || Prev(j, "->")) && j >= 2) {
        lhs_end = j - 2;  // receiver of a container mutator call
      } else {
        continue;
      }
      if (lhs_end == 0 || lhs_end < body_begin) continue;
      Lvalue lv = WalkLvalue(lhs_end);
      if (lv.base.empty() && lv.inner.empty()) continue;
      if (exempt(lv)) continue;
      flag(lv, toks_[j].line);
    }
  }

  // --- mutable statics / namespace-scope globals --------------------------
  // A statement-granularity walk with a scope-kind stack. `kInit` marks
  // braced initializers so their contents don't end statements early.
  enum class Scope { kNamespace, kClass, kBlock, kInit };

  static bool HeadHas(const std::vector<const Token*>& head, const char* s) {
    for (const Token* t : head) {
      if (t->text == s) return true;
    }
    return false;
  }

  Scope ClassifyBrace(const std::vector<const Token*>& head) {
    if (HeadHas(head, "namespace")) return Scope::kNamespace;
    bool has_paren = HeadHas(head, ")");
    if (!has_paren && (HeadHas(head, "class") || HeadHas(head, "struct") ||
                       HeadHas(head, "union") || HeadHas(head, "enum"))) {
      return Scope::kClass;
    }
    if (has_paren) {
      // `= [..](..) {` is a lambda body (block); `X x = f() {`? not C++.
      // A ')' after the last '=' means the brace opens a callable body.
      size_t last_eq = std::string::npos, last_par = std::string::npos;
      for (size_t k = 0; k < head.size(); ++k) {
        if (head[k]->text == "=") last_eq = k;
        if (head[k]->text == ")") last_par = k;
      }
      if (last_eq == std::string::npos || last_par > last_eq)
        return Scope::kBlock;
      return Scope::kInit;
    }
    if (!head.empty()) {
      const std::string& last = head.back()->text;
      if (last == "=" || last == "(" || last == "," || last == "{" ||
          last == "return") {
        return Scope::kInit;
      }
    }
    return Scope::kBlock;
  }

  void CheckMutableState() {
    static const std::set<std::string> kSkipLeads = {
        "using",    "typedef", "template", "class",  "struct",
        "enum",     "union",   "namespace", "friend", "extern",
        "static_assert", "public", "private", "protected", "if",
        "for",      "while",   "switch",   "return", "case",
        "do",       "else",    "goto",     "break",  "continue",
    };
    std::vector<Scope> stack;
    std::vector<const Token*> head;
    int paren = 0;
    auto at_namespace_scope = [&]() {
      return std::all_of(stack.begin(), stack.end(),
                         [](Scope s) { return s == Scope::kNamespace; });
    };
    auto in_init = [&]() {
      return !stack.empty() && stack.back() == Scope::kInit;
    };
    auto classify_statement = [&](const std::vector<const Token*>& st) {
      if (st.empty()) return;
      bool is_static = false, is_tls = false;
      size_t first_paren = std::string::npos, first_eq = std::string::npos;
      for (size_t k = 0; k < st.size(); ++k) {
        const std::string& t = st[k]->text;
        if (t == "static") is_static = true;
        if (t == "thread_local") is_tls = true;
        if (t == "(" && first_paren == std::string::npos) first_paren = k;
        if (t == "=" && first_eq == std::string::npos) first_eq = k;
      }
      // const-ness: only tokens before the initializer count.
      size_t limit = std::min(first_eq, st.size());
      for (size_t k = 0; k < limit; ++k) {
        const std::string& t = st[k]->text;
        if (t == "const" || t == "constexpr" || t == "constinit") return;
      }
      if (kSkipLeads.count(st.front()->text)) return;
      bool ns_scope = at_namespace_scope();
      bool class_scope = !stack.empty() && stack.back() == Scope::kClass;
      if (class_scope) return;  // member decls; out-of-line defs are caught
      if (!is_static && !is_tls && !ns_scope) return;  // plain local
      // Function declaration/definition: a '(' with no earlier '='.
      if (first_paren != std::string::npos &&
          (first_eq == std::string::npos || first_paren < first_eq)) {
        return;
      }
      // A lone identifier ("break"-ish or macro) is not a declaration.
      size_t idents = 0;
      for (size_t k = 0; k < limit; ++k) {
        if (IsIdentChar(st[k]->text[0]) &&
            !std::isdigit(static_cast<unsigned char>(st[k]->text[0]))) {
          ++idents;
        }
      }
      if (idents < 2) return;
      const char* what = is_tls ? "thread_local state"
                        : is_static ? "mutable static state"
                                    : "mutable namespace-scope state";
      Add("mutable-static", st.front()->line,
          std::string(what) + " without a guard annotation",
          "make it const, guard it and annotate lint:guarded-by(<mutex>), "
          "or justify with lint:allow(mutable-static) <reason>");
    };
    for (size_t i = 0; i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if (t == "(") ++paren;
      if (t == ")") paren = std::max(0, paren - 1);
      if (t == "{" && paren == 0) {
        Scope s = ClassifyBrace(head);
        stack.push_back(s);
        if (s != Scope::kInit) head.clear();
        continue;
      }
      if (t == "}" && paren == 0) {
        if (!stack.empty()) {
          bool was_init = stack.back() == Scope::kInit;
          stack.pop_back();
          if (!was_init) head.clear();
        }
        continue;
      }
      if (t == ";" && paren == 0) {
        if (!in_init()) {
          classify_statement(head);
          head.clear();
        }
        continue;
      }
      if (!in_init()) head.push_back(&toks_[i]);
    }
  }

  // --- suppressions ---------------------------------------------------------
  void ApplySuppressions() {
    std::vector<Finding> kept;
    for (Finding& f : findings_) {
      if (f.rule == "bad-allow") {
        kept.push_back(std::move(f));
        continue;
      }
      bool suppressed = false;
      for (int line : {f.line, f.line - 1}) {
        auto it = cleaned_.notes.find(line);
        if (it == cleaned_.notes.end()) continue;
        const Annotation& a = it->second;
        if ((f.rule == "mutable-static" || f.rule == "parallel-shared-write") &&
            a.guarded_by) {
          suppressed = true;
        }
        for (size_t k = 0; k < a.allowed.size(); ++k) {
          if (a.allowed[k] == f.rule && !a.allow_reasons[k].empty()) {
            suppressed = true;
          }
        }
      }
      if (!suppressed) kept.push_back(std::move(f));
    }
    findings_ = std::move(kept);
  }

  std::string path_;
  CleanedSource cleaned_;
  const SymbolIndex* index_;
  std::vector<Token> toks_;
  std::set<std::string> rng_scalars_;
  std::set<std::string> rng_arrays_;
  std::set<std::string> unordered_vars_;
  std::vector<PfCall> pf_calls_;
  std::set<size_t> pf_lambda_caps_;  // '[' positions owned by ParallelFor
  std::vector<Finding> findings_;
};

bool LintableExtension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& RuleIds() { return kRules; }

const std::vector<RuleDoc>& RuleDocs() { return kRuleDocs; }

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content) {
  return Linter(path, content, nullptr).Run();
}

std::vector<Finding> LintFileWithIndex(const std::string& path,
                                       const std::string& content,
                                       const SymbolIndex* index) {
  return Linter(path, content, index).Run();
}

std::vector<Finding> LintFileOnDisk(const std::string& path) {
  return LintFileOnDiskWithIndex(path, nullptr);
}

std::vector<Finding> LintFileOnDiskWithIndex(const std::string& path,
                                             const SymbolIndex* index) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "io-error", "cannot read file", ""}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return LintFileWithIndex(path, ss.str(), index);
}

std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& dirs) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& d : dirs) {
    fs::path base = fs::path(root) / d;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    fs::recursive_directory_iterator it(base, ec), end;
    for (; it != end; it.increment(ec)) {
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (it->is_directory(ec)) {
        if (name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
            (!name.empty() && name[0] == '.')) {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (LintableExtension(p)) files.push_back(p.string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Finding> LintTree(const std::string& root,
                              const std::vector<std::string>& dirs) {
  std::vector<Finding> all;
  for (const std::string& f : CollectFiles(root, dirs)) {
    std::vector<Finding> fs_ = LintFileOnDisk(f);
    all.insert(all.end(), fs_.begin(), fs_.end());
  }
  return all;
}

std::vector<Finding> LintTreeIndexed(const std::string& root,
                                     const std::vector<std::string>& dirs) {
  return LintFilesIndexed(CollectFiles(root, dirs));
}

std::vector<Finding> LintFilesIndexed(const std::vector<std::string>& paths) {
  SymbolIndex index = BuildIndex(paths);
  std::vector<Finding> all;
  for (const std::string& f : paths) {
    std::vector<Finding> fs_ = LintFileOnDiskWithIndex(f, &index);
    all.insert(all.end(), fs_.begin(), fs_.end());
  }
  return all;
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream ss;
  ss << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  if (!f.hint.empty()) ss << "\n    hint: " << f.hint;
  return ss.str();
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::ostringstream ss;
  ss << "{\n  \"tool\": \"sparktune_lint\",\n"
     << "  \"schema\": \"sparktune-lint-findings-v1\",\n"
     << "  \"count\": " << findings.size() << ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    ss << (i == 0 ? "\n" : ",\n")
       << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
       << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
       << "\", \"message\": \"" << JsonEscape(f.message)
       << "\", \"hint\": \"" << JsonEscape(f.hint) << "\"}";
  }
  ss << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
  return ss.str();
}

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  std::ostringstream ss;
  ss << "{\"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\", "
        "\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": "
        "{\"name\": \"sparktune_lint\", \"informationUri\": "
        "\"DESIGN.md\", \"rules\": [";
  bool first = true;
  for (const RuleDoc& r : RuleDocs()) {
    ss << (first ? "" : ", ") << "{\"id\": \"" << JsonEscape(r.id)
       << "\", \"shortDescription\": {\"text\": \"" << JsonEscape(r.doc)
       << "\"}}";
    first = false;
  }
  // io-error is not a catalogue rule but can appear as a result.
  ss << ", {\"id\": \"io-error\", \"shortDescription\": {\"text\": "
        "\"input file could not be read\"}}";
  ss << "]}}, \"results\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::string text = f.message;
    if (!f.hint.empty()) text += " (hint: " + f.hint + ")";
    ss << (i == 0 ? "" : ", ") << "{\"ruleId\": \"" << JsonEscape(f.rule)
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << JsonEscape(text) << "\"}, \"locations\": [{\"physicalLocation\": "
       << "{\"artifactLocation\": {\"uri\": \"" << JsonEscape(f.file)
       << "\"}, \"region\": {\"startLine\": " << std::max(1, f.line)
       << "}}}]}";
  }
  ss << "]}]}\n";
  return ss.str();
}

int ExitCodeForFindings(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    if (f.rule == "io-error") return 2;
  }
  return findings.empty() ? 0 : 1;
}

FixResult ApplyFixStubs(const std::vector<Finding>& findings,
                        const std::string& user) {
  FixResult result;
  // file -> line -> rule ids needing a stub there.
  std::map<std::string, std::map<int, std::set<std::string>>> plan;
  for (const Finding& f : findings) {
    if (f.rule == "bad-allow" || f.rule == "io-error" || f.line <= 0) {
      result.skipped.push_back(f);
      continue;
    }
    plan[f.file][f.line].insert(f.rule);
  }
  auto has_annotation = [](const std::string& line) {
    return line.find("lint:allow(") != std::string::npos ||
           line.find("lint:guarded-by(") != std::string::npos;
  };
  for (auto& [file, lines_plan] : plan) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      for (const auto& [line, rules] : lines_plan) {
        for (const std::string& r : rules) {
          result.skipped.push_back({file, line, r, "cannot read file", ""});
        }
      }
      continue;
    }
    std::vector<std::string> lines;
    std::string ln;
    while (std::getline(in, ln)) {
      if (!ln.empty() && ln.back() == '\r') ln.pop_back();
      lines.push_back(ln);
    }
    in.close();
    bool touched = false;
    // Bottom-up so earlier insertions don't shift later targets.
    for (auto it = lines_plan.rbegin(); it != lines_plan.rend(); ++it) {
      const int line = it->first;
      if (line > static_cast<int>(lines.size())) {
        for (const std::string& r : it->second) {
          result.skipped.push_back({file, line, r, "line out of range", ""});
        }
        continue;
      }
      std::string stubs;
      for (const std::string& r : it->second) {
        if (!stubs.empty()) stubs += " ";
        stubs += "lint:allow(" + r + ") TODO(" + user + "): justify";
        ++result.stubs;
      }
      const size_t idx = static_cast<size_t>(line - 1);
      if (has_annotation(lines[idx])) {
        // The finding's line already carries an annotation comment —
        // extend it rather than stacking a second comment line that
        // would push the existing one out of suppression range.
        lines[idx] += " " + stubs;
      } else if (idx > 0 && has_annotation(lines[idx - 1])) {
        lines[idx - 1] += " " + stubs;
      } else {
        std::string indent =
            lines[idx].substr(0, lines[idx].find_first_not_of(" \t"));
        if (indent.size() == lines[idx].size()) indent.clear();
        lines.insert(lines.begin() + idx, indent + "// " + stubs);
      }
      touched = true;
    }
    if (touched) {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      for (const std::string& l : lines) out << l << "\n";
      result.files.push_back(file);
    }
  }
  std::sort(result.files.begin(), result.files.end());
  return result;
}

}  // namespace sparktune::lint
