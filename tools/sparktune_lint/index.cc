#include "index.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

namespace sparktune::lint {

namespace {

bool IsIdent(const std::string& t) {
  if (t.empty()) return false;
  char c = t[0];
  return (std::isalpha(static_cast<unsigned char>(c)) || c == '_');
}

const std::set<std::string>& UnorderedTypes() {
  static const std::set<std::string> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kTypes;
}

const std::set<std::string>& MutexTypes() {
  static const std::set<std::string> kTypes = {
      "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
      "shared_mutex", "shared_timed_mutex"};
  return kTypes;
}

// Names that can precede '(' without being a callable's name.
const std::set<std::string>& NotFunctionNames() {
  static const std::set<std::string> kNames = {
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "operator", "alignof", "decltype", "noexcept", "assert"};
  return kNames;
}

// Calls whose object they mutate without reading it (write-only-member).
const std::set<std::string>& MutatorCalls() {
  static const std::set<std::string> kNames = {
      "push_back", "emplace_back", "insert", "erase", "clear", "resize",
      "reserve",   "assign",       "reset",  "Add",   "Clear"};
  return kNames;
}

// Index in `st` of a function declarator's name: the identifier before the
// first '(' at angle depth 0 (so std::function<void(size_t)> members are
// not misread as methods) with no earlier '='; st.size() when there is none.
size_t FunctionNameAt(const std::vector<const Token*>& st) {
  int angle = 0;
  for (size_t k = 0; k < st.size(); ++k) {
    const std::string& t = st[k]->text;
    if (t == "<") ++angle;
    if (t == ">") angle = std::max(0, angle - 1);
    if (t == "=" && angle == 0) return st.size();  // variable initializer
    if (t == "(" && angle == 0) {
      if (k == 0 || !IsIdent(st[k - 1]->text) ||
          NotFunctionNames().count(st[k - 1]->text)) {
        return st.size();
      }
      return k - 1;
    }
  }
  return st.size();
}

// The bracket matching toks[at], scanning forward from an opener or
// backward from a closer; toks.size() when unbalanced.
size_t MatchForward(const std::vector<Token>& toks, size_t at) {
  const std::string open = toks[at].text;
  const std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (size_t k = at; k < toks.size(); ++k) {
    if (toks[k].text == open) ++depth;
    if (toks[k].text == close && --depth == 0) return k;
  }
  return toks.size();
}

std::string NormalPath(const std::filesystem::path& p) {
  return p.lexically_normal().generic_string();
}

size_t MatchBack(const std::vector<Token>& toks, size_t at) {
  const std::string close = toks[at].text;
  const std::string open = close == ")" ? "(" : close == "]" ? "[" : "{";
  int depth = 0;
  for (size_t k = at + 1; k-- > 0;) {
    if (toks[k].text == close) ++depth;
    if (toks[k].text == open && --depth == 0) return k;
  }
  return toks.size();
}

}  // namespace

void SymbolIndex::AddFile(const std::string& path,
                          const std::string& content) {
  CleanedSource cs = CleanSource(content);
  std::vector<Token> toks = Tokenize(cs.code);
  // Same-file aliases are always visible, even without the BuildIndex
  // pre-pass (the one-file AddFile API used by unit tests).
  CollectAliasTokens(path, toks);
  ResolveAliases();
  if (TreeDir(path) == "bench") CollectBenchIncludes(path, content);
  IndexTokens(path, toks, cs.notes);
}

void SymbolIndex::CollectBenchIncludes(const std::string& path,
                                       const std::string& content) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line.compare(hash, 8, "#include") != 0) {
      continue;
    }
    const size_t open = line.find('"', hash);
    const size_t close =
        open == std::string::npos ? open : line.find('"', open + 1);
    if (close == std::string::npos) continue;
    bench_includes_.insert(
        NormalPath(dir / line.substr(open + 1, close - open - 1)));
  }
}

void SymbolIndex::AddFileOnDisk(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;  // phase 2 reports the io-error when it lints this path
  std::ostringstream ss;
  ss << in.rdbuf();
  AddFile(path, ss.str());
}

void SymbolIndex::CollectAliases(const std::string& path,
                                 const std::string& content) {
  CleanedSource cs = CleanSource(content);
  CollectAliasTokens(path, Tokenize(cs.code));
}

void SymbolIndex::CollectAliasesOnDisk(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::ostringstream ss;
  ss << in.rdbuf();
  CollectAliases(path, ss.str());
}

void SymbolIndex::CollectAliasTokens(const std::string& path,
                                     const std::vector<Token>& toks) {
  // Classify one RHS token run into an AliasRecord.
  auto classify = [](AliasRecord* rec, const std::vector<Token>& ts,
                     size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      const std::string& t = ts[k].text;
      if (UnorderedTypes().count(t)) {
        rec->unordered = true;
      } else if (MutexTypes().count(t)) {
        rec->is_mutex = true;
      } else if (IsIdent(t)) {
        rec->deps.push_back(t);  // maybe another alias; resolved later
      }
    }
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "using" && i + 2 < toks.size() && IsIdent(toks[i + 1].text) &&
        toks[i + 2].text == "=") {
      // `using NAME = <type>;` (skips using-directives/-declarations,
      // which have no '='). RHS runs to the statement's ';'.
      size_t end = i + 3;
      while (end < toks.size() && toks[end].text != ";") ++end;
      AliasRecord rec;
      rec.name = toks[i + 1].text;
      rec.file = path;
      rec.line = toks[i + 1].line;
      classify(&rec, toks, i + 3, end);
      aliases_.emplace(rec.name, std::move(rec));  // first definition wins
      i = end;
      continue;
    }
    if (t == "typedef") {
      // `typedef <type> NAME;` — the declarator is the last identifier
      // before ';' (function-pointer typedefs misparse harmlessly: their
      // RHS never names a container or mutex).
      size_t end = i + 1;
      while (end < toks.size() && toks[end].text != ";") ++end;
      size_t name_at = end;
      for (size_t k = end; k-- > i + 1;) {
        if (IsIdent(toks[k].text)) {
          name_at = k;
          break;
        }
      }
      if (name_at != end) {
        AliasRecord rec;
        rec.name = toks[name_at].text;
        rec.file = path;
        rec.line = toks[name_at].line;
        classify(&rec, toks, i + 1, name_at);
        aliases_.emplace(rec.name, std::move(rec));
      }
      i = end;
    }
  }
}

void SymbolIndex::ResolveAliases() {
  // Fixed point over alias-to-alias references; the alias graph is tiny,
  // and each pass only ever flips classification bits on, so this
  // terminates in at most alias_count() passes even with cycles.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [name, rec] : aliases_) {
      if (rec.unordered && rec.is_mutex) continue;
      for (const std::string& dep : rec.deps) {
        auto it = aliases_.find(dep);
        if (it == aliases_.end()) continue;
        if (it->second.unordered && !rec.unordered) {
          rec.unordered = true;
          changed = true;
        }
        if (it->second.is_mutex && !rec.is_mutex) {
          rec.is_mutex = true;
          changed = true;
        }
      }
    }
  }
}

bool SymbolIndex::IsUnorderedAlias(const std::string& name) const {
  auto it = aliases_.find(name);
  return it != aliases_.end() && it->second.unordered;
}

bool SymbolIndex::IsMutexAlias(const std::string& name) const {
  auto it = aliases_.find(name);
  return it != aliases_.end() && it->second.is_mutex;
}

const AliasRecord* SymbolIndex::FindAlias(const std::string& name) const {
  auto it = aliases_.find(name);
  return it == aliases_.end() ? nullptr : &it->second;
}

const MemberRecord* SymbolIndex::FindUnorderedMember(
    const std::string& name) const {
  auto it = members_.find(name);
  if (it == members_.end()) return nullptr;
  for (const MemberRecord& r : it->second) {
    if (r.unordered) return &r;
  }
  return nullptr;
}

const MemberRecord* SymbolIndex::FindGuardedMember(
    const std::string& name) const {
  auto it = members_.find(name);
  if (it == members_.end()) return nullptr;
  for (const MemberRecord& r : it->second) {
    if (!r.guarded_by.empty()) return &r;
  }
  return nullptr;
}

const FunctionRecord* SymbolIndex::FindRngRefFunction(
    const std::string& name) const {
  auto it = functions_.find(name);
  if (it == functions_.end()) return nullptr;
  for (const FunctionRecord& r : it->second) {
    if (!r.rng_ref_params.empty()) return &r;
  }
  return nullptr;
}

bool SymbolIndex::IsMutexMember(const std::string& name) const {
  auto it = members_.find(name);
  if (it == members_.end()) return false;
  for (const MemberRecord& r : it->second) {
    if (r.is_mutex) return true;
  }
  return false;
}

std::vector<const MemberRecord*> SymbolIndex::DataMembersIn(
    const std::string& file) const {
  std::vector<const MemberRecord*> out;
  for (const MemberRecord& r : data_members_) {
    if (r.file == file) out.push_back(&r);
  }
  return out;
}

bool SymbolIndex::IsMemberRead(const std::string& name) const {
  if (read_members_.count(name)) return true;
  for (const AccessorReturn& a : accessor_returns_) {
    if (a.member != name) continue;
    auto it = calls_.find(a.fn);
    if (it == calls_.end()) continue;
    for (const CallSite& c : it->second) {
      const std::string& cls =
          c.scope < 0 ? "" : scopes_[static_cast<size_t>(c.scope)].cls;
      if (cls != a.cls && !IsTestFile(files_[c.file])) return true;
    }
  }
  return false;
}

bool SymbolIndex::IsTestFile(const std::string& path) const {
  if (path.ends_with("_test.cc")) return true;
  return TreeDir(path) == "tests" && !bench_includes_.count(NormalPath(path));
}

bool SymbolIndex::HasProductionCaller(
    const std::string& name, const std::vector<char>& test_file,
    const std::set<std::string>& test_only) const {
  auto it = calls_.find(name);
  if (it == calls_.end()) return false;
  for (const CallSite& c : it->second) {
    if (test_file[c.file]) continue;
    if (c.scope >= 0) {
      // A call from the body of a src/ function still presumed test-only
      // (its own body included) reaches nothing new.
      const FunctionScope& body = scopes_[static_cast<size_t>(c.scope)];
      if (InLibraryPath(files_[c.file]) &&
          test_only.count(body.cls + "::" + body.name)) {
        continue;
      }
    }
    return true;
  }
  return false;
}

void SymbolIndex::ResolveCallers() {
  std::vector<char> test_file(files_.size());
  for (size_t f = 0; f < files_.size(); ++f) {
    test_file[f] = IsTestFile(files_[f]);
  }
  // Greatest fixed point: every function starts test-only and leaves the
  // set once production code reaches it, so a cycle of functions only
  // tests enter stays in it.
  std::set<std::string> only;
  for (const auto& [key, defs] : definitions_) only.insert(key);
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = only.begin(); it != only.end();) {
      if (HasProductionCaller(definitions_.at(*it).front().name, test_file,
                              only)) {
        it = only.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  // Report each at its declarations, or at its definition when it has
  // none.
  test_only_sites_.clear();
  std::set<std::string> declared;
  for (const FunctionSite& d : declarations_) {
    const std::string key = d.cls + "::" + d.name;
    declared.insert(key);
    if (only.count(key)) test_only_sites_[d.file].push_back(d);
  }
  for (const std::string& key : only) {
    if (declared.count(key)) continue;
    for (const FunctionSite& d : definitions_.at(key)) {
      test_only_sites_[d.file].push_back(d);
    }
  }
}

std::vector<FunctionSite> SymbolIndex::TestOnlyFunctionsIn(
    const std::string& file) const {
  auto it = test_only_sites_.find(file);
  return it == test_only_sites_.end() ? std::vector<FunctionSite>{}
                                      : it->second;
}

size_t SymbolIndex::member_count() const {
  size_t n = 0;
  for (const auto& [name, recs] : members_) n += recs.size();
  return n;
}

size_t SymbolIndex::function_count() const {
  size_t n = 0;
  for (const auto& [name, recs] : functions_) n += recs.size();
  return n;
}

void SymbolIndex::IndexTokens(const std::string& path,
                              const std::vector<Token>& toks,
                              const std::map<int, Annotation>& notes) {
  // Scope walk mirroring the rule engine's brace classifier, extended
  // with class names so member declarations can be attributed.
  enum class Kind { kNamespace, kClass, kEnum, kBlock, kInit };
  struct Sc {
    Kind kind;
    std::string cls;
    int body = -1;  // enclosing function body (index into `bodies`)
  };
  std::vector<Sc> stack;
  std::vector<const Token*> head;
  int paren = 0;
  // For IndexUses: the function body each token sits in, and the tokens
  // that name a declared member or function rather than use one.
  std::vector<FunctionScope> bodies;
  std::vector<int> body_of(toks.size(), -1);
  std::vector<char> declarators(toks.size(), 0);
  auto mark_declarator = [&](const Token* t) {
    declarators[static_cast<size_t>(t - toks.data())] = 1;
  };

  auto head_has = [&](const char* s) {
    for (const Token* t : head) {
      if (t->text == s) return true;
    }
    return false;
  };
  auto in_init = [&]() {
    return !stack.empty() && stack.back().kind == Kind::kInit;
  };
  auto in_enum = [&]() {
    return !stack.empty() && stack.back().kind == Kind::kEnum;
  };
  const bool library = InLibraryPath(path);
  // test-only-function: the function declared or defined by the head
  // `st` (name at `name_at`), unless it is a constructor, a destructor
  // or main.
  auto function_site =
      [&](const std::vector<const Token*>& st, size_t name_at,
          const std::string& cls) -> std::optional<FunctionSite> {
    const std::string& name = st[name_at]->text;
    if (!library || name == cls || name == "main" ||
        (name_at > 0 && st[name_at - 1]->text == "~")) {
      return std::nullopt;
    }
    return FunctionSite{cls, name, path, st[name_at]->line};
  };
  auto record_declaration = [&](const std::vector<const Token*>& st,
                                const std::string& cls) {
    const size_t name_at = FunctionNameAt(st);
    if (name_at == st.size()) return;
    if (auto site = function_site(st, name_at, cls)) {
      declarations_.push_back(std::move(*site));
    }
  };

  // Extract an Rng-by-reference-accepting signature from a statement head
  // holding `name ( params... )`. Records only functions with at least one
  // Rng& / Rng* parameter, so the index stays small.
  auto parse_function_head = [&](const std::vector<const Token*>& st) {
    const size_t name_at = FunctionNameAt(st);
    if (name_at == st.size()) return;
    mark_declarator(st[name_at]);
    const std::string& name = st[name_at]->text;
    const size_t open = name_at + 1;
    size_t close = st.size();
    int depth = 0;
    for (size_t k = open; k < st.size(); ++k) {
      if (st[k]->text == "(") ++depth;
      if (st[k]->text == ")" && --depth == 0) {
        close = k;
        break;
      }
    }
    if (close == st.size()) return;
    FunctionRecord rec;
    rec.name = name;
    rec.file = path;
    rec.line = st[open - 1]->line;
    for (size_t k = open + 1; k < close; ++k) {
      if (st[k]->text != "Rng") continue;
      size_t j = k + 1;
      while (j < close && st[j]->text == "const") ++j;
      if (j < close && (st[j]->text == "&" || st[j]->text == "*")) {
        ++j;
        while (j < close && (st[j]->text == "const" || st[j]->text == "&" ||
                             st[j]->text == "*")) {
          ++j;
        }
        rec.rng_ref_params.push_back(
            j < close && IsIdent(st[j]->text) ? st[j]->text : "");
      }
    }
    if (!rec.rng_ref_params.empty()) functions_[name].push_back(rec);
  };

  // Record a data-member declaration statement inside a class scope.
  auto parse_member_statement = [&](std::vector<const Token*> st,
                                    const std::string& cls) {
    // Strip access specifiers that ride along in the head stream.
    while (!st.empty() && (st.front()->text == "public" ||
                           st.front()->text == "private" ||
                           st.front()->text == "protected" ||
                           st.front()->text == ":")) {
      st.erase(st.begin());
    }
    if (st.empty()) return;
    static const std::set<std::string> kSkip = {
        "using", "typedef", "friend", "static_assert", "template",
        "operator", "enum"};
    if (kSkip.count(st.front()->text)) return;
    // Method declaration ('(' at angle depth 0 before any '=')? Index its
    // signature instead of treating it as a member.
    {
      int angle = 0;
      for (size_t k = 0; k < st.size(); ++k) {
        const std::string& t = st[k]->text;
        if (t == "<") ++angle;
        if (t == ">") angle = std::max(0, angle - 1);
        if (t == "=" && angle == 0) break;
        if (t == "(" && angle == 0) {
          parse_function_head(st);
          record_declaration(st, cls);
          return;
        }
      }
    }
    // Declarator: the last identifier before the initializer (or the
    // statement end), skipping literal tokens.
    size_t limit = st.size();
    {
      int angle = 0;
      for (size_t k = 0; k < st.size(); ++k) {
        const std::string& t = st[k]->text;
        if (t == "<") ++angle;
        if (t == ">") angle = std::max(0, angle - 1);
        if (t == "=" && angle == 0) {
          limit = k;
          break;
        }
      }
    }
    const Token* name_tok = nullptr;
    for (size_t k = limit; k-- > 0;) {
      if (IsIdent(st[k]->text)) {
        name_tok = st[k];
        break;
      }
    }
    if (name_tok == nullptr) return;
    mark_declarator(name_tok);
    MemberRecord rec;
    rec.cls = cls;
    rec.name = name_tok->text;
    rec.file = path;
    rec.line = name_tok->line;
    for (size_t k = 0; k < limit; ++k) {
      const std::string& t = st[k]->text;
      if (st[k] == name_tok) break;
      if (UnorderedTypes().count(t) || IsUnorderedAlias(t)) {
        rec.unordered = true;
      }
      if (MutexTypes().count(t) || IsMutexAlias(t)) rec.is_mutex = true;
    }
    // Declaration-site annotations: the declarator's line, any line the
    // (possibly multi-line) statement spans, or the line directly above.
    int lo = st.front()->line - 1;
    int hi = name_tok->line;
    for (int line = lo; line <= hi; ++line) {
      auto it = notes.find(line);
      if (it == notes.end()) continue;
      const Annotation& a = it->second;
      if (rec.guarded_by.empty() && !a.guards.empty()) {
        rec.guarded_by = a.guards.front();
      }
      for (size_t k = 0; k < a.allowed.size(); ++k) {
        if (!a.allow_reasons[k].empty()) {
          rec.decl_allows.push_back(a.allowed[k]);
        }
      }
    }
    if (InLibraryPath(path) && rec.name.size() > 1 && rec.name.back() == '_') {
      data_members_.push_back(rec);
    }
    if (rec.unordered || rec.is_mutex || !rec.guarded_by.empty() ||
        !rec.decl_allows.empty()) {
      members_[rec.name].push_back(std::move(rec));
    }
  };

  auto classify_open = [&](const std::vector<const Token*>& st) -> Sc {
    if (head_has("namespace")) return {Kind::kNamespace, ""};
    if (head_has("enum")) return {Kind::kEnum, ""};
    bool has_paren = head_has(")");
    if (!has_paren && (head_has("class") || head_has("struct") ||
                       head_has("union"))) {
      // Name: the identifier after the last class/struct/union keyword
      // (skips `template <class T>` parameter lists).
      std::string name;
      for (size_t k = 0; k + 1 < st.size(); ++k) {
        const std::string& t = st[k]->text;
        if ((t == "class" || t == "struct" || t == "union") &&
            IsIdent(st[k + 1]->text)) {
          name = st[k + 1]->text;
        }
      }
      return {Kind::kClass, name};
    }
    if (has_paren) {
      // A ')' after the last '=' means the brace opens a callable body
      // (function, method, lambda); otherwise it is a braced initializer.
      size_t last_eq = std::string::npos, last_par = std::string::npos;
      for (size_t k = 0; k < st.size(); ++k) {
        if (st[k]->text == "=") last_eq = k;
        if (st[k]->text == ")") last_par = k;
      }
      if (last_eq == std::string::npos || last_par > last_eq) {
        return {Kind::kBlock, ""};
      }
      return {Kind::kInit, ""};
    }
    if (!st.empty()) {
      const std::string& last = st.back()->text;
      if (last == "=" || last == "(" || last == "," || last == "{" ||
          last == "return") {
        return {Kind::kInit, ""};
      }
    }
    return {Kind::kBlock, ""};
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (!stack.empty()) body_of[i] = stack.back().body;
    if (t == "(") ++paren;
    if (t == ")") paren = std::max(0, paren - 1);
    if (t == "{" && paren == 0) {
      Sc sc = classify_open(head);
      // A callable body opening at namespace or class scope: the head is
      // its signature — harvest Rng-reference parameters.
      if (sc.kind == Kind::kBlock && !in_enum() &&
          (stack.empty() || stack.back().kind == Kind::kNamespace ||
           stack.back().kind == Kind::kClass)) {
        parse_function_head(head);
        const size_t name_at = FunctionNameAt(head);
        if (name_at < head.size()) {
          // `Cls::name(...)` out of line, or inline in a class body.
          std::string cls;
          if (name_at >= 2 && head[name_at - 1]->text == "::") {
            cls = head[name_at - 2]->text;
          } else if (!stack.empty() && stack.back().kind == Kind::kClass) {
            cls = stack.back().cls;
          }
          sc.body = static_cast<int>(bodies.size());
          bodies.push_back({head[name_at]->text, cls});
          const bool out_of_class =
              stack.empty() || stack.back().kind == Kind::kNamespace;
          if (auto site = function_site(head, name_at, cls);
              site && out_of_class) {
            definitions_[cls + "::" + site->name].push_back(std::move(*site));
          }
        }
      } else if (sc.kind != Kind::kClass && !stack.empty()) {
        sc.body = stack.back().body;  // nested blocks stay in the body
      }
      stack.push_back(sc);
      if (sc.kind != Kind::kInit) head.clear();
      continue;
    }
    if (t == "}" && paren == 0) {
      if (!stack.empty()) {
        bool was_init = stack.back().kind == Kind::kInit;
        stack.pop_back();
        if (!was_init) head.clear();
      }
      continue;
    }
    if (t == ";" && paren == 0) {
      if (!in_init()) {
        if (!stack.empty() && stack.back().kind == Kind::kClass) {
          parse_member_statement(head, stack.back().cls);
        } else if (!in_enum() && head_has("(") &&
                   (stack.empty() ||
                    stack.back().kind == Kind::kNamespace)) {
          // Free-function prototype at namespace scope (the cross-TU
          // case: Rng&-taking helpers declared in headers).
          parse_function_head(head);
          record_declaration(head, "");
        }
        head.clear();
      }
      continue;
    }
    if (!in_init() && !in_enum()) head.push_back(&toks[i]);
  }
  IndexUses(path, toks, body_of, bodies, declarators);
}

void SymbolIndex::IndexUses(const std::string& path,
                            const std::vector<Token>& toks,
                            const std::vector<int>& body_of,
                            const std::vector<FunctionScope>& bodies,
                            const std::vector<char>& declarators) {
  const size_t file = files_.size();
  files_.push_back(path);
  const int scope_base = static_cast<int>(scopes_.size());
  scopes_.insert(scopes_.end(), bodies.begin(), bodies.end());
  auto tok = [&](size_t i) -> const std::string& {
    static const std::string kEmpty;
    return i < toks.size() ? toks[i].text : kEmpty;
  };
  // Token i begins an expression statement.
  auto starts_statement = [&](size_t i) {
    if (i == 0) return true;
    const std::string& p = toks[i - 1].text;
    return p == ";" || p == "{" || p == "}" || p == ")" || p == "else" ||
           p == "do";
  };
  // `obj.` / `this->` / `rows[i].` prefixes in front of a member use.
  auto chain_start = [&](size_t i) {
    size_t s = i;
    while (s >= 2 && (toks[s - 1].text == "." || toks[s - 1].text == "->")) {
      size_t p = s - 2;
      while (p > 0 && toks[p].text == "]") {
        p = MatchBack(toks, p);
        if (p == toks.size() || p == 0) return s;
        --p;
      }
      if (!IsIdent(toks[p].text)) break;
      s = p;
    }
    return s;
  };
  // One past `m_`, its `.field`s and `[index]`es (not `->`: writing
  // through a pointer member reads the pointer).
  auto chain_end = [&](size_t i) {
    size_t e = i + 1;
    while (e < toks.size()) {
      if (toks[e].text == "[") {
        e = MatchForward(toks, e);
        if (e == toks.size()) return e;
        ++e;
      } else if (toks[e].text == "." && IsIdent(tok(e + 1)) &&
                 tok(e + 2) != "(") {
        e += 2;
      } else {
        break;
      }
    }
    return e;
  };
  // `m_ = v;`, `m_ op= v;`, `m_++;`, `m_.clear();`, `++m_;` and the like.
  auto statement_write = [&](size_t start, size_t end) {
    const std::string& a = tok(end);
    const std::string& b = tok(end + 1);
    const std::string& c = tok(end + 2);
    if (starts_statement(start)) {
      if (a == "=" && b != "=") return true;
      static const std::set<std::string> kCompound = {"+", "-", "*", "/",
                                                      "%", "&", "|", "^"};
      if (kCompound.count(a) && b == "=" && c != "=") return true;
      if ((a == "<" || a == ">") && b == a && c == "=") return true;
      if ((a == "+" || a == "-") && b == a && c == ";") return true;
      if (a == "." && MutatorCalls().count(b) && c == "(") {
        size_t close = MatchForward(toks, end + 2);
        if (tok(close + 1) == ";") return true;
      }
    }
    return start >= 2 && (tok(start - 1) == "+" || tok(start - 1) == "-") &&
           tok(start - 2) == tok(start - 1) && starts_statement(start - 2) &&
           a == ";";
  };
  // `Cls::Cls(...) : a_(x), m_(y)`: walk back over earlier initializers
  // to the ':' that closes the parameter list.
  auto mem_initializer = [&](size_t i) {
    size_t p = i;
    while (p >= 2) {
      if (toks[p - 1].text == ":") {
        return toks[p - 2].text == ")" || toks[p - 2].text == "noexcept";
      }
      if (toks[p - 1].text != ",") return false;
      const size_t close = p - 2;
      if (toks[close].text != ")" && toks[close].text != "}") return false;
      const size_t open = MatchBack(toks, close);
      if (open == toks.size() || open == 0 || !IsIdent(toks[open - 1].text)) {
        return false;
      }
      p = open - 1;
    }
    return false;
  };

  // `name(`, `name<...>(`, or an address taken: `&Cls::name`, or `&name`
  // after `(`, `,`, `=` or `return`.
  auto is_call = [&](size_t i) {
    size_t next = i + 1;
    if (tok(next) == "<") {
      int depth = 0;
      for (size_t k = next; k < toks.size() && k < next + 32; ++k) {
        const std::string& a = toks[k].text;
        if (a == "<") ++depth;
        if (a == ">" && --depth == 0) {
          next = k + 1;
          break;
        }
        if (a == ";" || a == "{" || a == "}" || a == "(" || a == ")") break;
      }
    }
    if (tok(next) == "(") return true;
    size_t q = i;
    while (q >= 2 && toks[q - 1].text == "::" && IsIdent(toks[q - 2].text)) {
      q -= 2;
    }
    if (q < 2 || toks[q - 1].text != "&") return false;
    if (q < i) return true;
    const std::string& before = toks[q - 2].text;
    return before == "(" || before == "," || before == "=" ||
           before == "return";
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (!IsIdent(t) || declarators[i]) continue;
    const int body = body_of[i];
    if (is_call(i)) {
      calls_[t].push_back({file, body >= 0 ? scope_base + body : -1});
    }
    if (t.size() < 2 || t.back() != '_') continue;
    if (body >= 0) {
      const FunctionScope& fn = bodies[static_cast<size_t>(body)];
      if (fn.name == "SaveState" || fn.name == "RestoreState") continue;
      if (tok(i - 1) == "return" && tok(i + 1) == ";") {
        accessor_returns_.push_back({fn.name, fn.cls, t});
        continue;
      }
    } else if ((tok(i + 1) == "(" || tok(i + 1) == "{") &&
               mem_initializer(i)) {
      continue;
    }
    if (statement_write(chain_start(i), chain_end(i))) continue;
    read_members_.insert(t);
  }
}

SymbolIndex BuildIndex(const std::vector<std::string>& paths) {
  SymbolIndex index;
  // Phase 0: aliases from every file, so a member in file A declared
  // through an alias defined in file B classifies correctly regardless of
  // list order.
  for (const std::string& p : paths) index.CollectAliasesOnDisk(p);
  index.ResolveAliases();
  for (const std::string& p : paths) index.AddFileOnDisk(p);
  index.ResolveCallers();
  return index;
}

}  // namespace sparktune::lint
