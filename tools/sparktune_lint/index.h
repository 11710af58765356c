// Phase 1 of the two-phase analysis (DESIGN.md §6): a project-wide symbol
// index built from one pass over every header and source. Name-based, not
// type-resolved — member names in this tree carry a trailing underscore,
// so cross-file name lookups are unambiguous in practice, and the rules
// that consume the index accept suppression at either the use site or the
// declaration when a collision does produce a false positive.
//
// What gets indexed:
//   * class/struct data members, with their declared-type classification:
//     unordered containers (std::unordered_{map,set,multimap,multiset})
//     and mutexes (std::mutex and friends);
//   * lint:guarded-by(<mutex>) and lint:allow(<rule>) annotations attached
//     to a member's *declaration* (same line or the line directly above),
//     which is what makes guard-discipline enforceable tree-wide;
//   * function signatures (free functions and methods, declarations and
//     definitions) that accept an Rng by reference or pointer — the
//     escape routes an un-forked RNG can take into a parallel body;
//   * type aliases (`using Cache = std::unordered_map<...>;` and the
//     typedef spelling), resolved transitively, so a member declared
//     through an alias classifies exactly like one declared with the
//     underlying type — aliasing must not launder an unordered container
//     past unordered-member-iter or a mutex past guard discipline;
//   * for write-only-member, every data member declared under a src/ path
//     segment whose name ends in '_', and, for every member name, whether
//     any use anywhere reads its value. Uses that only write it: the
//     target of `=` or a compound assignment, a statement-level `++`/`--`,
//     the object of a statement-level mutator call (push_back, insert,
//     clear, reset, Add, Clear, ...), a mem-initializer, any use inside
//     SaveState/RestoreState, and the `return m_;` of an accessor that
//     only test files or its own class call;
//   * for test-only-function, every function body outside a class body
//     under a src/ path segment, every function declaration there, and
//     every call of each name: `name(`, `name<...>(`, or an address taken
//     as `&Cls::name` or as `&name` after `(`, `,`, `=` or `return`, with
//     the file and function body it sits in.
//
// A test file is a *_test.cc, or a file under tests/ that no bench/ file
// #includes (bench_kernels runs tests/acquisition_reference.h, so that
// header's calls are real callers). Every other indexed file, perfbench/
// included, is production code.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace sparktune::lint {

struct MemberRecord {
  std::string cls;   // enclosing class/struct name ("" if unnamed)
  std::string name;  // member name, e.g. "config_index_"
  std::string file;  // declaring file, as given to the indexer
  int line = 0;      // declaration line (the declarator's line)
  bool unordered = false;  // std::unordered_{map,set,multimap,multiset}
  bool is_mutex = false;   // std::mutex / recursive_mutex / shared_mutex...
  std::string guarded_by;  // mutex name from a declaration-site
                           // lint:guarded-by; "" when unannotated
  std::vector<std::string> decl_allows;  // reasoned lint:allow ids on the
                                         // declaration: suppress that rule
                                         // for every use of this member
};

struct FunctionRecord {
  std::string name;
  std::string file;
  int line = 0;
  // Parameter names declared as Rng& / Rng* (const-qualified included).
  std::vector<std::string> rng_ref_params;
};

// test-only-function: where a function is declared or defined.
struct FunctionSite {
  std::string cls;   // enclosing or qualifying class ("" for free functions)
  std::string name;
  std::string file;
  int line = 0;
};

struct AliasRecord {
  std::string name;  // alias identifier, e.g. "Cache"
  std::string file;
  int line = 0;
  bool unordered = false;  // RHS (transitively) names an unordered container
  bool is_mutex = false;   // RHS (transitively) names a mutex type
  // Identifier tokens on the RHS that were not classified directly; after
  // ResolveAliases() any of them naming another alias has been folded in.
  std::vector<std::string> deps;
};

class SymbolIndex {
 public:
  // Parse one file into the index. Safe to call for every file in the
  // tree; order does not matter for members/functions, but aliases
  // defined in *other* files are only visible after a CollectAliases
  // pre-pass over those files (BuildIndex does this automatically).
  void AddFile(const std::string& path, const std::string& content);
  // AddFile with disk I/O; unreadable files are skipped (phase 2 reports
  // them as io-error when it tries to lint them).
  void AddFileOnDisk(const std::string& path);

  // Alias pre-pass (phase 0): record `using NAME = ...;` / `typedef ...
  // NAME;` definitions without touching members or functions. Call for
  // every file before any AddFile so members in file A declared through
  // an alias defined in file B classify correctly. Idempotent per alias
  // (first definition wins, deterministic under a sorted file list).
  void CollectAliases(const std::string& path, const std::string& content);
  void CollectAliasesOnDisk(const std::string& path);
  // Fold alias-to-alias references to a fixed point (`using A = B;` where
  // B aliases an unordered container makes A unordered too).
  void ResolveAliases();

  bool IsUnorderedAlias(const std::string& name) const;
  bool IsMutexAlias(const std::string& name) const;
  const AliasRecord* FindAlias(const std::string& name) const;

  // First record for `name` with the property, or nullptr. Multiple
  // classes may declare a same-named member; the first (lowest path,
  // when built through BuildIndex) wins, which is deterministic.
  const MemberRecord* FindUnorderedMember(const std::string& name) const;
  const MemberRecord* FindGuardedMember(const std::string& name) const;
  const FunctionRecord* FindRngRefFunction(const std::string& name) const;
  bool IsMutexMember(const std::string& name) const;

  // write-only-member: the in-scope data members declared in `file`, in
  // declaration order, and whether any indexed use of `name` reads it.
  std::vector<const MemberRecord*> DataMembersIn(const std::string& file) const;
  bool IsMemberRead(const std::string& name) const;

  // test-only-function: find the functions defined outside a class body
  // under src/ that no production code reaches. A call counts unless it
  // sits in a test file or in the body of such a function (its own body
  // included), so a helper only test-only code calls is test-only too.
  // Call after the last AddFile (BuildIndex does).
  void ResolveCallers();
  // The sites in `file` at which to report them: each declaration, or
  // the definition when there is none. Constructors, destructors,
  // operators and main are never reported.
  std::vector<FunctionSite> TestOnlyFunctionsIn(const std::string& file) const;

  size_t member_count() const;
  size_t function_count() const;
  size_t alias_count() const { return aliases_.size(); }

 private:
  // A function body: its name and class ("" for free functions).
  struct FunctionScope {
    std::string name;
    std::string cls;
  };
  // One call of a name: the indexed file (into files_) and the function
  // body it sits in (into scopes_; -1 outside any body).
  struct CallSite {
    size_t file = 0;
    int scope = -1;
  };
  // `return member;` in accessor `fn` of class `cls`: a read only when a
  // file other than a test file calls `fn` from outside `cls`.
  struct AccessorReturn {
    std::string fn;
    std::string cls;
    std::string member;
  };

  void IndexTokens(const std::string& path, const std::vector<Token>& toks,
                   const std::map<int, Annotation>& notes);
  // Record the quoted #includes of a bench/ file, resolved against its
  // directory.
  void CollectBenchIncludes(const std::string& path,
                            const std::string& content);
  // Whether `path` is a test file (see the header comment).
  bool IsTestFile(const std::string& path) const;
  // True when production code calls `name` (see ResolveCallers).
  // `test_file[f]` classifies files_[f]; `test_only` holds the
  // "cls::name" keys still presumed test-only.
  bool HasProductionCaller(const std::string& name,
                           const std::vector<char>& test_file,
                           const std::set<std::string>& test_only) const;
  void CollectAliasTokens(const std::string& path,
                          const std::vector<Token>& toks);
  // Classify every member use and call in one file. `body_of[i]` indexes
  // `bodies` for the function body token i sits in (-1 outside any);
  // `declarators[i]` marks member and function declarator names.
  void IndexUses(const std::string& path, const std::vector<Token>& toks,
                 const std::vector<int>& body_of,
                 const std::vector<FunctionScope>& bodies,
                 const std::vector<char>& declarators);

  std::map<std::string, std::vector<MemberRecord>> members_;
  std::map<std::string, std::vector<FunctionRecord>> functions_;
  std::map<std::string, AliasRecord> aliases_;
  std::vector<MemberRecord> data_members_;
  std::set<std::string> read_members_;
  std::vector<AccessorReturn> accessor_returns_;
  // test-only-function.
  std::vector<FunctionSite> declarations_;  // under src/
  // Qualified "cls::name" -> bodies outside a class body under src/.
  std::map<std::string, std::vector<FunctionSite>> definitions_;
  // Function name -> every call of it, in any indexed file.
  std::map<std::string, std::vector<CallSite>> calls_;
  std::vector<std::string> files_;
  std::vector<FunctionScope> scopes_;
  std::set<std::string> bench_includes_;  // normalized include paths
  // ResolveCallers' report sites of test-only functions, by file.
  std::map<std::string, std::vector<FunctionSite>> test_only_sites_;
};

// Build an index over an explicit, pre-sorted file list (CollectFiles
// output or a fixture pair). Runs the alias pre-pass over every file
// first, so cross-file alias references resolve regardless of order.
SymbolIndex BuildIndex(const std::vector<std::string>& paths);

}  // namespace sparktune::lint
