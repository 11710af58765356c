// Cross-TU bad fixture for test-only-function, linted as one set with
// bad_test_only.cc beside it, ../bad_test_only_test.cc and
// ../tests/test_only_reference.h. Every function here is defined in
// bad_test_only.cc and no production code reaches it. The rule reports
// at the declaration.
// Expected (indexed with the whole set):
//   line 17: test-only-function   (OnlyTestsCall: a _test.cc calls it)
//   line 18: test-only-function   (CountDown: only its own body calls it)
//   line 19: test-only-function   (Twice: only OnlyTestsCall calls it)
//   line 20: test-only-function   (FromTestHeader: only a tests/ header
//                                  that no bench/ file includes calls it)
//   line 24: test-only-function   (Gauge::Peek: a method a test calls)
#pragma once

namespace lintfix {

int OnlyTestsCall(int x);
int CountDown(int n);
int Twice(int x);
int FromTestHeader(int x);

class Gauge {
 public:
  double Peek() const;
};

}  // namespace lintfix
