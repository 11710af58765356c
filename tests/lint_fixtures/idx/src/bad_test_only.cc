// Definitions for bad_test_only.h. The only calls made here are a
// function calling itself and a test-only function calling a helper, and
// neither makes a caller.
#include "bad_test_only.h"

namespace lintfix {

int OnlyTestsCall(int x) { return Twice(x) + 1; }

int CountDown(int n) { return n <= 0 ? 0 : CountDown(n - 1); }

int Twice(int x) { return 2 * x; }

int FromTestHeader(int x) { return x - 1; }

double Gauge::Peek() const { return 0.5; }

}  // namespace lintfix
