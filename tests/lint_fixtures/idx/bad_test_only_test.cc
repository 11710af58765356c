// The only callers of OnlyTestsCall and Gauge::Peek
// (src/bad_test_only.h) are in this test.
#include "src/bad_test_only.h"

bool Checks(const lintfix::Gauge& g) {
  return lintfix::OnlyTestsCall(2) == 5 && g.Peek() > 0.0;
}
