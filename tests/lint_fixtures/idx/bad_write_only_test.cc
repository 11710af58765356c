// The only caller of Meter::hits() (src/bad_write_only.h) is this test,
// so the accessor's `return hits_;` does not count as a read.
#include "src/bad_write_only.h"

bool Recorded(const lintfix::Meter& m) { return m.hits() > 0; }
