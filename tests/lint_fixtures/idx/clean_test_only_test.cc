// The only caller of Probe::Observed (src/clean_test_only.h), which
// carries a reasoned allow.
#include "src/clean_test_only.h"

bool Observes(const lintfix::Probe& p) { return p.Observed() == 7; }
