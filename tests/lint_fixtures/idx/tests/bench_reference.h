// A reference header under tests/ that ../bench/bench_reference_user.cc
// includes, so its call of FromBenchReference (../src/clean_test_only.h)
// is a production call.
#pragma once

#include "../src/clean_test_only.h"

inline int BenchReferenceValue() { return lintfix::FromBenchReference(3); }
