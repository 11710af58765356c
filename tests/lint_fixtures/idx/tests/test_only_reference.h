// A reference header under tests/ that no bench/ file includes: its
// call of FromTestHeader (../src/bad_test_only.h) is a test's call.
#pragma once

#include "../src/bad_test_only.h"

inline int ReferenceValue() { return lintfix::FromTestHeader(3); }
