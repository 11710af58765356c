// A bench/ file that runs a tests/ reference header.
#include "../tests/bench_reference.h"

int BenchMain() { return BenchReferenceValue(); }
