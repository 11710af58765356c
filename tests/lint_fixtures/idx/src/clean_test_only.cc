// Definitions for clean_test_only.h.
#include "clean_test_only.h"

namespace lintfix {

int FromPerfbench(int x) { return x + 1; }

int FromBenchReference(int x) { return x + 2; }

void OnTick() {}

Pump::Pump() {
  entry_ = &Pump::Loop;
  tick_ = &OnTick;
}

void Pump::Loop() {
  if (tick_ != nullptr && entry_ != nullptr && Widen<long>(1) > 0) tick_();
}

int Probe::Observed() const { return 7; }

}  // namespace lintfix
