// Cross-TU clean fixture for test-only-function, linted as one set with
// clean_test_only.cc beside it, ../clean_test_only_test.cc,
// ../perfbench/clean_test_only_bench.cc, ../tests/bench_reference.h and
// ../bench/bench_reference_user.cc. Every function here is defined in
// clean_test_only.cc and has a caller the rule must count, or a reasoned
// allow.
#pragma once

namespace lintfix {

// Called from a perfbench/ file.
int FromPerfbench(int x);
// Called from a tests/ header that a bench/ file includes.
int FromBenchReference(int x);
// Its address is taken, unqualified, in Pump's constructor.
void OnTick();
// Called as Widen<long>(...) from Pump::Loop.
template <typename T>
T Widen(int x) {
  return static_cast<T>(x);
}

class Pump {
 public:
  Pump();

 private:
  // Its address is taken as &Pump::Loop in the constructor.
  void Loop();

  void (Pump::*entry_)() = nullptr;
  void (*tick_)() = nullptr;
};

class Probe {
 public:
  // lint:allow(test-only-function) fixture: an observer a test reads
  int Observed() const;
};

}  // namespace lintfix
