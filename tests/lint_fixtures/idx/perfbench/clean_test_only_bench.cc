// A perfbench/ caller of FromPerfbench (../src/clean_test_only.h), and
// the code that builds a Pump.
#include "../src/clean_test_only.h"

int RunWorkload() {
  lintfix::Pump pump;
  return lintfix::FromPerfbench(1);
}
