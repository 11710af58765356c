// Cross-TU bad fixture for write-only-member, linted as one set with
// bad_write_only.cc beside it and ../bad_write_only_test.cc. Each Meter
// member is declared here, written only in bad_write_only.cc, and never
// read. The rule reports at the declaration.
// Expected (indexed with both .cc files):
//   line 26: write-only-member   (last_: assigned, never read)
//   line 27: write-only-member   (total_: copied only into MeterState)
//   line 28: write-only-member   (hits_: read only through hits(), which
//                                 only a test calls)
#pragma once

namespace lintfix {

struct MeterState {
  long long total = 0;
};

class Meter {
 public:
  void Record(long long v);
  MeterState SaveState() const;
  void RestoreState(const MeterState& s);
  long long hits() const { return hits_; }

 private:
  long long last_ = 0;
  long long total_ = 0;
  long long hits_ = 0;
};

}  // namespace lintfix
