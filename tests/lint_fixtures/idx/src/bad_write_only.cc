// Writes every Meter member (bad_write_only.h) and reads none: plain and
// compound assignment, a statement-level increment, and the copies in
// and out of MeterState.
#include "bad_write_only.h"

namespace lintfix {

void Meter::Record(long long v) {
  last_ = v;
  total_ += v;
  ++hits_;
}

MeterState Meter::SaveState() const {
  MeterState s;
  s.total = total_;
  return s;
}

void Meter::RestoreState(const MeterState& s) { total_ = s.total; }

}  // namespace lintfix
