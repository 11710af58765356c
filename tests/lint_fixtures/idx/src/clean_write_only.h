// Cross-TU clean fixture for write-only-member: every Ticket member is
// read somewhere in clean_write_only.cc, in a form the rule must count as
// a read even though each use also writes.
#pragma once

namespace lintfix {

class Ticket {
 public:
  int Next();
  void Refresh();
  int issued() const { return issued_; }

 private:
  int next_ = 0;        // a value-used increment: return next_++
  bool stale_ = false;  // passed by pointer to a helper that reads it
  int issued_ = 0;      // read through an accessor called outside Ticket
};

bool AnyIssued(const Ticket& t);

}  // namespace lintfix
