// Reads every Ticket member (clean_write_only.h): the increment's value
// is returned, the flag is read through a pointer, and issued() has a
// caller outside Ticket in a file that is not a test.
#include "clean_write_only.h"

namespace lintfix {
namespace {

void Flip(bool* flag) { *flag = !*flag; }

}  // namespace

int Ticket::Next() {
  ++issued_;
  return next_++;
}

void Ticket::Refresh() { Flip(&stale_); }

bool AnyIssued(const Ticket& t) { return t.issued() > 0; }

}  // namespace lintfix
