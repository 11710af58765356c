// Production callers of the write-only-member fixtures' methods
// (src/bad_write_only.h, src/clean_write_only.h): library functions have
// callers, so test-only-function stays silent on those fixtures.
#include "src/bad_write_only.h"
#include "src/clean_write_only.h"

bool Drive(lintfix::Meter* m, lintfix::Ticket* t) {
  m->Record(1);
  m->RestoreState(m->SaveState());
  t->Next();
  t->Refresh();
  return lintfix::AnyIssued(*t);
}
