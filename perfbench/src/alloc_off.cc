// The untraced driver links no allocation hook: the global operator new is
// the standard library's, and the tally reads zero.

#include "util.h"

namespace perfbench {

AllocTally ReadAllocTally() { return {}; }
bool AllocCountingLinked() { return false; }

}  // namespace perfbench
