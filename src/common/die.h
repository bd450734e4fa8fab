#ifndef CRACKDB_COMMON_DIE_H_
#define CRACKDB_COMMON_DIE_H_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace crackdb {

/// Aborts with "<subsystem>: <what>: <detail>" on stderr. For broken
/// internal invariants and the public calls that do not yet return an
/// Expected error.
[[noreturn]] inline void Die(const char* subsystem, const char* what,
                             const std::string& detail) {
  std::fprintf(stderr, "%s: %s: %s\n", subsystem, what, detail.c_str());
  std::abort();
}

}  // namespace crackdb

#endif  // CRACKDB_COMMON_DIE_H_
