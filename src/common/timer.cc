#include "common/timer.h"

// Timer is header-only; this translation unit exists so the build exposes a
// stable object for the module.
