// Kernel and codec probe of the traced run (see probe.cc).
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness.h"

namespace crackbench {

/// kernels.<entry>.{gbps,vs_scalar,vs_narrower} for all 16 KernelTable
/// entries plus kernels.arm, on inputs of `n` rows.
void RunKernelProbe(size_t n, uint64_t seed, Report* report);

/// storage.<codec>.{encode,count,fold}_gbps for FOR, dictionary and RLE.
void RunCodecProbe(size_t n, uint64_t seed, Report* report);

}  // namespace crackbench
