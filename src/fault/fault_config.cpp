#include "fault/fault_config.hpp"

#include "common/error.hpp"

namespace cnt {

void FaultConfig::validate() const {
  require_range("fault.stuck_per_mbit", stuck_per_mbit, 0.0, 1024.0 * 1024.0,
                "a stuck-cell density per 2^20 bits in [0, 1048576]");
  require_range("fault.stuck_at1", stuck_at1_fraction, 0.0, 1.0,
                "a fraction in [0, 1]");
  require_range("fault.transient_per_read", transient_per_read, 0.0, 1.0,
                "a per-bit probability in [0, 1]");
}

}  // namespace cnt
