#include "fault/fault_config.hpp"

#include <sstream>
#include <string>

#include "common/error.hpp"

namespace cnt {
namespace {

/// Throw unless lo <= value <= hi (NaN fails every comparison, so it is
/// rejected too).
void require_range(const char* key, double value, double lo, double hi,
                   const char* meaning) {
  if (value >= lo && value <= hi) return;
  std::ostringstream shown;
  shown << value;
  throw ValueError(Errc::kRange, std::string("key '") + key +
                                     "' has out-of-range value '" +
                                     shown.str() + "'")
      .hint(std::string("use ") + meaning);
}

}  // namespace

void FaultConfig::validate() const {
  require_range("fault.stuck_per_mbit", stuck_per_mbit, 0.0, 1024.0 * 1024.0,
                "a stuck-cell density per 2^20 bits in [0, 1048576]");
  require_range("fault.stuck_at1", stuck_at1_fraction, 0.0, 1.0,
                "a fraction in [0, 1]");
  require_range("fault.transient_per_read", transient_per_read, 0.0, 1.0,
                "a per-bit probability in [0, 1]");
}

}  // namespace cnt
