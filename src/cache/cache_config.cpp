#include "cache/cache_config.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"

namespace cnt {

const char* to_string(WritePolicy p) noexcept {
  return p == WritePolicy::kWriteBack ? "write-back" : "write-through";
}

const char* to_string(AllocPolicy p) noexcept {
  return p == AllocPolicy::kWriteAllocate ? "write-allocate"
                                          : "no-write-allocate";
}

const char* to_string(ReplKind k) noexcept {
  switch (k) {
    case ReplKind::kLru: return "LRU";
    case ReplKind::kFifo: return "FIFO";
    case ReplKind::kRandom: return "random";
    case ReplKind::kTreePlru: return "tree-PLRU";
  }
  return "?";
}

u32 CacheConfig::offset_bits() const noexcept {
  return log2_exact(line_bytes);
}

u32 CacheConfig::set_bits() const noexcept { return log2_exact(sets()); }

u32 CacheConfig::tag_bits() const noexcept {
  return addr_bits - set_bits() - offset_bits();
}

u32 CacheConfig::set_index(u64 addr) const noexcept {
  return static_cast<u32>((addr >> offset_bits()) & (sets() - 1));
}

u64 CacheConfig::tag_of(u64 addr) const noexcept {
  return addr >> (offset_bits() + set_bits());
}

u64 CacheConfig::addr_of(u64 tag, u32 set) const noexcept {
  return (tag << (offset_bits() + set_bits())) |
         (static_cast<u64>(set) << offset_bits());
}

void CacheConfig::validate() const {
  const auto refuse = [this](const char* what) {
    throw ValueError(Errc::kRange, name + ": " + what);
  };
  if (line_bytes < 8 || !is_pow2(line_bytes)) {
    refuse("line_bytes must be a power of two >= 8");
  }
  if (ways == 0) refuse("ways must be > 0");
  // ways > size / line also keeps ways * line_bytes from wrapping.
  if (size_bytes == 0 || ways > size_bytes / line_bytes ||
      size_bytes % (ways * line_bytes) != 0) {
    refuse("size must be a multiple of ways*line_bytes");
  }
  if (!is_pow2(sets())) refuse("set count must be a power of two");
  if (addr_bits < offset_bits() + set_bits() + 1 || addr_bits > 64) {
    refuse("addr_bits out of range");
  }
  if (replacement == ReplKind::kTreePlru && !is_pow2(ways)) {
    refuse("tree-PLRU requires power-of-two ways");
  }
}

ArrayGeometry geometry_of(const CacheConfig& cfg) {
  ArrayGeometry g;
  g.sets = cfg.sets();
  g.ways = cfg.ways;
  g.line_bytes = cfg.line_bytes;
  g.tag_bits = cfg.tag_bits();
  g.meta_bits = 0;
  g.state_bits = 2;
  return g;
}

}  // namespace cnt
