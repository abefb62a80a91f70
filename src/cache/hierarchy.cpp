#include "cache/hierarchy.hpp"

#include <stdexcept>
#include <string>

namespace cnt {

HierarchyConfig HierarchyConfig::typical() {
  HierarchyConfig h;
  h.l1d.name = "L1D";
  h.l1d.size_bytes = 32 * 1024;
  h.l1d.ways = 4;
  h.l1d.line_bytes = 64;

  h.l1i.name = "L1I";
  h.l1i.size_bytes = 32 * 1024;
  h.l1i.ways = 4;
  h.l1i.line_bytes = 64;

  h.l2.name = "L2";
  h.l2.size_bytes = 256 * 1024;
  h.l2.ways = 8;
  h.l2.line_bytes = 64;
  return h;
}

Hierarchy::Hierarchy(HierarchyConfig cfg, MainMemory& memory)
    : cfg_(std::move(cfg)), memory_(memory) {
  MemoryLevel* below = &memory_;
  if (cfg_.enable_l2) {
    // An L1 fill copies one L2 line into one L1 line buffer, so lines of
    // different sizes would overrun or under-fill it.
    for (const CacheConfig* l1 : {&cfg_.l1d, &cfg_.l1i}) {
      if (l1->line_bytes != cfg_.l2.line_bytes) {
        throw std::invalid_argument(
            l1->name + ": line_bytes " + std::to_string(l1->line_bytes) +
            " differs from " + cfg_.l2.name + "'s " +
            std::to_string(cfg_.l2.line_bytes) +
            " (uniform line size across levels required)");
      }
    }
    l2_ = std::make_unique<Cache>(cfg_.l2, memory_);
    below = l2_.get();
  }
  l1d_ = std::make_unique<Cache>(cfg_.l1d, *below);
  l1i_ = std::make_unique<Cache>(cfg_.l1i, *below);
}

void Hierarchy::access(const MemAccess& a) {
  if (a.op == MemOp::kIFetch) {
    l1i_->access(a);
  } else {
    l1d_->access(a);
  }
}

// The hierarchy replay loop (sim/runner.cpp hands it one batch per call).
// cnt-hot
void Hierarchy::run(std::span<const MemAccess> accesses) {
  for (const auto& a : accesses) access(a);
}

void Hierarchy::flush_all() {
  l1d_->flush();
  l1i_->flush();
  if (l2_) l2_->flush();
}

}  // namespace cnt
