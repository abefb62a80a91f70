// Fault-injection hook: the cache's narrow window into the fault campaign.
//
// The functional cache stays fault-agnostic: when a hook is installed
// (Cache::set_fault_hook) it is invoked at the three points where a real
// array's content and the logical content can diverge -- line fill,
// demand read, and the victim read that feeds a writeback. The hook
// mutates the stored bytes in place, so corruption that the protection
// scheme misses propagates functionally: reads return it, writebacks
// push it down the hierarchy. With no hook installed the cache behaves
// bit-identically to a build without the fault subsystem.
//
// The concrete implementation lives in src/fault (FaultCampaign); this
// interface keeps src/cache free of a dependency on it.
#pragma once

#include <span>

#include "common/access_event.hpp"
#include "common/types.hpp"

namespace cnt {

class LineFaultHook {
 public:
  virtual ~LineFaultHook() = default;

  /// A line was just filled (and possibly partially overwritten by the
  /// demanding store). `stored` is the image the ECC check bits are
  /// computed from; permanent stuck-at cells clamp physically but the
  /// divergence stays latent -- it is observed, counted, and classified
  /// at the next array read.
  virtual void on_fill(u32 set, u32 way, std::span<u8> stored) = 0;

  /// The array is read (demand read hit or victim writeback read):
  /// reassert stuck cells, sample transient flips, run the protection
  /// scheme, and repair `stored` where the scheme corrects or detects
  /// (detection recovers via refetch). Silent flips stay in `stored`. A
  /// read that reports no flip must leave `stored` unchanged: the cache
  /// keeps the line's version (AccessEvent::line_version) across it.
  virtual LineFaultReport on_read(u32 set, u32 way, std::span<u8> stored) = 0;
};

}  // namespace cnt
