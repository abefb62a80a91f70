#include "fault/campaign.hpp"

#include <bit>
#include <cmath>

#include <cassert>

namespace cnt {
namespace {

// Distinct stream constants so the data-array and direction-bit transient
// processes are independent of each other (and of StuckMap placement):
// which policies are attached never changes the data-side fault pattern.
constexpr u64 kDataStuckStream = 0x9E3779B97F4A7C15ull;
constexpr u64 kDirStuckStream = 0xC2B2AE3D27D4EB4Full;
constexpr u64 kDataRngStream = 0x165667B19E3779F9ull;
constexpr u64 kDirRngStream = 0x27D4EB2F165667C5ull;

[[nodiscard]] bool get_bit(std::span<const u8> bytes, usize bit) noexcept {
  return (bytes[bit >> 3] >> (bit & 7)) & 1u;
}

void put_bit(std::span<u8> bytes, usize bit, bool value) noexcept {
  const u8 mask = static_cast<u8>(1u << (bit & 7));
  if (value) {
    bytes[bit >> 3] |= mask;
  } else {
    bytes[bit >> 3] &= static_cast<u8>(~mask);
  }
}

void flip_bit(std::span<u8> bytes, usize bit) noexcept {
  bytes[bit >> 3] ^= static_cast<u8>(1u << (bit & 7));
}

// Relative margin on u_clear. The computed log1p / expm1 / divide are
// each within a few ulps (~1e-15 relative); 2^-42 (~2.3e-13) leaves two
// orders of magnitude of headroom while costing nothing measurable: draws
// inside the margin just take the exact path.
constexpr double kClearMargin = 0x1p-42;

}  // namespace

TransientSampler::TransientSampler(double p, u64 limit) noexcept
    : limit_(limit), always_(p >= 1.0) {
  if (always_) return;
  log1m_p_ = std::log1p(-p);
  // The gap floor(log1p(-u) / log1p(-p)) reaches `limit` exactly when
  // log1p(-u) <= limit * log1p(-p), i.e. u >= -expm1(limit * log1p(-p)).
  // -log1p(-u) is convex with value 0 at u = 0, so raising u by a relative
  // margin raises the quotient by at least that much: past the margin the
  // rounded formula cannot fall back below `limit`.
  const double boundary =
      -std::expm1(static_cast<double>(limit) * log1m_p_);
  u_clear_ = boundary * (1.0 + kClearMargin);
}

// cnt-hot
u64 TransientSampler::skip_for(double u) const noexcept {
  if (always_) return 0;
  if (u >= u_clear_) return limit_;
  // floor(log(1-u) / log(1-p)); both logs are negative. Comparing in
  // double before the cast keeps huge quotients (tiny p) defined.
  const double gap = std::log1p(-u) / log1m_p_;
  return gap < static_cast<double>(limit_) ? static_cast<u64>(gap) : limit_;
}

FaultCampaign::FaultCampaign(const FaultConfig& cfg, usize sets, usize ways,
                             usize line_bytes, usize partitions)
    : cfg_(cfg),
      ways_(ways),
      line_bits_(line_bytes * 8),
      partitions_(partitions),
      part_bits_(partitions > 0 ? line_bytes * 8 / partitions : 0),
      data_stuck_(cfg.seed ^ kDataStuckStream,
                  static_cast<u64>(sets) * ways * line_bytes * 8,
                  cfg.stuck_per_mbit, cfg.stuck_at1_fraction),
      dir_stuck_(cfg.seed ^ kDirStuckStream,
                 static_cast<u64>(sets) * ways * partitions,
                 cfg.stuck_per_mbit, cfg.stuck_at1_fraction),
      data_rng_(cfg.seed ^ kDataRngStream),
      dir_rng_(cfg.seed ^ kDirRngStream),
      data_skip_(cfg.transient_per_read, line_bits_),
      dir_skip_(cfg.transient_per_read, partitions),
      written_dirs_(sets * ways, 0),
      stored_dirs_(sets * ways, 0) {
  assert(partitions <= 64);  // direction mask is a u64
  assert(partitions == 0 || line_bits_ % partitions == 0);
  stats_.stuck_data_cells = data_stuck_.size();
  stats_.stuck_dir_cells = dir_stuck_.size();
}

void FaultCampaign::on_fill(u32 set, u32 way, std::span<u8> stored) {
  // Nothing to mutate: the fill image is the reference the check bits are
  // computed from. Stuck cells clamp physically the moment the line is
  // written, but that divergence is observed -- and classified under the
  // protection scheme -- at the next array read, which reasserts the
  // defect map against this image. Mutating here instead would erase the
  // reference and hide fill-path stuck faults from the ECC entirely.
  (void)set;
  (void)way;
  (void)stored;
}

LineFaultReport FaultCampaign::on_read(u32 set, u32 way,
                                       std::span<u8> stored) {
  LineFaultReport rep;
  flip_scratch_.clear();

  // Reassert permanent defects: a repaired stuck cell reverts on the next
  // fill/write, so each read sees it afresh.
  const u64 base = data_base(set, way);
  data_stuck_.for_range(base, line_bits_, [&](usize off, bool value) {
    if (get_bit(stored, off) != value) {
      put_bit(stored, off, value);
      flip_scratch_.push_back(static_cast<u32>(off));
    }
  });

  // Transient upsets (read disturb / retention loss), exact Bernoulli
  // process over the line's bits (geometric skip sampling: visiting only
  // the flipped bits keeps a read O(#flips) instead of O(line bits)). A
  // flip landing on a stuck cell is physically impossible -- skip it.
  if (cfg_.transient_per_read > 0.0) {
    u64 bit = data_skip_.next(data_rng_);
    while (bit < line_bits_) {
      if (data_stuck_.count_in(base + bit, 1) == 0) {
        flip_bit(stored, static_cast<usize>(bit));
        flip_scratch_.push_back(static_cast<u32>(bit));
        ++stats_.transient_data_flips;
      }
      bit += 1 + data_skip_.next(data_rng_);
    }
  }

  rep.flips = static_cast<u32>(flip_scratch_.size());
  if (rep.flips == 0) return rep;
  ++stats_.faulty_reads;
  classify_data_read(stored, rep);
  return rep;
}

void FaultCampaign::classify_data_read(std::span<u8> stored,
                                       LineFaultReport& rep) {
  const auto repair_all = [&] {
    for (const u32 off : flip_scratch_) flip_bit(stored, off);
  };
  switch (cfg_.protection) {
    case ProtectionScheme::kNone:
      rep.silent = rep.flips;
      stats_.silent_bits += rep.flips;
      break;
    case ProtectionScheme::kSecded:
      switch (classify_secded(rep.flips)) {
        case FaultOutcome::kCorrected:
          repair_all();
          rep.corrected = rep.flips;
          stats_.corrected_bits += rep.flips;
          break;
        case FaultOutcome::kDetected:
          // Uncorrectable but flagged: the controller refetches the line,
          // so the served data is clean; only the event is counted.
          repair_all();
          rep.detected = 1;
          ++stats_.detected_events;
          break;
        case FaultOutcome::kSilent:
          rep.silent = rep.flips;
          stats_.silent_bits += rep.flips;
          break;
        case FaultOutcome::kClean: break;
      }
      break;
    case ProtectionScheme::kParity: {
      // One parity bit per partition group: odd flip counts are detected
      // (recovered by refetch), even counts alias and pass silently.
      assert(part_bits_ > 0);
      u64 odd_parts = 0;  // bitmask of groups with odd flip parity
      for (const u32 off : flip_scratch_) {
        odd_parts ^= 1ull << (off / part_bits_);
      }
      u32 silent = 0;
      for (const u32 off : flip_scratch_) {
        if ((odd_parts >> (off / part_bits_)) & 1ull) {
          flip_bit(stored, off);  // refetch restores detected groups
        } else {
          ++silent;
        }
      }
      const u32 detected =
          static_cast<u32>(std::popcount(odd_parts));
      rep.detected = detected;
      rep.silent = silent;
      stats_.detected_events += detected;
      stats_.silent_bits += silent;
      break;
    }
  }
}

u64 FaultCampaign::apply_dir_stuck(u64 base, u64 dirs) const noexcept {
  dir_stuck_.for_range(base, partitions_, [&](usize off, bool value) {
    const u64 mask = 1ull << off;
    dirs = value ? (dirs | mask) : (dirs & ~mask);
  });
  return dirs;
}

void FaultCampaign::write_directions(u32 set, u32 way, u64 dirs) {
  const u64 li = line_index(set, way);
  written_dirs_[static_cast<usize>(li)] = dirs;
  stored_dirs_[static_cast<usize>(li)] = apply_dir_stuck(dir_base(set, way),
                                                         dirs);
}

FaultCampaign::DirRead FaultCampaign::read_directions(u32 set, u32 way) {
  const u64 li = line_index(set, way);
  const u64 base = dir_base(set, way);
  u64 stored = stored_dirs_[static_cast<usize>(li)];

  // Transient flips over the K direction bits (skipping stuck cells).
  if (cfg_.transient_per_read > 0.0 && partitions_ > 0) {
    u64 bit = dir_skip_.next(dir_rng_);
    while (bit < partitions_) {
      if (dir_stuck_.count_in(base + bit, 1) == 0) {
        stored ^= 1ull << bit;
        ++stats_.transient_dir_flips;
      }
      bit += 1 + dir_skip_.next(dir_rng_);
    }
    stored_dirs_[static_cast<usize>(li)] = stored;
  }

  DirRead out;
  const u64 written = written_dirs_[static_cast<usize>(li)];
  const u32 flips = static_cast<u32>(std::popcount(stored ^ written));
  out.report.flips = flips;
  if (flips == 0) {
    out.effective = stored;
    return out;
  }
  stats_.dir_flips += flips;

  const bool protect =
      cfg_.protect_directions && cfg_.protection != ProtectionScheme::kNone;
  if (!protect) {
    // Decode proceeds with the flipped mask: every flipped bit inverts
    // the read-out of a whole partition. Real SDC.
    out.effective = stored;
    out.report.silent = flips;
    stats_.dir_silent_bits += flips;
    return out;
  }

  const auto recover = [&] {
    // Corrected or detected-and-refetched: the decoder uses the intended
    // mask. Transient damage is scrubbed; stuck cells reassert into the
    // stored copy immediately.
    out.effective = written;
    stored_dirs_[static_cast<usize>(li)] = apply_dir_stuck(base, written);
  };

  if (cfg_.protection == ProtectionScheme::kSecded) {
    switch (classify_secded(flips)) {
      case FaultOutcome::kCorrected:
        recover();
        out.report.corrected = flips;
        stats_.dir_corrected_bits += flips;
        break;
      case FaultOutcome::kDetected:
        recover();
        out.report.detected = 1;
        ++stats_.dir_detected_events;
        break;
      case FaultOutcome::kSilent:
        out.effective = stored;
        out.report.silent = flips;
        stats_.dir_silent_bits += flips;
        break;
      case FaultOutcome::kClean: break;
    }
  } else {
    // Parity groups each direction bit with its partition's data bits, so
    // a lone direction-bit flip makes its group odd: detected (but never
    // corrected) -- one detection event per flipped bit.
    recover();
    out.report.detected = flips;
    stats_.dir_detected_events += flips;
  }
  return out;
}

usize FaultCampaign::stuck_in_line(u32 set, u32 way) const noexcept {
  return data_stuck_.count_in(data_base(set, way), line_bits_);
}

std::pair<u64, u64> FaultCampaign::stuck_directions(u32 set,
                                                    u32 way) const noexcept {
  u64 mask = 0;
  u64 values = 0;
  dir_stuck_.for_range(dir_base(set, way), partitions_,
                       [&](usize off, bool value) {
                         mask |= 1ull << off;
                         if (value) values |= 1ull << off;
                       });
  return {mask, values};
}

}  // namespace cnt
