// Streamed trace subsystem (docs/trace_streaming.md): CNTTRS round trips,
// the TraceSource contract (reset, size_hint, batching), stats/ledger
// equivalence between in-RAM and chunked replay, and golden pins for the
// reader's structured refusals -- torn tails, corrupt chunks, reordered
// chunks and trailing garbage must name what, where and how to fix.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/runner.hpp"
#include "sim/stats_dump.hpp"
#include "trace/gen/server_traffic.hpp"
#include "trace/stream/stream_reader.hpp"
#include "trace/stream/stream_writer.hpp"
#include "trace/stream/trace_source.hpp"
#include "trace/workload_suite.hpp"

namespace cnt {
namespace {

/// A deterministic mixed trace: reads, writes (valued), ifetches, varied
/// sizes, strided and jumping addresses.
Trace mixed_trace(usize n, u64 seed = 42) {
  Trace t("mixed");
  Rng rng(seed);
  u64 addr = 0x10000;
  for (usize i = 0; i < n; ++i) {
    switch (rng.uniform(5)) {
      case 0: t.push(MemAccess::read(addr, 8)); break;
      case 1: t.push(MemAccess::write(addr, rng.next(), 8)); break;
      case 2: t.push(MemAccess::write(addr, rng.uniform(64), 8)); break;
      case 3: t.push(MemAccess::ifetch(addr & ~u64{3}, 4)); break;
      default: t.push(MemAccess::read(addr & ~u64{1}, 2)); break;
    }
    addr = rng.chance(0.25) ? 0x10000 + rng.uniform(1u << 16) * 8 : addr + 8;
  }
  return t;
}

std::string encode(const Trace& t, u32 capacity) {
  std::ostringstream os;
  stream::StreamTraceWriter w(os, capacity);
  for (const auto& a : t) w.push(a);
  w.finish();
  return os.str();
}

void expect_same_accesses(const Trace& want, TraceSource& got) {
  std::vector<MemAccess> buf(37);  // odd batch size crosses chunk edges
  usize k = 0;
  for (;;) {
    const usize n = got.next(buf);
    if (n == 0) break;
    for (usize i = 0; i < n; ++i, ++k) {
      ASSERT_LT(k, want.size());
      EXPECT_EQ(buf[i].addr, want[k].addr) << "record " << k;
      EXPECT_EQ(buf[i].size, want[k].size) << "record " << k;
      EXPECT_EQ(buf[i].op, want[k].op) << "record " << k;
      if (want[k].is_write()) {
        EXPECT_EQ(buf[i].value, want[k].value) << "record " << k;
      }
    }
  }
  EXPECT_EQ(k, want.size());
}

u32 le32(const std::string& s, usize at) {
  u32 v = 0;
  for (usize b = 0; b < 4; ++b) {
    v |= static_cast<u32>(static_cast<u8>(s[at + b])) << (8 * b);  // cnt-lint: narrow-ok LE byte
  }
  return v;
}

void put_le32(std::string& s, usize at, u32 v) {
  for (usize b = 0; b < 4; ++b) {
    s[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);  // LE byte
  }
}

TEST(StreamRoundTrip, MultiChunkIsLossless) {
  const Trace t = mixed_trace(1000);
  const std::string bytes = encode(t, 64);  // forces 16 chunks
  std::istringstream is(bytes);
  stream::StreamTraceSource src(is, "mem");
  EXPECT_EQ(src.chunk_capacity(), 64u);
  expect_same_accesses(t, src);
}

TEST(StreamRoundTrip, SingleRecordAndEmpty) {
  Trace one("one");
  one.push(MemAccess::write(0x40, 7, 8));
  std::istringstream a(encode(one, 16));
  stream::StreamTraceSource sa(a, "one");
  expect_same_accesses(one, sa);

  const Trace none("none");
  std::istringstream b(encode(none, 16));
  stream::StreamTraceSource sb(b, "none");
  MemAccess buf[4];
  EXPECT_EQ(sb.next(buf), 0u);
  EXPECT_EQ(sb.size_hint().value_or(99), 0u);
}

TEST(StreamRoundTrip, SizeHintComesFromFooter) {
  const Trace t = mixed_trace(513);
  std::istringstream is(encode(t, 128));
  stream::StreamTraceSource src(is, "mem");
  ASSERT_TRUE(src.size_hint().has_value());
  EXPECT_EQ(*src.size_hint(), 513u);
}

TEST(StreamRoundTrip, ResetRewindsMidStream) {
  const Trace t = mixed_trace(300);
  std::istringstream is(encode(t, 32));
  stream::StreamTraceSource src(is, "mem");
  MemAccess buf[50];
  ASSERT_EQ(src.next(buf), 50u);  // abandon the stream mid-chunk
  src.reset();
  expect_same_accesses(t, src);
  // A drained stream stays drained until the next reset.
  EXPECT_EQ(src.next(buf), 0u);
  src.reset();
  expect_same_accesses(t, src);
}

TEST(StreamRoundTrip, MaterializeAndStatsMatchTheOriginal) {
  const Trace t = mixed_trace(700);
  std::istringstream is(encode(t, 100));
  stream::StreamTraceSource src(is, "mem");

  const TraceStats streamed = stats_of(src);
  const TraceStats direct = t.stats();
  EXPECT_EQ(streamed.accesses, direct.accesses);
  EXPECT_EQ(streamed.reads, direct.reads);
  EXPECT_EQ(streamed.writes, direct.writes);
  EXPECT_EQ(streamed.ifetches, direct.ifetches);
  EXPECT_EQ(streamed.unique_lines, direct.unique_lines);
  EXPECT_DOUBLE_EQ(streamed.write_bit1_density, direct.write_bit1_density);

  const Trace back = materialize(src);
  ASSERT_EQ(back.size(), t.size());
  VectorTraceSource vs(back);
  expect_same_accesses(t, vs);
}

TEST(StreamRoundTrip, FileRoundTripViaPathConstructors) {
  const Trace t = mixed_trace(400, 9);
  const std::string path = "test_trace_stream_roundtrip.trs";
  {
    stream::StreamTraceWriter w(path, 75);
    for (const auto& a : t) w.push(a);
    w.finish();
    EXPECT_EQ(w.records(), 400u);
    EXPECT_EQ(w.chunks(), 6u);
  }
  stream::StreamTraceSource src(path);
  EXPECT_EQ(src.name(), path);
  expect_same_accesses(t, src);
  (void)std::remove(path.c_str());
}

TEST(VectorSource, BatchesAndOwnership) {
  const Trace t = mixed_trace(10);
  VectorTraceSource borrowed(t);
  EXPECT_EQ(borrowed.size_hint().value_or(0), 10u);
  expect_same_accesses(t, borrowed);

  VectorTraceSource owning(mixed_trace(10));
  expect_same_accesses(t, owning);  // same seed, same accesses
  EXPECT_EQ(owning.name(), "mixed");
}

/// Replay `in_ram` and the .trs bytes `trs` (the same accesses) and
/// expect the same energy JSON, workload label aside.
void expect_same_ledger(TraceSource& in_ram, const std::string& trs,
                        std::span<const MemorySegment> init) {
  SimConfig cfg;
  cfg.with_cmos = false;
  SimResult a = simulate(in_ram, init, cfg);
  std::istringstream is(trs);
  stream::StreamTraceSource src(is, "streamed");
  SimResult b = simulate(src, init, cfg);

  a.workload = b.workload = "replay";
  std::ostringstream ja, jb;
  dump_json(a, ja);
  dump_json(b, jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(StreamReplay, LedgerIsByteIdenticalToInRamReplay) {
  // Streaming must be a pure I/O change: the same accesses with the same
  // init image must render the exact same energy JSON either way.
  const Workload w = build_workload("zipf_kv", 0.05);
  VectorTraceSource suite(w.trace);
  expect_same_ledger(suite, encode(w.trace, 512), w.init);

  // Server traffic, generated twice: once collected in RAM and once
  // written straight to .trs, spanning many chunks.
  gen::ServerTrafficParams p;
  p.ops = 4000;
  Trace collected("srv");
  TraceCollector collect(collected);
  (void)gen::generate_server_traffic(p, collect);
  std::ostringstream os;
  stream::StreamTraceWriter writer(os, 512);
  (void)gen::generate_server_traffic(p, writer);
  writer.finish();
  EXPECT_GT(writer.chunks(), 10u);
  VectorTraceSource srv(collected);
  expect_same_ledger(srv, os.str(), {});
}

// --- golden refusals -------------------------------------------------------

template <typename Fn>
ErrorInfo expect_refusal(const std::string& bytes, Fn check) {
  std::istringstream is(bytes);
  try {
    stream::StreamTraceSource src(is, "t.trs");
    MemAccess buf[64];
    while (src.next(buf) != 0) {
    }
  } catch (const Error& e) {
    check(e.info());
    return e.info();
  }
  ADD_FAILURE() << "reader accepted a corrupt file";
  return {};
}

TEST(StreamGolden, WrongMagicNamesBothFormats) {
  std::string bytes = encode(mixed_trace(5), 8);
  bytes[0] = 'X';
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kMagic);
    EXPECT_NE(e.message.find("not a CNT streamed trace"), std::string::npos);
    EXPECT_NE(e.message.find("expected 'CNTTRS'"), std::string::npos);
    EXPECT_EQ(e.source, "t.trs");
    EXPECT_NE(e.hint.find("CNTTRC"), std::string::npos)
        << "hint should point at the monolithic loader for CNTTRC files";
  });
}

TEST(StreamGolden, WrongVersionSaysWhichBuildReads) {
  std::string bytes = encode(mixed_trace(5), 8);
  bytes[6] = '9';
  bytes[7] = '9';
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kVersion);
    EXPECT_EQ(e.message,
              "unsupported streamed-trace version '99' (this build reads "
              "version 01)");
  });
}

TEST(StreamGolden, ZeroAndOversizedCapacityAreRefused) {
  std::string bytes = encode(mixed_trace(5), 8);
  put_le32(bytes, 8, 0);
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kRange);
    EXPECT_EQ(e.message, "header declares a zero chunk capacity");
  });
  put_le32(bytes, 8, stream::kMaxChunkCapacity + 1);
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kLimit);
    EXPECT_NE(e.message.find("chunk capacity"), std::string::npos);
  });
}

TEST(StreamGolden, TornTailIsRefusedBeforeReplay) {
  const std::string whole = encode(mixed_trace(50), 8);
  const std::string torn = whole.substr(0, whole.size() - 3);
  expect_refusal(torn, [&](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kTruncated);
    EXPECT_EQ(e.message,
              "file does not end in a sealed footer (torn tail or trailing "
              "bytes)");
    EXPECT_EQ(e.byte, torn.size() - stream::kFooterBytes);
    EXPECT_NE(e.hint.find("re-generate"), std::string::npos);
  });
}

TEST(StreamGolden, BelowMinimumSizeNamesTheFloor) {
  expect_refusal("CNTTRS01", [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kTruncated);
    EXPECT_NE(e.message.find("even an empty streamed trace is 41"),
              std::string::npos);
  });
}

TEST(StreamGolden, CorruptChunkPayloadIsAChecksumRefusal) {
  std::string bytes = encode(mixed_trace(50), 8);
  // Flip one bit a few bytes into the first chunk's payload.
  char& target = bytes[stream::kHeaderBytes + 9 + 2];
  target = static_cast<char>(static_cast<u8>(target) ^ 0x10);  // cnt-lint: narrow-ok byte flip
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kChecksum);
    EXPECT_NE(e.message.find("chunk 0 checksum mismatch"), std::string::npos);
    EXPECT_EQ(e.byte, u64{stream::kHeaderBytes});
    EXPECT_NE(e.hint.find("refused"), std::string::npos);
  });
}

TEST(StreamGolden, FooterCountMismatchIsDetected) {
  std::string bytes = encode(mixed_trace(20), 8);
  // Patch the footer's record count and re-seal its CRC, so only the
  // sequential count verification can catch the lie.
  const usize body = bytes.size() - stream::kFooterBytes + 1;
  bytes[body] = static_cast<char>(static_cast<u8>(bytes[body]) + 1);  // cnt-lint: narrow-ok byte bump
  put_le32(bytes, bytes.size() - 4,
           crc32(std::string_view(bytes).substr(body, 24)));
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kChecksum);
    EXPECT_NE(e.message.find("footer declares 21 records"), std::string::npos);
    EXPECT_NE(e.message.find("the file contains 20"), std::string::npos);
  });
}

TEST(StreamGolden, ReorderedChunksFailTheFooterDigest) {
  // Two chunks, each individually CRC-valid; swapping them keeps the
  // counts right, so only the footer's chained chunk-CRC digest notices.
  const std::string bytes = encode(mixed_trace(16), 8);
  const usize c1 = stream::kHeaderBytes;
  const usize len1 = 1 + 8 + le32(bytes, c1 + 5) + 4;
  const usize c2 = c1 + len1;
  const usize len2 = 1 + 8 + le32(bytes, c2 + 5) + 4;
  const std::string swapped = bytes.substr(0, c1) +
                              bytes.substr(c2, len2) +
                              bytes.substr(c1, len1) +
                              bytes.substr(c2 + len2);
  ASSERT_EQ(swapped.size(), bytes.size());
  expect_refusal(swapped, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kChecksum);
    EXPECT_EQ(e.message, "footer chunk-CRC digest mismatch");
    EXPECT_NE(e.hint.find("reordered"), std::string::npos);
  });
}

TEST(StreamGolden, TrailingBytesAfterTheFooterAreRefused) {
  std::string bytes = encode(mixed_trace(5), 8);
  bytes.append(3, 'x');
  // On a seekable stream prevalidation sees the tail is not a footer.
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kTruncated);
    EXPECT_NE(e.message.find("torn tail or trailing bytes"),
              std::string::npos);
  });
}

TEST(StreamGolden, MissingFileIsAnIoError) {
  try {
    stream::StreamTraceSource src("does/not/exist.trs");
    FAIL() << "must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.info().code, Errc::kIo);
    EXPECT_EQ(e.info().message, "cannot open streamed trace");
    EXPECT_EQ(e.info().source, "does/not/exist.trs");
  }
}

TEST(StreamLimits, HostilePayloadLengthIsBounded) {
  // A chunk declaring a giant payload must be refused by the per-record
  // bound before any allocation, even though its CRC was never checked.
  std::string bytes = encode(mixed_trace(5), 8);
  put_le32(bytes, stream::kHeaderBytes + 5, u32{64} << 20);
  expect_refusal(bytes, [](const ErrorInfo& e) {
    EXPECT_EQ(e.code, Errc::kLimit);
    EXPECT_NE(e.message.find("payload bytes, above the"), std::string::npos);
  });
}

}  // namespace
}  // namespace cnt
