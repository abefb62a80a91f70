#include "trace/stream/stream_reader.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/cancel.hpp"
#include "trace/stream/varint.hpp"

namespace cnt::stream {

namespace {

u32 get_u32(const char* p) {
  u32 v = 0;
  for (usize b = 0; b < 4; ++b) {
    v |= static_cast<u32>(static_cast<u8>(p[b]))  // cnt-lint: narrow-ok reinterpreting one byte
         << (8 * b);
  }
  return v;
}

u64 get_u64(const char* p) {
  u64 v = 0;
  for (usize b = 0; b < 8; ++b) {
    v |= static_cast<u64>(static_cast<u8>(p[b]))  // cnt-lint: narrow-ok reinterpreting one byte
         << (8 * b);
  }
  return v;
}

std::string printable(const char* bytes, usize n) {
  std::string out;
  for (usize i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    if (std::isprint(c) != 0) {
      out += bytes[i];
    } else {
      constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    }
  }
  return out;
}

}  // namespace

StreamTraceSource::StreamTraceSource(const std::string& path,
                                     const ParseLimits& limits)
    : file_(path, std::ios::in | std::ios::binary),
      is_(&file_),
      name_(path),
      limits_(limits) {
  if (!file_) {
    throw Error(Errc::kIo, "cannot open streamed trace")
        .at(name_)
        .hint("check the path and permissions");
  }
  prevalidate_footer();
  read_header();
}

StreamTraceSource::StreamTraceSource(std::istream& is, std::string name,
                                     const ParseLimits& limits)
    : is_(&is), name_(std::move(name)), limits_(limits) {
  prevalidate_footer();
  read_header();
}

void StreamTraceSource::prevalidate_footer() {
  // On a seekable stream, refuse a torn tail *now* -- before hours of
  // replay -- by checking that the input ends in a sealed footer. The
  // footer also yields size_hint(). Non-seekable streams skip this; the
  // sequential read performs the same checks at end of stream.
  is_->seekg(0, std::ios::end);
  if (!*is_) {
    is_->clear();
    return;
  }
  const auto end = is_->tellg();
  const u64 total = end < 0 ? 0 : static_cast<u64>(end);
  if (total < kHeaderBytes + kFooterBytes) {
    throw Error(Errc::kTruncated,
                "file is " + std::to_string(total) +
                    " bytes; even an empty streamed trace is " +
                    std::to_string(kHeaderBytes + kFooterBytes))
        .at(name_)
        .hint("the writer was interrupted before sealing the footer; "
              "re-generate the trace");
  }
  is_->seekg(static_cast<std::streamoff>(total - kFooterBytes));
  char f[kFooterBytes];
  if (!is_->read(f, sizeof f)) {
    throw Error(Errc::kIo, "cannot read the trailing footer bytes")
        .at(name_)
        .hint("check the file is readable to its end");
  }
  const u32 crc = crc32(std::string_view(f + 1, 24));
  if (static_cast<u8>(f[0]) != kFooterMarker || crc != get_u32(f + 25)) {
    throw Error(Errc::kTruncated,
                "file does not end in a sealed footer (torn tail or "
                "trailing bytes)")
        .at_byte(name_, total - kFooterBytes)
        .hint("a crashed or interrupted writer leaves no footer seal; "
              "re-generate the trace rather than replaying a prefix");
  }
  footer_records_ = get_u64(f + 1);
  is_->seekg(0);
}

void StreamTraceSource::read_header() {
  char header[kHeaderBytes];
  read_exact(header, sizeof header, "the 12-byte header");
  if (std::memcmp(header, kStreamMagic, sizeof kStreamMagic) != 0) {
    throw Error(Errc::kMagic,
                "not a CNT streamed trace (magic is '" +
                    printable(header, sizeof kStreamMagic) +
                    "', expected 'CNTTRS')")
        .at(name_)
        .hint("chunked traces start with the 6-byte magic 'CNTTRS'; "
              "text traces use the .txt extension");
  }
  const char* version = header + sizeof kStreamMagic;
  if (std::memcmp(version, kStreamVersion, sizeof kStreamVersion) != 0) {
    throw Error(Errc::kVersion,
                "unsupported streamed-trace version '" +
                    printable(version, sizeof kStreamVersion) +
                    "' (this build reads version 01)")
        .at(name_)
        .hint("re-generate the trace with this build's tools");
  }
  capacity_ = get_u32(header + 8);
  if (capacity_ == 0) {
    throw Error(Errc::kRange, "header declares a zero chunk capacity")
        .at(name_)
        .hint("capacity is records per chunk and must be positive");
  }
  if (capacity_ > kMaxChunkCapacity) {
    throw Error(Errc::kLimit,
                "header declares a chunk capacity of " +
                    std::to_string(capacity_) + ", above the cap of " +
                    std::to_string(kMaxChunkCapacity))
        .at(name_)
        .hint("a corrupt capacity would otherwise size unbounded decode "
              "buffers; chunks this large also defeat streaming's O(chunk) "
              "memory bound");
  }
  pos_ = kHeaderBytes;
}

void StreamTraceSource::read_exact(char* dst, usize n,
                                   const std::string& what) {
  if (!is_->read(dst, static_cast<std::streamsize>(n))) {
    throw Error(Errc::kTruncated, "input ends inside " + what)
        .at_byte(name_, pos_)
        .hint("the file was cut short; re-copy or re-generate the trace");
  }
}

// cnt-hot per-chunk rather than per-access, but a chunk is <= 4096 records
bool StreamTraceSource::refill() {
  // Cooperative cancellation at the chunk boundary: a watchdog-cancelled
  // job parked on slow I/O (an NFS stall, a delay failpoint downstream)
  // surfaces kCancelled/kTimeout here instead of hanging the sweep.
  cancel::throw_if_cancelled("trs.refill");
  const u64 chunk_start = pos_;
  char marker = 0;
  read_exact(&marker, 1, "a chunk or footer marker");
  pos_ += 1;
  if (static_cast<u8>(marker) == kFooterMarker) {
    parse_footer();
    return false;
  }
  if (static_cast<u8>(marker) != kChunkMarker) {
    throw Error(Errc::kSyntax,
                "bad marker byte '" + printable(&marker, 1) +
                    "' where a chunk or footer was expected")
        .at_byte(name_, chunk_start)
        .hint("the file is corrupt or was concatenated with other data");
  }

  char head[8];
  read_exact(head, sizeof head, "a chunk header");
  pos_ += sizeof head;
  const u32 n = get_u32(head);
  const u32 payload_bytes = get_u32(head + 4);
  if (n == 0 || n > capacity_) {
    throw Error(Errc::kRange,
                "chunk " + std::to_string(chunks_seen_) + " declares " +
                    std::to_string(n) +
                    " records (chunk capacity is " +
                    std::to_string(capacity_) + ")")
        .at_byte(name_, chunk_start)
        .hint("chunks hold 1..capacity records; the length field is "
              "corrupt");
  }
  const u64 payload_cap = std::min<u64>(
      limits_.max_reserve_bytes, u64{n} * kMaxPayloadPerRecord + 16);
  if (payload_bytes > payload_cap) {
    throw Error(Errc::kLimit,
                "chunk " + std::to_string(chunks_seen_) + " declares " +
                    std::to_string(payload_bytes) +
                    " payload bytes, above the " +
                    std::to_string(payload_cap) + "-byte bound for " +
                    std::to_string(n) + " records")
        .at_byte(name_, chunk_start)
        .hint("a corrupt payload length would otherwise drive unbounded "
              "reads");
  }

  std::string& payload = payload_;
  // cnt-lint: hot-ok capacity is reused across chunks; grows O(log) times
  payload.resize(payload_bytes);
  read_exact(payload.data(), payload_bytes, "a chunk payload");
  pos_ += payload_bytes;
  char crc_raw[4];
  read_exact(crc_raw, sizeof crc_raw, "a chunk checksum");
  pos_ += sizeof crc_raw;

  const u32 crc = crc32_final(crc32_feed(
      crc32_feed(crc32_init(), std::string_view(head, sizeof head)), payload));
  if (crc != get_u32(crc_raw)) {
    throw Error(Errc::kChecksum,
                "chunk " + std::to_string(chunks_seen_) +
                    " checksum mismatch (stored " +
                    hex_u32(get_u32(crc_raw)) + ", computed " +
                    hex_u32(crc) + ")")
        .at_byte(name_, chunk_start)
        .hint("the chunk is corrupt; replaying around it would silently "
              "skew every energy figure, so the file is refused");
  }

  // --- decode the three columns ------------------------------------------
  buf_.assign(n, MemAccess{});
  buf_pos_ = 0;
  const std::span<const u8> bytes(
      reinterpret_cast<const u8*>(payload.data()), payload.size());
  ByteReader r(bytes);

  auto malformed = [&](const std::string& what) -> Error {
    return Error(Errc::kSyntax,
                 // cnt-lint: hot-ok error path; runs once, then file is dead
                 "chunk " + std::to_string(chunks_seen_) + ": " + what)
        .at_byte(name_, chunk_start)
        .hint("the chunk passed its CRC but does not decode; this is a "
              "writer bug or a deliberate corruption");
  };

  // Column 1: packed op nibbles.
  u8 pair = 0;
  for (usize i = 0; i < n; ++i) {
    if (i % 2 == 0 && !r.read_u8(pair)) {
      throw malformed("payload ends inside the op column");
    }
    const u8 nib = (i % 2 == 0) ? (pair & 0xf)
                                : static_cast<u8>(pair >> 4);
    const u8 op_raw = nib & 0x3;
    if (op_raw > static_cast<u8>(MemOp::kIFetch)) {
      throw Error(Errc::kRange,
                  "chunk " + std::to_string(chunks_seen_) + " record " +
                      std::to_string(i) + " has op code 3")
          .at_byte(name_, chunk_start)
          .hint("op codes are 0 (read), 1 (write) or 2 (ifetch)");
    }
    buf_[i].op = static_cast<MemOp>(op_raw);
    buf_[i].size = static_cast<u8>(1u << (nib >> 2));  // 1/2/4/8
  }

  // Column 2: addresses (first raw, then zigzag deltas).
  u64 addr = 0;
  for (usize i = 0; i < n; ++i) {
    u64 v = 0;
    if (!r.read_varint(v)) {
      throw malformed("payload ends inside the address column");
    }
    addr = i == 0 ? v : addr + static_cast<u64>(zigzag_decode(v));
    buf_[i].addr = addr;
    if (!buf_[i].valid()) {
      throw Error(Errc::kRange,
                  "chunk " + std::to_string(chunks_seen_) + " record " +
                      std::to_string(i) +
                      " is invalid (size must be 1/2/4/8 and the address "
                      "size-aligned)")
          .at_byte(name_, chunk_start)
          .hint("capture traces with the in-tree tools to get aligned "
                "power-of-two accesses");
    }
  }

  // Column 3: write values as (run_length, value) pairs.
  u64 run_left = 0;
  u64 run_value = 0;
  for (usize i = 0; i < n; ++i) {
    if (buf_[i].op != MemOp::kWrite) continue;
    if (run_left == 0) {
      u64 len = 0;
      if (!r.read_varint(len) || !r.read_varint(run_value)) {
        throw malformed("payload ends inside the value column");
      }
      if (len == 0) throw malformed("zero-length value run");
      run_left = len;
    }
    buf_[i].value = run_value;
    --run_left;
  }
  if (run_left != 0) {
    throw malformed("value run overruns the chunk's writes");
  }
  if (!r.done()) {
    throw malformed(std::to_string(payload.size() - r.pos()) +
                    " trailing payload bytes");
  }

  crc_digest_.update(static_cast<u64>(crc));
  ++chunks_seen_;
  records_seen_ += n;
  return true;
}

void StreamTraceSource::parse_footer() {
  const u64 footer_start = pos_ - 1;
  char body[24];
  read_exact(body, sizeof body, "the footer");
  pos_ += sizeof body;
  char crc_raw[4];
  read_exact(crc_raw, sizeof crc_raw, "the footer checksum");
  pos_ += sizeof crc_raw;
  const u32 crc = crc32(std::string_view(body, sizeof body));
  if (crc != get_u32(crc_raw)) {
    throw Error(Errc::kChecksum, "footer checksum mismatch")
        .at_byte(name_, footer_start)
        .hint("the footer seal is corrupt; re-copy or re-generate the "
              "trace");
  }
  const u64 records = get_u64(body);
  const u64 chunks = get_u64(body + 8);
  const u64 digest = get_u64(body + 16);
  if (records != records_seen_ || chunks != chunks_seen_) {
    throw Error(Errc::kChecksum,
                "footer declares " + std::to_string(records) +
                    " records in " + std::to_string(chunks) +
                    " chunks but the file contains " +
                    std::to_string(records_seen_) + " in " +
                    std::to_string(chunks_seen_))
        .at_byte(name_, footer_start)
        .hint("whole chunks were dropped or duplicated; the file is not "
              "the one the writer sealed");
  }
  if (digest != crc_digest_.digest()) {
    throw Error(Errc::kChecksum, "footer chunk-CRC digest mismatch")
        .at_byte(name_, footer_start)
        .hint("chunks were reordered or substituted; every chunk passes "
              "its own CRC but the sequence differs from the sealed one");
  }
  // Anything after a valid footer is not part of the trace.
  if (is_->peek() != std::char_traits<char>::eof()) {
    throw Error(Errc::kSyntax, "trailing bytes after the sealed footer")
        .at_byte(name_, pos_)
        .hint("the file was appended to after sealing; truncate it to " +
              std::to_string(pos_) + " bytes or re-generate");
  }
  done_ = true;
}

// cnt-hot
usize StreamTraceSource::next(std::span<MemAccess> out) {
  usize written = 0;
  while (written < out.size()) {
    if (buf_pos_ == buf_.size()) {
      if (done_ || !refill()) break;
    }
    const usize n = std::min(out.size() - written, buf_.size() - buf_pos_);
    std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(buf_pos_), n,
                out.begin() + static_cast<std::ptrdiff_t>(written));
    buf_pos_ += n;
    written += n;
  }
  return written;
}

void StreamTraceSource::reset() {
  is_->clear();
  is_->seekg(0);
  if (!*is_) {
    throw Error(Errc::kIo, "cannot rewind streamed trace")
        .at(name_)
        .hint("reset() needs a seekable stream; re-open the file instead");
  }
  pos_ = 0;
  chunks_seen_ = 0;
  records_seen_ = 0;
  crc_digest_ = Fnv1a64{};
  done_ = false;
  buf_.clear();
  buf_pos_ = 0;
  read_header();
}

}  // namespace cnt::stream
