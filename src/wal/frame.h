// Record framing shared by the write-ahead log and snapshots:
//
//   u32 payload_length | u32 crc32(payload) | payload   (little-endian)
//
// A frame is intact when its header and payload are complete, its length
// is in (0, kMaxFramePayload] and the CRC matches. Readers stop at the
// first frame that is not: the state a crash mid-append leaves behind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "common/codec.h"
#include "common/crc32.h"

namespace sedna::wal {

inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Cap on one frame's payload: a corrupt length must not OOM the reader.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Appends one frame holding `payload`; false on a short write.
inline bool write_frame(std::FILE* f, std::string_view payload) {
  BinaryWriter frame(kFrameHeaderBytes + payload.size());
  frame.put_u32(static_cast<std::uint32_t>(payload.size()));
  frame.put_u32(crc32(payload));
  frame.put_bytes_raw(payload);
  const std::string& bytes = frame.data();
  return std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
}

/// The payload of the frame at `f`'s position; nullopt at the end of the
/// file or at a torn or corrupt frame. An intact frame occupies
/// kFrameHeaderBytes + payload size bytes of the file.
inline std::optional<std::string> read_frame(std::FILE* f) {
  unsigned char header[kFrameHeaderBytes];
  if (std::fread(header, 1, sizeof header, f) != sizeof header) {
    return std::nullopt;
  }
  std::uint32_t len = 0;
  std::uint32_t expected_crc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    expected_crc |= static_cast<std::uint32_t>(header[4 + i]) << (8 * i);
  }
  if (len == 0 || len > kMaxFramePayload) return std::nullopt;
  std::string payload(len, '\0');
  if (std::fread(payload.data(), 1, len, f) != len) return std::nullopt;
  if (crc32(payload) != expected_crc) return std::nullopt;
  return payload;
}

}  // namespace sedna::wal
