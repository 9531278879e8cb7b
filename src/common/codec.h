// Binary serialization for RPC payloads, WAL records and snapshots.
//
// Little-endian fixed-width integers, varint-free (messages are tiny and
// simplicity beats a few bytes), length-prefixed strings. The reader is
// bounds-checked and reports kCorruption instead of crashing on truncated
// or malformed input — WAL tail records after a crash are expected to be
// torn.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sedna {

class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_u16(std::uint16_t v) { put_fixed(v); }
  void put_u32(std::uint32_t v) { put_fixed(v); }
  void put_u64(std::uint64_t v) { put_fixed(v); }
  void put_i64(std::int64_t v) { put_fixed(static_cast<std::uint64_t>(v)); }

  void put_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
  }

  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  void put_bytes_raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  template <typename T, typename Fn>
  void put_vector(const std::vector<T>& items, Fn&& encode_one) {
    put_u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) encode_one(*this, item);
  }

  /// Sparse trailing section over `items`: a u32 count, then (u32 index,
  /// value) pairs for the elements `has` selects; omitted entirely when it
  /// selects none, so readers that predate the section still parse.
  template <typename T, typename Has, typename Fn>
  void put_sparse(const std::vector<T>& items, Has&& has, Fn&& encode_one) {
    std::uint32_t n = 0;
    for (const auto& item : items) n += has(item) ? 1 : 0;
    if (n == 0) return;
    put_u32(n);
    for (std::uint32_t i = 0; i < items.size(); ++i) {
      if (!has(items[i])) continue;
      put_u32(i);
      encode_one(*this, items[i]);
    }
  }

  [[nodiscard]] const std::string& data() const& { return buf_; }
  [[nodiscard]] std::string take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_fixed(T v) {
    char tmp[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(tmp, sizeof(T));
  }

  std::string buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool failed() const { return failed_; }
  /// Lets a decoder reject semantically invalid (not just truncated) data.
  void mark_failed() { failed_ = true; }
  [[nodiscard]] bool exhausted() const { return pos_ >= data_.size(); }
  [[nodiscard]] std::size_t remaining() const {
    return failed_ ? 0 : data_.size() - pos_;
  }

  std::uint8_t get_u8() {
    if (!ensure(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  bool get_bool() { return get_u8() != 0; }

  std::uint16_t get_u16() { return get_fixed<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_fixed<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_fixed<std::uint64_t>(); }
  std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_fixed<std::uint64_t>());
  }

  double get_double() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string get_string() {
    const std::uint32_t n = get_u32();
    if (!ensure(n)) return {};
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  template <typename T, typename Fn>
  std::vector<T> get_vector(Fn&& decode_one) {
    const std::uint32_t n = get_u32();
    std::vector<T> items;
    // Guard against corrupted counts: each element needs >= 1 byte.
    if (failed_ || n > remaining()) {
      failed_ = true;
      return items;
    }
    items.reserve(n);
    for (std::uint32_t i = 0; i < n && !failed_; ++i) {
      items.push_back(decode_one(*this));
    }
    return items;
  }

  /// Reads a put_sparse section if any bytes remain: `decode_one(reader,
  /// element)` fills the indexed element. An index past the end fails.
  template <typename T, typename Fn>
  void get_sparse(std::vector<T>& items, Fn&& decode_one) {
    if (failed_ || exhausted()) return;
    const std::uint32_t n = get_u32();
    for (std::uint32_t i = 0; i < n && !failed_; ++i) {
      const std::uint32_t idx = get_u32();
      if (idx >= items.size()) failed_ = true;
      if (!failed_) decode_one(*this, items[idx]);
    }
  }

  [[nodiscard]] Status status() const {
    return failed_ ? Status::Corruption("truncated or malformed buffer")
                   : Status::Ok();
  }

 private:
  bool ensure(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  template <typename T>
  T get_fixed() {
    if (!ensure(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace sedna
