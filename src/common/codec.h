// Binary serialization for RPC payloads, WAL records and snapshots.
//
// Little-endian fixed-width integers, varint-free (messages are tiny and
// simplicity beats a few bytes), length-prefixed strings. The reader is
// bounds-checked and reports kCorruption instead of crashing on truncated
// or malformed input — WAL tail records after a crash are expected to be
// torn.
//
// Every wire type declares its layout once:
//
//   static void wire(auto& io, auto& m) { io(m.a, m.b, ...); }
//
// and BinaryWriter, BinaryReader and WireSizer all walk that one list.
// The C++ type of each field picks its encoding:
//   * bool and 1-byte integers take 1 byte; other integers and enums are
//     fixed-width little-endian (an enum by its underlying type);
//   * std::string and std::vector take a u32 count, then the bytes or
//     the elements;
//   * std::pair and nested wire types write their members in order.
// A count larger than the bytes that remain is corruption, never an
// allocation.
//
// Trailing sections: io.tail(present, fields...) writes the fields only
// when `present` (the section carries state) and reads them only when
// bytes remain. Messages without that state therefore keep their exact
// legacy bytes — the simulated network charges delay by payload size, so
// an unconditional field would shift every seeded run. When `present` is
// a bool field, the reader sets it to whether the section was there.
// io.sparse(items, &T::a, &T::b, ...) writes index-addressed trailing
// sections, one per field in order: a u32 count of the items whose field
// carries state, then (u32 index, field) pairs. Sections left without
// state at the end are omitted, so adding a field keeps the bytes of
// every message that does not use it.
// io.check(ok) states a message-specific validity rule: a false `ok` fails
// the reader; encoders ignore it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sedna {

template <typename Sink>
class BasicWriter;
/// Counts bytes instead of storing them: the sizing pass of wire_encode.
struct ByteCounter {
  std::size_t n = 0;
  void push_back(char) { ++n; }
  void append(const char*, std::size_t k) { n += k; }
  [[nodiscard]] std::size_t size() const { return n; }
};
using BinaryWriter = BasicWriter<std::string>;
using WireSizer = BasicWriter<ByteCounter>;

/// A type that declares its layout with `static void wire(io, m)`.
template <typename T>
concept WireType = requires(WireSizer& io, const T& m) { T::wire(io, m); };

namespace wire_detail {
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

/// Whether a sparse-section field carries state.
template <typename F>
bool present(const F& f) {
  if constexpr (std::is_integral_v<F>) {
    return f != 0;
  } else {
    return !f.empty();
  }
}
}  // namespace wire_detail

/// Sets a field only while decoding (`field` is const when encoding).
template <typename T, typename V>
void wire_set(T& field, V&& value) {
  if constexpr (!std::is_const_v<T>) field = std::forward<V>(value);
}

template <typename Sink>
class BasicWriter {
 public:
  BasicWriter() = default;
  explicit BasicWriter(std::size_t reserve) { buf_.reserve(reserve); }

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

  template <typename... Fs>
  void operator()(const Fs&... fields) {
    (put(fields), ...);
  }

  bool tail(bool present, const auto&... fields) {
    if (present) (*this)(fields...);
    return present;
  }

  template <typename T, typename... F>
  void sparse(const std::vector<T>& items, F T::*... fields) {
    std::size_t sections = 0;
    std::size_t k = 0;
    ((++k, sections = present_count(items, fields) != 0 ? k : sections), ...);
    k = 0;
    ((++k <= sections ? sparse_section(items, fields) : void()), ...);
  }

  void check(bool) {}
  /// An encoder has nothing left to read.
  [[nodiscard]] static bool exhausted() { return true; }

  [[nodiscard]] const Sink& data() const& { return buf_; }
  [[nodiscard]] Sink take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (WireType<T>) {
      T::wire(*this, v);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      put_bool(v);
    } else if constexpr (std::is_integral_v<T>) {
      put_fixed(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      put_string(v);
    } else if constexpr (wire_detail::kIsPair<T>) {
      (*this)(v.first, v.second);
    } else {
      static_assert(wire_detail::kIsVector<T>, "no wire encoding for type");
      put_u32(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) put(e);
    }
  }

  template <typename T>
  void put_fixed(T v) {
    char tmp[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(tmp, sizeof(T));
  }

  template <typename T, typename F>
  static std::uint32_t present_count(const std::vector<T>& items,
                                     F T::*field) {
    std::uint32_t n = 0;
    for (const T& item : items) n += wire_detail::present(item.*field);
    return n;
  }

  template <typename T, typename F>
  void sparse_section(const std::vector<T>& items, F T::*field) {
    put_u32(present_count(items, field));
    for (std::uint32_t i = 0; i < items.size(); ++i) {
      if (wire_detail::present(items[i].*field)) (*this)(i, items[i].*field);
    }
  }

  Sink buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool failed() const { return failed_; }
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
    std::string s;
    get(s);
    return s;
  }

  template <typename... Fs>
  void operator()(Fs&... fields) {
    (get(fields), ...);
  }

  template <typename P, typename... Fs>
  bool tail(P&& present, Fs&... fields) {
    const bool here = !failed_ && !exhausted();
    if constexpr (std::is_same_v<P, bool&>) present = here;
    if (here) (*this)(fields...);
    return here;
  }

  /// Fills the indexed elements; an index past the end fails. A section
  /// the buffer ends before is absent.
  template <typename T, typename... F>
  void sparse(std::vector<T>& items, F T::*... fields) {
    (sparse_section(items, fields), ...);
  }

  void check(bool ok) {
    if (!ok) failed_ = true;
  }

  [[nodiscard]] Status status() const {
    return failed_ ? Status::Corruption("truncated or malformed buffer")
                   : Status::Ok();
  }

 private:
  template <typename T, typename F>
  void sparse_section(std::vector<T>& items, F T::*field) {
    if (failed_ || exhausted()) return;
    const std::uint32_t n = count();
    for (std::uint32_t i = 0; i < n && !failed_; ++i) {
      const std::uint32_t idx = get_u32();
      check(idx < items.size());
      if (!failed_) get(items[idx].*field);
    }
  }

  template <typename T>
  void get(T& v) {
    if constexpr (WireType<T>) {
      T::wire(*this, v);
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      get(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, bool>) {
      v = get_bool();
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(get_fixed<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint32_t n = get_u32();
      if (!ensure(n)) return;
      v.assign(data_.data() + pos_, n);
      pos_ += n;
    } else if constexpr (wire_detail::kIsPair<T>) {
      (*this)(v.first, v.second);
    } else {
      static_assert(wire_detail::kIsVector<T>, "no wire decoding for type");
      const std::uint32_t n = count();
      v.clear();
      v.reserve(n);
      for (std::uint32_t i = 0; i < n && !failed_; ++i) get(v.emplace_back());
    }
  }

  /// An element count: each element takes at least one byte, so a count
  /// past the remaining bytes is corruption.
  std::uint32_t count() {
    const std::uint32_t n = get_u32();
    check(n <= remaining());
    return failed_ ? 0 : n;
  }

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

/// T's own declared layout, as a callable.
template <WireType T>
inline constexpr auto wire_layout = [](auto& io, auto& m) { T::wire(io, m); };

/// Encodes `m` by `layout`: a sizing pass, then one exactly-sized buffer.
template <typename T, typename Layout>
std::string wire_encode(const T& m, Layout layout) {
  WireSizer sizer;
  layout(sizer, m);
  BinaryWriter w(sizer.size());
  layout(w, m);
  return std::move(w).take();
}

template <WireType T>
std::string wire_encode(const T& m) {
  return wire_encode(m, wire_layout<T>);
}

/// Decodes `bytes` into `m` by `layout`; false on malformed input.
template <typename T, typename Layout>
bool wire_decode(std::string_view bytes, T& m, Layout layout) {
  BinaryReader r(bytes);
  layout(r, m);
  return !r.failed();
}

template <WireType T>
Result<T> wire_decode(std::string_view bytes, const char* what) {
  T m;
  if (!wire_decode(bytes, m, wire_layout<T>)) return Status::Corruption(what);
  return m;
}

}  // namespace sedna
