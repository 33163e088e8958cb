// Little-endian fixed-width primitives of the binary trace formats, shared
// by the compressed record codec and frame header (binary_stream.cpp) and
// the struct dump (binary.cpp). Internal to the trace library.
//
// Every present integer is stored at its natural C width, as `struct
// traceRecord` would have been dumped on the Cray. Values that do not fit are
// a hard error — one of the practical reasons the study chose
// variable-length text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace craysim::trace::wire {

inline void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v & 0xff));
  out.push_back(static_cast<std::byte>(v >> 8));
}

inline void put_u32(std::vector<std::byte>& out, std::uint64_t v, const char* field) {
  if (v > 0xffffffffull) {
    throw TraceFormatError(std::string("binary format overflow in field ") + field);
  }
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

/// Reads fixed-width fields front to back; throws TraceFormatError("binary
/// trace truncated") when a field runs past the end.
class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> data) : data_(data) {}

  std::uint16_t u16() {
    require(2);
    const auto v = static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_]) |
                                              (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::size_t consumed() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) {
    if (pos_ + n > data_.size()) throw TraceFormatError("binary trace truncated");
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace craysim::trace::wire
