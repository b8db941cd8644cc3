// Fixed-width little-endian wire primitives for the on-disk records the
// harness emits: RunStore cell results (harness/run_store.cc). The layout
// is platform independent so stores filled on hosts of different
// endianness/word size can be merged and shared.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace clusmt {

class ByteWriter {
 public:
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(char(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(char(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  [[nodiscard]] std::string take() && { return std::move(buf_); }
  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked reader over an immutable byte view. Reads past the end
/// latch ok() false and return zero values; callers validate once at the
/// end (plus a checksum) instead of per field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (!take(4)) return 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t(std::uint8_t(data_[pos_ - 4 + i])) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (!take(8)) return 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t(std::uint8_t(data_[pos_ - 8 + i])) << (8 * i);
    }
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (!take(n)) return {};
    return std::string(data_.substr(pos_ - n, n));
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool exhausted() const noexcept {
    return ok_ && pos_ == data_.size();
  }

 private:
  bool take(std::uint64_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace clusmt
