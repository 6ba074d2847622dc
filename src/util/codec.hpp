// A small binary codec.
//
// Protocol state is serialized through this codec before it reaches the
// simulated stable storage — the paper requires every variable change to
// be "written to a stable storage before responding to the message that
// caused the change" (section 4.4) — and protocol messages are encoded
// through it to account for on-the-wire bytes in the communication
// benchmarks (experiment E4).
//
// Format: little-endian fixed-width integers, LEB128 varints for sizes,
// length-prefixed strings and sequences. Decoding is bounds-checked and
// throws CodecError on malformed input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

/// Thrown when decoding runs off the end of the buffer or reads a value
/// that violates the format (e.g. an oversized length prefix).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only binary writer.
class Encoder {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  /// Unsigned LEB128.
  void put_varint(std::uint64_t v);
  void put_bool(bool v);
  void put_string(std::string_view s);
  void put_process_id(ProcessId p);
  void put_process_set(const ProcessSet& s);

  /// Encodes an optional by a presence byte followed by the payload.
  template <typename T, typename PutFn>
  void put_optional(const std::optional<T>& v, PutFn put) {
    put_bool(v.has_value());
    if (v) put(*v);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

  /// Drops the content but keeps the capacity: a persist-path Encoder can
  /// be reused across writes without re-growing its buffer every time.
  void clear() noexcept { buffer_.clear(); }
  void reserve(std::size_t n) { buffer_.reserve(n); }

  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked binary reader over a borrowed buffer.
class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  std::uint64_t get_varint();
  bool get_bool();
  std::string get_string();
  /// Throws CodecError for ids >= kProcessIdLimit.
  ProcessId get_process_id();
  ProcessSet get_process_set();

  template <typename T, typename GetFn>
  std::optional<T> get_optional(GetFn get) {
    if (!get_bool()) return std::nullopt;
    return get();
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace dynvote
