#pragma once
// Parameter marshalling for entry methods: a Packer that serializes
// trivially copyable values and spans into a payload, and an Unpacker that
// reads them back in order. Both are bounds-checked.
//
// A Packer marshals in place: it writes into a util::BufferPool block that
// keeps kWireHeaderBytes of room at its front, so sending it
// (ElementRef::send / ArrayProxy::broadcast with std::move(packer)) hands
// the block to the message as its wire image (Message::adopt) without
// copying the payload again. Blocks grow through the pool's power-of-two
// size classes and geometrically past BufferPool::kMaxPooledBytes, so large
// PUP and checkpoint images stay linear-time.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "charm/envelope.hpp"
#include "util/pool.hpp"
#include "util/require.hpp"

namespace ckd::charm {

class Packer {
 public:
  Packer() = default;
  /// Move-only, like its block; a moved-from packer is empty.
  Packer(Packer&& other) noexcept
      : block_(std::move(other.block_)), size_(std::exchange(other.size_, 0)) {}
  Packer& operator=(Packer&& other) noexcept {
    block_ = std::move(other.block_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  template <typename T>
  Packer& put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "marshalled values must be trivially copyable");
    append(&value, sizeof(T));
    return *this;
  }

  /// Writes the element count followed by the raw elements, so the reader
  /// can size its destination.
  template <typename T>
  Packer& putSpan(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "marshalled spans must hold trivially copyable elements");
    put<std::uint64_t>(values.size());
    if (!values.empty()) append(values.data(), values.size_bytes());
    return *this;
  }

  template <typename T>
  Packer& putVector(const std::vector<T>& values) {
    return putSpan(std::span<const T>(values));
  }

  std::span<const std::byte> bytes() const {
    if (size_ == 0) return {};
    return {block_.data() + kWireHeaderBytes, size_};
  }
  std::size_t size() const { return size_; }

  /// Hand over the block as a wire image: [kWireHeaderBytes of header room]
  /// [payload], sized exactly. Leaves the packer empty.
  util::PooledBuffer takeWire() && {
    if (block_.empty()) return util::PooledBuffer(kWireHeaderBytes);
    block_.truncate(kWireHeaderBytes + size_);
    size_ = 0;
    return std::move(block_);
  }

 private:
  void append(const void* data, std::size_t n) {
    const std::size_t need = kWireHeaderBytes + size_ + n;
    if (need > block_.size()) grow(need);
    std::memcpy(block_.data() + kWireHeaderBytes + size_, data, n);
    size_ += n;
  }
  /// Move to a block of at least `need` bytes: the next size class, or twice
  /// the current capacity, whichever is larger. The capacity therefore stays
  /// the size class of the payload image, which takeWire relies on.
  void grow(std::size_t need) {
    util::PooledBuffer bigger(util::BufferPool::classCapacity(
        std::max(need, 2 * block_.size())));
    if (size_ > 0)
      std::memcpy(bigger.data() + kWireHeaderBytes,
                  block_.data() + kWireHeaderBytes, size_);
    block_ = std::move(bigger);
  }

  util::PooledBuffer block_;  ///< size() is the capacity
  std::size_t size_ = 0;      ///< payload bytes written
};

class Unpacker {
 public:
  explicit Unpacker(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "marshalled values must be trivially copyable");
    CKD_REQUIRE(offset_ + sizeof(T) <= bytes_.size(),
                "unpacker ran past the end of the payload");
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  /// Zero-copy view of a span written by Packer::putSpan.
  template <typename T>
  std::span<const T> getSpan() {
    const auto count = static_cast<std::size_t>(get<std::uint64_t>());
    const std::size_t byteCount = count * sizeof(T);
    CKD_REQUIRE(offset_ + byteCount <= bytes_.size(),
                "span extends past the end of the payload");
    const auto* data = reinterpret_cast<const T*>(bytes_.data() + offset_);
    offset_ += byteCount;
    return {data, count};
  }

  template <typename T>
  std::vector<T> getVector() {
    const auto view = getSpan<T>();
    return std::vector<T>(view.begin(), view.end());
  }

  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool empty() const { return remaining() == 0; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace ckd::charm
