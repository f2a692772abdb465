#pragma once
// Typed convenience wrappers over Runtime's array API, playing the role of
// Charm++'s generated proxy classes.

#include <span>
#include <utility>

#include "charm/marshal.hpp"
#include "charm/runtime.hpp"

namespace ckd::charm {

template <class T>
class ElementRef {
 public:
  ElementRef(Runtime& rts, ArrayId array, std::int64_t index)
      : rts_(&rts), array_(array), index_(index) {}

  /// Invoke a registered entry with a raw byte payload.
  void send(EntryId entry, std::span<const std::byte> payload = {}) const {
    rts_->sendToElement(array_, index_, entry, payload);
  }

  /// Invoke a registered entry with a marshalled payload. The packer's
  /// block becomes the message (no copy), so pass it with std::move.
  void send(EntryId entry, Packer&& packer) const {
    rts_->sendPacked(array_, index_, entry, std::move(packer));
  }

  /// Direct object access (tests / co-located setup code).
  T& local() const { return static_cast<T&>(rts_->element(array_, index_)); }

  int homePe() const { return rts_->homePe(array_, index_); }
  std::int64_t index() const { return index_; }

 private:
  Runtime* rts_;
  ArrayId array_;
  std::int64_t index_;
};

template <class T>
class ArrayProxy {
 public:
  ArrayProxy() = default;
  ArrayProxy(Runtime& rts, ArrayId array) : rts_(&rts), array_(array) {}

  ArrayId id() const { return array_; }
  std::int64_t size() const { return rts_->arraySize(array_); }
  Runtime& rts() const { return *rts_; }

  ElementRef<T> operator[](std::int64_t index) const {
    return ElementRef<T>(*rts_, array_, index);
  }

  EntryId registerEntry(const char* name, void (T::*method)(Message&)) const {
    return rts_->registerEntry<T>(array_, name, method);
  }

  void broadcast(EntryId entry, std::span<const std::byte> payload = {}) const {
    rts_->broadcast(array_, entry, payload);
  }
  void broadcast(EntryId entry, Packer&& packer) const {
    rts_->broadcastPacked(array_, entry, std::move(packer));
  }

 private:
  Runtime* rts_ = nullptr;
  ArrayId array_ = kSystemArray;
};

/// Create an array and return its typed proxy in one call.
template <class T, class Factory>
ArrayProxy<T> makeArray(Runtime& rts, std::string name, std::int64_t count,
                        Runtime::MapFn map, Factory factory) {
  const ArrayId id = rts.createArray<T>(
      std::move(name), count, std::move(map),
      [factory = std::move(factory)](std::int64_t i) mutable {
        return factory(i);
      });
  return ArrayProxy<T>(rts, id);
}

}  // namespace ckd::charm
