#pragma once
// Messages: an envelope plus an owned payload, stored contiguously in wire
// format ([80-byte header][payload]) so machine layers can move real bytes.
//
// Allocation: the wire image comes from util::BufferPool (recycled by size
// class) and the Message object + shared_ptr control block are co-located in
// one pooled block via allocate_shared — a steady-state send allocates
// nothing. A marshalled send adopts its Packer's block as the wire image
// (adopt()), so the payload is written once, by the packer, and never
// copied into the message. Payload bytes of makeUninit/makeLanding buffers
// are deliberately left uninitialized: every caller overwrites them
// (make()'s memcpy, the rendezvous RDMA landing, DCMF's receive memcpy), so
// zero-filling them was pure waste on the critical path.
//
// A machine layer may read the wire image in place until delivery (the
// rendezvous RDMA write pins it), so a sent message's bytes must not change
// while the transport holds it.

#include <cstddef>
#include <memory>
#include <span>

#include "charm/envelope.hpp"
#include "charm/marshal.hpp"
#include "util/pool.hpp"

namespace ckd::charm {

class Message;
/// Messages travel through engine events, whose closures may be cloned by
/// the fault injector's duplicate path — hence shared_ptr ownership.
using MessagePtr = std::shared_ptr<Message>;

class Message {
 public:
  /// Build a message with the given envelope and payload copied in.
  static MessagePtr make(const Envelope& env,
                         std::span<const std::byte> payload);

  /// Build a message whose wire image is the packer's block (the payload
  /// already sits behind the header room); the packer is left empty.
  static MessagePtr adopt(const Envelope& env, Packer&& packer);

  /// Build a message with an uninitialized payload of `bytes` (machine
  /// layers fill it in place, e.g. the rendezvous landing buffer).
  static MessagePtr makeUninit(const Envelope& env, std::size_t bytes);

  /// Build a bare landing buffer of `wireBytes` whose header bytes arrive
  /// with the data (DCMF normal-message receives land the full wire image
  /// in place). env() is meaningless until adoptHeader() parses it.
  static MessagePtr makeLanding(std::size_t wireBytes);

  /// Parse env() out of wire bytes written in place by a machine layer
  /// (validates the header like fromWire does).
  void adoptHeader();

  /// Re-parse a message from raw wire bytes (header + payload).
  static MessagePtr fromWire(std::span<const std::byte> wire);

  const Envelope& env() const { return env_; }
  Envelope& env() { return env_; }

  std::span<const std::byte> payload() const;
  std::span<std::byte> payload();
  std::size_t payloadBytes() const { return env_.payloadBytes; }

  /// Full wire image (header + payload); header bytes are synced from env().
  std::span<const std::byte> wire() const { return {wire_.data(), wire_.size()}; }
  std::span<std::byte> wireMutable() { return {wire_.data(), wire_.size()}; }
  /// Bytes this message occupies on the wire via the default message path.
  std::size_t wireBytes() const { return wire_.size(); }

  /// Copy env_ into the wire header bytes (call before handing raw bytes to
  /// a machine layer).
  void sealHeader();

  /// allocate_shared needs a public constructor; the tag keeps make*() the
  /// only way to build one.
  struct Private {};
  explicit Message(Private) {}

 private:
  static MessagePtr alloc();

  Envelope env_;
  util::PooledBuffer wire_;
};

}  // namespace ckd::charm
