#include "charm/message.hpp"

#include <cstring>
#include <utility>

#include "util/require.hpp"

namespace ckd::charm {

MessagePtr Message::alloc() {
  // Message + control block in one pooled allocation.
  return std::allocate_shared<Message>(util::PoolAllocator<Message>{},
                                       Private{});
}

MessagePtr Message::make(const Envelope& env,
                         std::span<const std::byte> payload) {
  auto msg = makeUninit(env, payload.size());
  if (!payload.empty())
    std::memcpy(msg->wire_.data() + kWireHeaderBytes, payload.data(),
                payload.size());
  return msg;
}

MessagePtr Message::adopt(const Envelope& env, Packer&& packer) {
  MessagePtr msg = alloc();
  msg->env_ = env;
  msg->env_.payloadBytes = static_cast<std::uint32_t>(packer.size());
  msg->wire_ = std::move(packer).takeWire();
  msg->sealHeader();
  return msg;
}

MessagePtr Message::makeUninit(const Envelope& env, std::size_t bytes) {
  MessagePtr msg = alloc();
  msg->env_ = env;
  msg->env_.payloadBytes = static_cast<std::uint32_t>(bytes);
  msg->wire_ = util::PooledBuffer(kWireHeaderBytes + bytes);
  // sealHeader initializes the header bytes; the payload region stays
  // uninitialized on purpose (see the header comment).
  msg->sealHeader();
  return msg;
}

MessagePtr Message::makeLanding(std::size_t wireBytes) {
  CKD_REQUIRE(wireBytes >= kWireHeaderBytes,
              "landing buffer smaller than the message header");
  MessagePtr msg = alloc();
  msg->wire_ = util::PooledBuffer(wireBytes);
  return msg;
}

void Message::adoptHeader() {
  CKD_REQUIRE(wire_.size() >= kWireHeaderBytes,
              "wire image smaller than the message header");
  std::memcpy(&env_, wire_.data(), sizeof(Envelope));
  CKD_REQUIRE(env_.magic == Envelope::kMagic, "corrupt message header");
  CKD_REQUIRE(kWireHeaderBytes + env_.payloadBytes == wire_.size(),
              "wire image size disagrees with the header payload size");
}

MessagePtr Message::fromWire(std::span<const std::byte> wire) {
  CKD_REQUIRE(wire.size() >= kWireHeaderBytes,
              "wire image smaller than the message header");
  MessagePtr msg = alloc();
  msg->wire_ = util::PooledBuffer(wire.size());
  std::memcpy(msg->wire_.data(), wire.data(), wire.size());
  msg->adoptHeader();
  return msg;
}

std::span<const std::byte> Message::payload() const {
  return {wire_.data() + kWireHeaderBytes, env_.payloadBytes};
}

std::span<std::byte> Message::payload() {
  return {wire_.data() + kWireHeaderBytes, env_.payloadBytes};
}

void Message::sealHeader() {
  std::memcpy(wire_.data(), &env_, sizeof(Envelope));
  std::memset(wire_.data() + sizeof(Envelope), 0,
              kWireHeaderBytes - sizeof(Envelope));
}

}  // namespace ckd::charm
