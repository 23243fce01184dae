// libFuzzer harness for the replication wire surface — the exact bytes a
// hostile or fault-corrupted link delivers. Two stages:
//
// 1. FrameDecoder must classify any byte stream as frames / need-more /
//    Corruption without crashing, over-allocating on fuzzed lengths, or
//    mis-parsing a typed payload; the typed Decode()s are fuzzed on both raw
//    input and decoded frame payloads (version skew, truncated strings,
//    trailing garbage).
//
// 2. Session confusion: frames from several spoofed sessions (mixed tenants,
//    duplicate identities, raw garbage) interleave against ONE receiver
//    through socket-free SessionDrivers. A poisoned session must stay
//    poisoned, must never take down the process, and must leave the receiver
//    healthy enough that a fresh well-formed session still completes a
//    HELLO + CHUNK + ACK round afterwards.
//
// Build: cmake -DEXSTREAM_BUILD_FUZZERS=ON with Clang; see fuzz/CMakeLists.txt.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "archive/serialization.h"
#include "event/registry.h"
#include "net/frame.h"
#include "net/replication_receiver.h"
#include "xstream/system.h"
#include "xstream/tenant_hub.h"

namespace {

std::string HelloBytes(const std::string& tenant, const std::string& node,
                       uint64_t floor_seq) {
  exstream::HelloFrame hello;
  hello.tenant = tenant;
  hello.node_id = node;
  hello.floor_seq = floor_seq;
  return exstream::EncodeFrame(exstream::FrameType::kHello, hello.Encode());
}

std::string EmptyChunkBytes(uint64_t chunk_id, uint64_t first_seq) {
  exstream::ChunkFrame f;
  f.chunk_id = chunk_id;
  f.first_seq = first_seq;
  f.event_count = 0;
  f.events = exstream::SerializeEvents({});
  return exstream::EncodeFrame(exstream::FrameType::kChunk, f.Encode());
}

void FuzzDecoder(std::string_view buf, const uint8_t* data, size_t size) {
  // Incremental delivery: split the input at a fuzzer-chosen point so frames
  // straddle Feed() boundaries (the recv-loop reality).
  exstream::FrameDecoder decoder;
  const size_t split = size > 0 ? data[0] % (size + 1) : 0;
  decoder.Feed(buf.substr(0, split));
  for (;;) {
    auto frame = decoder.Next();
    if (!frame.ok() || !frame->has_value()) break;
    const std::string& payload = (*frame)->payload;
    exstream::HelloFrame::Decode(payload).ok();
    exstream::HelloAckFrame::Decode(payload).ok();
    exstream::ChunkFrame::Decode(payload).ok();
    exstream::WalTailFrame::Decode(payload).ok();
    exstream::AckFrame::Decode(payload).ok();
  }
  if (!decoder.poisoned()) {
    decoder.Feed(buf.substr(split));
    for (;;) {
      auto frame = decoder.Next();
      if (!frame.ok() || !frame->has_value()) break;
    }
  }

  // The typed decoders must also survive the raw input as a payload.
  exstream::HelloFrame::Decode(buf).ok();
  exstream::HelloAckFrame::Decode(buf).ok();
  exstream::ChunkFrame::Decode(buf).ok();
  exstream::WalTailFrame::Decode(buf).ok();
  exstream::AckFrame::Decode(buf).ok();
}

void FuzzMultiSessionReceiver(const uint8_t* data, size_t size) {
  using exstream::ReplicationReceiver;

  exstream::EventTypeRegistry registry;
  exstream::XStreamConfig cfg;
  exstream::XStreamSystem sys0(&registry, cfg);
  exstream::XStreamSystem sys1(&registry, cfg);
  exstream::TenantHub hub;
  if (!hub.AddTenant("t0", &sys0).ok()) __builtin_trap();
  if (!hub.AddTenant("t1", &sys1).ok()) __builtin_trap();

  exstream::ReplicationReceiverOptions opts;
  ReplicationReceiver receiver(&hub, opts);

  constexpr size_t kDrivers = 3;
  std::vector<std::unique_ptr<ReplicationReceiver::SessionDriver>> drivers;
  for (size_t i = 0; i < kDrivers; ++i) {
    drivers.push_back(
        std::make_unique<ReplicationReceiver::SessionDriver>(&receiver));
  }
  bool was_ended[kDrivers] = {false, false, false};

  // Byte-coded action stream: each step picks a driver and one of four frame
  // shapes; raw-garbage steps splice unmodified fuzz bytes into that
  // session's byte stream. Bounded so a long input cannot stall the run.
  size_t pos = 0;
  auto take = [&]() -> uint8_t { return pos < size ? data[pos++] : 0; };
  constexpr int kMaxSteps = 64;
  for (int step = 0; step < kMaxSteps && pos < size; ++step) {
    const uint8_t op = take();
    const size_t idx = op % kDrivers;
    ReplicationReceiver::SessionDriver& d = *drivers[idx];

    std::string bytes;
    switch ((op / kDrivers) % 4) {
      case 0: {  // HELLO — mixed tenants, colliding node ids across drivers
        const uint8_t sel = take();
        const std::string tenant = (sel & 1) ? "t1" : "t0";
        const std::string node = (sel & 2) ? "nA" : "nB";
        bytes = HelloBytes(tenant, node, static_cast<uint64_t>(take()) * 64);
        break;
      }
      case 1:  // empty CHUNK at a fuzzer-chosen seq (gap / dedupe / in-order)
        bytes = EmptyChunkBytes(take(), static_cast<uint64_t>(take()) * 16);
        break;
      case 2: {  // raw fuzz bytes straight onto this session's wire
        const size_t n = std::min<size_t>(1 + take() % 64, size - pos);
        bytes.assign(reinterpret_cast<const char*>(data + pos), n);
        pos += n;
        break;
      }
      default: {  // a frame type a child never legitimately sends
        exstream::AckFrame ack;
        ack.ack_seq = take();
        ack.chunk_id = take();
        bytes = exstream::EncodeFrame(exstream::FrameType::kAck, ack.Encode());
        break;
      }
    }

    const bool ok = d.Feed(bytes).ok();
    // A session that ended must stay ended: no later bytes may revive it.
    if (was_ended[idx] && ok) __builtin_trap();
    if (d.ended()) was_ended[idx] = true;
    if (!ok && !d.ended()) __builtin_trap();
  }

  // Whatever the spoofed sessions did, the receiver itself must still serve
  // a fresh well-formed session end to end for BOTH tenants.
  for (const char* tenant : {"t0", "t1"}) {
    ReplicationReceiver::SessionDriver fresh(&receiver);
    if (!fresh.Feed(HelloBytes(tenant, "fresh", 0)).ok()) __builtin_trap();
    exstream::FrameDecoder dec;
    dec.Feed(fresh.out());
    auto frame = dec.Next();
    if (!frame.ok() || !frame->has_value()) __builtin_trap();
    auto helloack = exstream::HelloAckFrame::Decode((*frame)->payload);
    if (!helloack.ok() || !helloack->accepted) __builtin_trap();
    fresh.ClearOut();
    if (!fresh.Feed(EmptyChunkBytes(1, helloack->resume_seq)).ok()) {
      __builtin_trap();
    }
    if (fresh.out().empty()) __builtin_trap();  // the ACK must come back
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view buf(reinterpret_cast<const char*>(data), size);
  FuzzDecoder(buf, data, size);
  FuzzMultiSessionReceiver(data, size);
  return 0;
}
