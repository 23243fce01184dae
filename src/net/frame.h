// Replication wire protocol: the CRC32-framed binary frames exchanged between
// a child node's ReplicationSender and a parent node's ReplicationReceiver.
//
// Every frame on the wire is:
//
//   u32 magic "EXRP", u8 frame type, u32 payload length,
//   u32 CRC32(payload), payload bytes
//
// and the payloads are BytesWriter/BytesReader encodings of the typed structs
// below. The session protocol (see replication_sender.h for the state
// machine):
//
//   child -> parent   HELLO    protocol version, tenant, node id, and the
//                              lowest seq the child can still serve (its WAL
//                              floor) — opens or resumes a session.
//   parent -> child   HELLOACK accepted/rejected + the parent's resume
//                              watermark: the first seq it has NOT durably
//                              applied. The child trims its spool to this.
//   child -> parent   CHUNK    a sealed replication chunk: chunk id, first
//                              seq, event count, and a SerializeEvents v4
//                              payload (the compressed archive spill codec,
//                              verbatim).
//   child -> parent   WALTAIL  the unsealed spool tail, same payload codec —
//                              sent so a parent-side Explain can see events
//                              that have not filled a chunk yet. Never acked;
//                              superseded by the chunk that later covers it.
//   parent -> child   ACK      durable cursor: every event with
//                              seq < ack_seq is applied at the parent, and
//                              chunk_id is the highest chunk id covered.
//
// Delivery semantics built on these frames: chunks at or past the parent's
// watermark apply exactly once (the watermark dedupes replays after a
// reconnect); the WALTAIL overlap region is at-least-once on the wire but the
// same watermark makes it exactly-once in effect.
//
// FrameDecoder is incremental (feed arbitrary byte slices, e.g. straight from
// recv) and is the fuzz surface (fuzz/fuzz_repl_frame.cc): bad magic, bad
// CRC, oversized or truncated lengths, and unknown frame types must all
// surface as Status errors, never as crashes or unbounded allocation.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace exstream {

/// Bumped on incompatible wire changes; HELLO/HELLOACK carry it and a
/// mismatch rejects the session (replication never half-speaks a version).
inline constexpr uint32_t kReplProtocolVersion = 1;

inline constexpr uint32_t kReplFrameMagic = 0x50525845u;  // "EXRP" little-endian

/// Hard cap on one frame's payload; a declared length past this is
/// Corruption, not an allocation. Generous: chunks seal well below 1 MiB.
inline constexpr uint32_t kReplMaxPayloadBytes = 64u << 20;

/// Bytes of framing before the payload (magic + type + length + CRC).
inline constexpr size_t kReplFrameHeaderBytes = 4 + 1 + 4 + 4;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kChunk = 3,
  kWalTail = 4,
  kAck = 5,
};

std::string_view FrameTypeToString(FrameType type);

/// \brief One decoded frame: the type tag plus the CRC-verified payload.
struct Frame {
  FrameType type;
  std::string payload;
};

/// \brief Encodes a complete wire frame (header + CRC + payload).
std::string EncodeFrame(FrameType type, std::string_view payload);

/// \brief Incremental frame parser. Feed() bytes as they arrive; Next()
/// yields completed frames. Any framing violation poisons the decoder — a
/// stream that lied once cannot be trusted to re-synchronize, so the
/// connection must be dropped and re-established.
class FrameDecoder {
 public:
  /// Appends raw bytes from the wire.
  void Feed(std::string_view data);

  /// Returns the next complete frame, std::nullopt when more bytes are
  /// needed, or an error (bad magic / CRC mismatch / oversized length /
  /// unknown type) that permanently poisons the decoder.
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buf_.size() - pos_; }

  bool poisoned() const { return poisoned_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------
// Typed payloads. Each struct round-trips through Encode()/Decode(); Decode
// rejects truncated or trailing-garbage payloads.

struct HelloFrame {
  uint32_t protocol_version = kReplProtocolVersion;
  std::string tenant;
  std::string node_id;
  /// Lowest seq the child can re-serve (its WAL/spool floor). The parent
  /// detects an unrecoverable gap when its watermark is below this.
  uint64_t floor_seq = 0;

  std::string Encode() const;
  static Result<HelloFrame> Decode(std::string_view payload);
};

struct HelloAckFrame {
  uint32_t protocol_version = kReplProtocolVersion;
  bool accepted = false;
  /// First seq the parent has NOT durably applied; the child resumes here.
  uint64_t resume_seq = 0;
  /// Human-readable rejection reason (empty when accepted).
  std::string message;

  std::string Encode() const;
  static Result<HelloAckFrame> Decode(std::string_view payload);
};

struct ChunkFrame {
  uint64_t chunk_id = 0;
  uint64_t first_seq = 0;
  uint32_t event_count = 0;
  /// SerializeEvents(events) — the compressed spill codec, reused verbatim
  /// (v4 for single-type chunks, the v2 row layout for mixed ones).
  std::string events;

  std::string Encode() const;
  static Result<ChunkFrame> Decode(std::string_view payload);
};

struct WalTailFrame {
  uint64_t first_seq = 0;
  uint32_t event_count = 0;
  std::string events;  ///< SerializeEvents, same codec as ChunkFrame

  std::string Encode() const;
  static Result<WalTailFrame> Decode(std::string_view payload);
};

struct AckFrame {
  /// Durable cursor: every event with seq < ack_seq is applied at the parent.
  uint64_t ack_seq = 0;
  /// Highest chunk id covered by ack_seq (0 when none yet).
  uint64_t chunk_id = 0;

  std::string Encode() const;
  static Result<AckFrame> Decode(std::string_view payload);
};

}  // namespace exstream
