// Binary (de)serialization of archive chunks for spill files.

#pragma once

#include <string>
#include <vector>

#include "archive/columns.h"
#include "common/result.h"
#include "event/event.h"

namespace exstream {

/// \brief The spill codec's two layouts.
///
/// v4 ("EXS4"), compressed columnar: u32 magic, u32 row count, u32 event
/// type, u16 column count, then the ts column and one block per attribute
/// column, each length-prefixed and carrying its own CRC32. The ts block is
/// delta-of-delta varints, double streams are Gorilla-style XOR (with exact
/// scaled-integer and raw fallbacks), tags are run-length encoded, and
/// int/string-id/dictionary payloads are varints (archive/compress.h).
/// Columnar buffers deserialize straight into ChunkColumns (no intermediate
/// row pass), and a flipped bit is pinned to the column it corrupted. Chunk
/// files, checkpoint files, and single-type WAL/replication payloads use it.
///
/// v2 ("EXS2"), CRC row payload: u32 magic, u32 count, u32 CRC32(payload),
/// then per event: i64 ts, u32 type, u16 value count, per value: u8 tag +
/// payload (i64 / f64 / u32-length prefixed bytes). Used only for batches
/// that mix event types, which cannot form one chunk.
///
/// Decoders are bounds-checked and fuzzed. Any other magic (including the
/// retired "EXS1" and "EXS3" layouts) is rejected as Corruption.

/// \brief Serializes events: the v4 columnar layout when all events share
/// one type, the v2 row layout otherwise.
std::string SerializeEvents(const std::vector<Event>& events);

/// \brief Parses a buffer produced by SerializeEvents / SerializeColumns.
///
/// Error codes are diagnostic: Truncated when the buffer ends before its
/// declared contents, Corruption for bad magic / checksum mismatch / an
/// impossible header count / bad value tags. Messages carry the byte offset
/// of the failure (and, for v4, the failing column). Header counts are
/// validated against the buffer size before any allocation, so a corrupt
/// count cannot trigger a huge reserve.
Result<std::vector<Event>> DeserializeEvents(std::string_view data);

/// \brief Serializes a chunk's columns in the v4 layout.
std::string SerializeColumns(const ChunkColumns& columns);

/// \brief Parses a v4 buffer into columns; any other layout is Corruption.
Result<ChunkColumns> DeserializeColumns(std::string_view data);

/// \brief Writes the serialized form of `events` to `path` atomically: temp
/// file + fsync + rename. Honors the global FaultInjector (tests only).
Status WriteEventsFile(const std::string& path, const std::vector<Event>& events);

/// \brief Reads an events file written by WriteEventsFile / WriteColumnsFile
/// (io/file_util ReadFileToString, fault site "file-read"). Errors are
/// annotated with the file path; see DeserializeEvents for the code taxonomy.
Result<std::vector<Event>> ReadEventsFile(const std::string& path);

/// \brief Writes a chunk's columns to `path` atomically (same crash-safety
/// contract and fault-injection hooks as WriteEventsFile). The directory
/// entry is not synced; callers that claim durability sync the directory
/// (io/file_util SyncDir).
Status WriteColumnsFile(const std::string& path, const ChunkColumns& columns);

/// \brief Reads a v4 spill file into columns. The archive's cold-read path:
/// the file is mmapped (io/file_util MmapFile, fault site "mmap-read") and
/// decoded straight from the mapping into column vectors — no intermediate
/// heap copy of the file bytes.
Result<ChunkColumns> ReadColumnsFile(const std::string& path);

}  // namespace exstream
