// Binary (de)serialization of events and archive chunks.

#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "archive/columns.h"
#include "common/result.h"
#include "event/event.h"

namespace exstream {

/// \brief The event codec: one frame layout for chunk spill files,
/// checkpoint chunk files, WAL records, replication CHUNK/WALTAIL payloads
/// and the reject log.
///
/// A frame ("EXS5") is: u32 magic, u32 row count, one header block, then one
/// column group per event type present. The header block holds the group
/// table, varint (type, column count) per group in order of first
/// appearance (group count first), then the type sequence as varint
/// (group index, run length) pairs (run count first).
/// A group body is the ts column block and one block per attribute column;
/// every block (the header too) is u32 length + u32 CRC32 + bytes. The ts
/// block is delta-of-delta varints, double streams are Gorilla-style XOR
/// (with exact scaled-integer and raw fallbacks), tags are run-length
/// encoded, and int/string-id/dictionary payloads are varints
/// (archive/compress.h). A single-type buffer (a chunk) is the one-run case.
///
/// Decoders are bounds-checked and fuzzed, and validate the header before
/// sizing anything from it: runs are non-empty, name a group, differ from
/// the run before, and their lengths sum to the row count. A group's row
/// count is its runs' total; a group body holding another count fails its
/// ts block. Any other magic (including the
/// retired EXS1-EXS4 layouts) is rejected as Corruption naming the magic.

/// \brief Serializes events as one frame.
std::string SerializeEvents(std::span<const Event> events);

/// \brief Parses a frame produced by SerializeEvents / SerializeColumns back
/// into rows, in their original interleaving.
///
/// Error codes are diagnostic: Truncated when the buffer ends before its
/// declared contents, Corruption for bad magic / checksum mismatch / an
/// inconsistent header / bad value tags / trailing bytes. Messages carry the
/// byte offset or the failing column.
Result<std::vector<Event>> DeserializeEvents(std::string_view data);

/// \brief Serializes a chunk's columns as a one-group frame.
std::string SerializeColumns(const ChunkColumns& columns);

/// \brief Parses a frame of at most one event type into columns, straight
/// from the column blocks; a frame mixing types is Corruption.
Result<ChunkColumns> DeserializeColumns(std::string_view data);

/// \brief Writes the serialized form of `events` to `path` atomically
/// (io/file_util WriteFileAtomicNoDirSync, fault site "spill-write"). The
/// directory entry is not synced; callers that claim durability sync the
/// directory (io/file_util SyncDir).
Status WriteEventsFile(const std::string& path, std::span<const Event> events);

/// \brief Reads an events file written by WriteEventsFile / WriteColumnsFile
/// (io/file_util ReadFileToString, fault site "file-read"). Errors are
/// annotated with the file path; see DeserializeEvents for the code taxonomy.
Result<std::vector<Event>> ReadEventsFile(const std::string& path);

/// \brief Writes a chunk's columns to `path` atomically (same crash-safety
/// contract and fault site as WriteEventsFile).
Status WriteColumnsFile(const std::string& path, const ChunkColumns& columns);

/// \brief Reads a one-type frame file into columns. The archive's cold-read path:
/// the file is mmapped (io/file_util MmapFile, fault site "mmap-read") and
/// decoded straight from the mapping into column vectors — no intermediate
/// heap copy of the file bytes.
Result<ChunkColumns> ReadColumnsFile(const std::string& path);

}  // namespace exstream
