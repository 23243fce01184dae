#include "archive/serialization.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "archive/compress.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/strings.h"
#include "io/file_util.h"

namespace exstream {

namespace {

constexpr uint32_t kMagic = 0x45585335;  // "EXS5"

template <typename T>
void PutPod(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

// Names a magic the codec does not read, calling out the retired layouts.
Status BadMagic(uint32_t magic) {
  const char* retired = magic == 0x45585331   ? " (retired EXS1 row layout)"
                        : magic == 0x45585332 ? " (retired EXS2 row layout)"
                        : magic == 0x45585333 ? " (retired EXS3 columnar layout)"
                        : magic == 0x45585334 ? " (retired EXS4 one-type columnar layout)"
                                              : "";
  return Status::Corruption(
      StrFormat("bad event frame magic 0x%08x%s at offset 0", magic, retired));
}

// Appends one length-prefixed, CRC-protected block: u32 len, u32 crc, bytes.
void PutBlock(std::string* out, const std::string& payload) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  PutPod<uint32_t>(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

// Reads one block, verifying its CRC. `what` names the block in errors.
Result<std::string_view> GetBlock(BytesReader* r, const char* what) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t len, r->Get<uint32_t>());
  if (len > r->remaining()) {
    return Status::Truncated(
        StrFormat("%s block at offset %zu declares %u bytes, %zu left", what,
                  r->pos(), len, r->remaining() >= 4 ? r->remaining() - 4 : 0));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t stored_crc, r->Get<uint32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view payload, r->GetView(len));
  const uint32_t computed = Crc32(payload.data(), payload.size());
  if (computed != stored_crc) {
    return Status::Corruption(
        StrFormat("%s checksum mismatch: stored 0x%08x, computed 0x%08x "
                  "over %u bytes",
                  what, stored_crc, computed, len));
  }
  return payload;
}

// Rebuilds the per-row numeric view from the dense vectors and cross-checks
// the tag census, rejecting blocks whose dense vectors disagree with their
// tags.
Status FinalizeAttributeColumn(AttributeColumn* col, const std::vector<double>& dbls,
                               size_t rows, size_t col_index) {
  col->nums.reserve(rows);
  size_t int_cursor = 0;
  size_t dbl_cursor = 0;
  size_t str_cursor = 0;
  for (size_t i = 0; i < rows; ++i) {
    switch (col->tags[i]) {
      case static_cast<uint8_t>(ValueType::kInt64):
        if (int_cursor >= col->ints.size()) {
          return Status::Corruption(
              StrFormat("column %zu: tag census exceeds %zu stored ints",
                        col_index, col->ints.size()));
        }
        col->nums.push_back(static_cast<double>(col->ints[int_cursor++]));
        break;
      case static_cast<uint8_t>(ValueType::kDouble):
        if (dbl_cursor >= dbls.size()) {
          return Status::Corruption(
              StrFormat("column %zu: tag census exceeds %zu stored doubles",
                        col_index, dbls.size()));
        }
        col->nums.push_back(dbls[dbl_cursor++]);
        break;
      case static_cast<uint8_t>(ValueType::kString):
        if (str_cursor >= col->str_ids.size()) {
          return Status::Corruption(
              StrFormat("column %zu: tag census exceeds %zu stored strings",
                        col_index, col->str_ids.size()));
        }
        if (col->str_ids[str_cursor] >= col->dict.size()) {
          return Status::Corruption(
              StrFormat("column %zu: string id %u outside dictionary of %zu",
                        col_index, col->str_ids[str_cursor], col->dict.size()));
        }
        ++str_cursor;
        col->nums.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      case kMissingValueTag:
        col->nums.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      default:
        return Status::Corruption(StrFormat("column %zu: bad value tag %u at row %zu",
                                            col_index, col->tags[i], i));
    }
  }
  if (int_cursor != col->ints.size() || dbl_cursor != dbls.size() ||
      str_cursor != col->str_ids.size()) {
    return Status::Corruption(
        StrFormat("column %zu: dense vectors longer than their tag census",
                  col_index));
  }
  return Status::OK();
}

Result<AttributeColumn> ParseAttributeBlock(std::string_view payload, size_t rows,
                                            size_t col_index) {
  ByteReader r(payload);
  AttributeColumn col;
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t declared, r.GetU8());
  if (declared > static_cast<uint8_t>(ValueType::kString)) {
    return Status::Corruption(
        StrFormat("column %zu: bad declared type %u", col_index, declared));
  }
  col.declared = static_cast<ValueType>(declared);
  EXSTREAM_RETURN_NOT_OK(DecodeTagsRle(&r, rows, &col.tags));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_ints, r.GetVarint());
  if (n_ints > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %llu int rows exceed row count %zu", col_index,
                  static_cast<unsigned long long>(n_ints), rows));
  }
  EXSTREAM_RETURN_NOT_OK(DecodeInts(&r, static_cast<size_t>(n_ints), &col.ints));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_dbls, r.GetVarint());
  if (n_dbls > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %llu double rows exceed row count %zu", col_index,
                  static_cast<unsigned long long>(n_dbls), rows));
  }
  std::vector<double> dbls;
  EXSTREAM_RETURN_NOT_OK(DecodeDoubles(&r, static_cast<size_t>(n_dbls), &dbls));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_strs, r.GetVarint());
  if (n_strs > rows) {
    return Status::Corruption(
        StrFormat("column %zu: %llu string rows exceed row count %zu", col_index,
                  static_cast<unsigned long long>(n_strs), rows));
  }
  EXSTREAM_RETURN_NOT_OK(DecodeU32s(&r, static_cast<size_t>(n_strs), &col.str_ids));

  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t dict_n, r.GetVarint());
  // Every dictionary entry costs at least its 1-byte length varint.
  if (dict_n > r.remaining()) {
    return Status::Corruption(
        StrFormat("column %zu: dictionary count %llu cannot fit in %zu bytes",
                  col_index, static_cast<unsigned long long>(dict_n), r.remaining()));
  }
  col.dict.reserve(static_cast<size_t>(dict_n));
  for (uint64_t d = 0; d < dict_n; ++d) {
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t len, r.GetVarint());
    EXSTREAM_ASSIGN_OR_RETURN(const std::string_view s,
                              r.GetBytes(static_cast<size_t>(len)));
    col.dict.emplace_back(s);
  }
  if (!r.AtEnd()) {
    return Status::Corruption(StrFormat("column %zu: %zu trailing bytes",
                                        col_index, r.remaining()));
  }
  EXSTREAM_RETURN_NOT_OK(FinalizeAttributeColumn(&col, dbls, rows, col_index));
  return col;
}

// Prefixes a (non-OK) status message with the file path, keeping the code.
Status AnnotateWithPath(const Status& st, const std::string& path) {
  return Status(st.code(), path + ": " + st.message());
}

// ---- Frame header ----------------------------------------------------------

// One column group: the rows of one event type, in row order. `rows` is not
// stored; it is the total of the group's runs.
struct GroupHeader {
  EventTypeId type = kInvalidEventType;
  uint32_t columns = 0;
  size_t rows = 0;
};

// A run of consecutive rows of one group.
struct Run {
  uint32_t group = 0;
  uint32_t length = 0;
};

struct Frame {
  uint32_t rows = 0;
  std::vector<GroupHeader> groups;
  std::vector<Run> runs;
  std::vector<ChunkColumns> columns;  // one per group
};

// Appends magic, row count and the CRC-protected header block.
void PutFrameHeader(uint32_t rows, const std::vector<GroupHeader>& groups,
                    const std::vector<Run>& runs, std::string* out) {
  PutPod<uint32_t>(out, kMagic);
  PutPod<uint32_t>(out, rows);
  std::string block;
  PutVarint(&block, groups.size());
  for (const GroupHeader& g : groups) {
    PutVarint(&block, g.type);
    PutVarint(&block, g.columns);
  }
  PutVarint(&block, runs.size());
  for (const Run& run : runs) {
    PutVarint(&block, run.group);
    PutVarint(&block, run.length);
  }
  PutBlock(out, block);
}

Result<uint32_t> GetU32Varint(ByteReader* r, const char* what) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t v, r->GetVarint());
  if (v > UINT32_MAX) {
    return Status::Corruption(StrFormat("%s %llu overflows 32 bits", what,
                                        static_cast<unsigned long long>(v)));
  }
  return static_cast<uint32_t>(v);
}

// Reads and validates everything before the group bodies into `f`, leaving
// `r` at the first body. Every count is checked against the bytes that must
// back it before anything is sized from it.
Status ReadFrameHeader(BytesReader* r, Frame* f) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t magic, r->Get<uint32_t>());
  if (magic != kMagic) return BadMagic(magic);
  EXSTREAM_ASSIGN_OR_RETURN(f->rows, r->Get<uint32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view block, GetBlock(r, "header"));
  // Each row costs at least one ts varint byte in its group's body.
  if (f->rows > r->remaining()) {
    return Status::Corruption(
        StrFormat("header count %u needs at least %u bytes but %zu remain at offset %zu",
                  f->rows, f->rows, r->remaining(), r->pos()));
  }

  // Counts only bound reserves by the header's size; a count larger than
  // its entries runs off the header's end.
  ByteReader hr(block);
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_groups, hr.GetVarint());
  f->groups.reserve(std::min<uint64_t>(n_groups, block.size()));
  for (size_t g = 0; g < n_groups; ++g) {
    GroupHeader group;
    EXSTREAM_ASSIGN_OR_RETURN(group.type, GetU32Varint(&hr, "group type"));
    EXSTREAM_ASSIGN_OR_RETURN(group.columns, GetU32Varint(&hr, "group columns"));
    f->groups.push_back(group);
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_runs, hr.GetVarint());
  f->runs.reserve(std::min<uint64_t>(n_runs, block.size()));
  uint64_t run_total = 0;
  for (size_t i = 0; i < n_runs; ++i) {
    Run run;
    EXSTREAM_ASSIGN_OR_RETURN(run.group, GetU32Varint(&hr, "run group"));
    EXSTREAM_ASSIGN_OR_RETURN(run.length, GetU32Varint(&hr, "run length"));
    if (run.length == 0) return Status::Corruption(StrFormat("run %zu is empty", i));
    if (run.group >= f->groups.size()) {
      return Status::Corruption(StrFormat("run %zu names group %u of %zu", i, run.group,
                                          f->groups.size()));
    }
    if (i > 0 && run.group == f->runs.back().group) {
      return Status::Corruption(
          StrFormat("runs %zu and %zu both hold group %u", i - 1, i, run.group));
    }
    f->groups[run.group].rows += run.length;
    run_total += run.length;
    f->runs.push_back(run);
  }
  if (!hr.AtEnd()) {
    return Status::Corruption(
        StrFormat("%zu trailing bytes in the frame header", hr.remaining()));
  }
  // Every group's rows are part of this total, so they fit the row count too.
  if (run_total != f->rows) {
    return Status::Corruption(
        StrFormat("runs hold %llu rows, header count is %u",
                  static_cast<unsigned long long>(run_total), f->rows));
  }
  return Status::OK();
}

// Reads one group body (ts block, then one block per attribute column).
Result<ChunkColumns> ReadGroup(BytesReader* r, const GroupHeader& group) {
  ChunkColumns columns;
  columns.set_type(group.type);
  char what[48];
  snprintf(what, sizeof(what), "type %u ts column", group.type);
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view ts_block, GetBlock(r, what));
  const Status st = DecodeTimestampsDoD(ts_block, group.rows, columns.mutable_ts());
  if (!st.ok()) return Status(st.code(), std::string(what) + ": " + st.message());

  // No reserve from the declared count: a corrupt one runs off the buffer.
  for (uint32_t c = 0; c < group.columns; ++c) {
    snprintf(what, sizeof(what), "type %u attr%u column", group.type, c);
    EXSTREAM_ASSIGN_OR_RETURN(const std::string_view block, GetBlock(r, what));
    EXSTREAM_ASSIGN_OR_RETURN(AttributeColumn col,
                              ParseAttributeBlock(block, group.rows, c));
    columns.mutable_attrs()->push_back(std::move(col));
  }
  return columns;
}

// Parses a whole frame; `one_type` rejects a multi-group frame before any
// group body is decoded.
Result<Frame> ReadFrame(std::string_view data, bool one_type) {
  BytesReader r(data);
  Frame f;
  EXSTREAM_RETURN_NOT_OK(ReadFrameHeader(&r, &f));
  if (one_type && f.groups.size() > 1) {
    return Status::Corruption(
        StrFormat("frame holds %zu runs over %zu column groups; columns hold one type",
                  f.runs.size(), f.groups.size()));
  }
  f.columns.reserve(f.groups.size());
  for (const GroupHeader& group : f.groups) {
    EXSTREAM_ASSIGN_OR_RETURN(ChunkColumns columns, ReadGroup(&r, group));
    f.columns.push_back(std::move(columns));
  }
  if (!r.AtEnd()) {
    return Status::Corruption(StrFormat("%zu trailing bytes after %zu column groups",
                                        r.remaining(), f.groups.size()));
  }
  return f;
}

// Appends one group body: the ts block, then the first `width` attribute
// columns (any further columns hold only missing values).
void PutGroupBody(const ChunkColumns& columns, size_t width, std::string* out) {
  std::string block;
  EncodeTimestampsDoD(columns.ts(), &block);
  PutBlock(out, block);
  std::vector<double> dbls;
  for (size_t c = 0; c < width; ++c) {
    const AttributeColumn& col = columns.attr(c);
    block.clear();
    block.push_back(static_cast<char>(col.declared));
    EncodeTagsRle(col.tags, &block);
    PutVarint(&block, col.ints.size());
    EncodeInts(col.ints.data(), col.ints.size(), &block);
    // Dense doubles: the double-tagged rows' numeric view, in row order.
    dbls.clear();
    for (size_t i = 0; i < col.tags.size(); ++i) {
      if (col.tags[i] == static_cast<uint8_t>(ValueType::kDouble)) {
        dbls.push_back(col.nums[i]);
      }
    }
    PutVarint(&block, dbls.size());
    EncodeDoubles(dbls.data(), dbls.size(), &block);
    PutVarint(&block, col.str_ids.size());
    EncodeU32s(col.str_ids.data(), col.str_ids.size(), &block);
    PutVarint(&block, col.dict.size());
    for (const std::string& str : col.dict) {
      PutVarint(&block, str.size());
      block.append(str);
    }
    PutBlock(out, block);
  }
}

}  // namespace

std::string SerializeColumns(const ChunkColumns& columns) {
  const uint32_t rows = static_cast<uint32_t>(columns.rows());
  std::vector<Run> runs;
  if (rows > 0) runs.push_back({0, rows});
  // The group is written even for an empty chunk so its type survives.
  std::string out;
  PutFrameHeader(rows, {{columns.type(), static_cast<uint32_t>(columns.num_columns())}},
                 runs, &out);
  PutGroupBody(columns, columns.num_columns(), &out);
  return out;
}

Result<ChunkColumns> DeserializeColumns(std::string_view data) {
  EXSTREAM_ASSIGN_OR_RETURN(Frame f, ReadFrame(data, /*one_type=*/true));
  if (f.columns.empty()) return ChunkColumns();
  return std::move(f.columns[0]);
}

std::string SerializeEvents(std::span<const Event> events) {
  // Per-thread scratch reused across calls (cleared, capacity kept), so the
  // per-batch WAL and replication encodes allocate little beyond their output.
  thread_local std::vector<GroupHeader> groups;
  thread_local std::vector<Run> runs;
  thread_local std::vector<ChunkColumns> columns;
  groups.clear();
  runs.clear();
  // One pass finds the runs, and the groups in order of first appearance.
  for (const Event& e : events) {
    if (runs.empty() || groups[runs.back().group].type != e.type) {
      uint32_t g = 0;
      while (g < groups.size() && groups[g].type != e.type) ++g;
      if (g == groups.size()) groups.push_back({e.type, 0});
      runs.push_back({g, 0});
    }
    ++runs.back().length;
    GroupHeader& group = groups[runs.back().group];
    group.columns = std::max(group.columns, static_cast<uint32_t>(e.values.size()));
  }

  std::string out;
  PutFrameHeader(static_cast<uint32_t>(events.size()), groups, runs, &out);
  if (columns.size() < groups.size()) columns.resize(groups.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    ChunkColumns& cols = columns[g];
    cols.Clear(groups[g].type);
    size_t row = 0;
    for (const Run& run : runs) {
      if (run.group == g) {
        for (size_t k = row; k < row + run.length; ++k) cols.AppendEvent(events[k]);
      }
      row += run.length;
    }
    PutGroupBody(cols, groups[g].columns, &out);
  }
  return out;
}

Result<std::vector<Event>> DeserializeEvents(std::string_view data) {
  EXSTREAM_ASSIGN_OR_RETURN(Frame f, ReadFrame(data, /*one_type=*/false));
  // Materialize each group's rows, then deal them out in run order.
  std::vector<std::vector<Event>> group_rows(f.groups.size());
  for (size_t g = 0; g < f.groups.size(); ++g) {
    f.columns[g].MaterializeRows(0, f.columns[g].rows(), &group_rows[g]);
  }
  std::vector<size_t> next(f.groups.size(), 0);
  std::vector<Event> events;
  events.reserve(f.rows);
  for (const Run& run : f.runs) {
    std::vector<Event>& rows = group_rows[run.group];
    size_t& i = next[run.group];
    for (uint32_t k = 0; k < run.length; ++k) events.push_back(std::move(rows[i++]));
  }
  return events;
}

Status WriteEventsFile(const std::string& path, std::span<const Event> events) {
  return WriteFileAtomicNoDirSync(path, SerializeEvents(events), "spill-write");
}

Result<std::vector<Event>> ReadEventsFile(const std::string& path) {
  EXSTREAM_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  auto events = DeserializeEvents(data);
  if (!events.ok()) return AnnotateWithPath(events.status(), path);
  return events;
}

Status WriteColumnsFile(const std::string& path, const ChunkColumns& columns) {
  return WriteFileAtomicNoDirSync(path, SerializeColumns(columns), "spill-write");
}

Result<ChunkColumns> ReadColumnsFile(const std::string& path) {
  // Cold reads go through mmap: the decoder parses straight from the kernel
  // page cache instead of a heap copy of the whole file. The mapping lives
  // only for the decode — the decoded columns own their memory and are what
  // ScanView pins. MmapFile carries its own fault-injection site
  // ("mmap-read"), so this path makes exactly one Intercept call per read,
  // like the buffered path it replaces.
  EXSTREAM_ASSIGN_OR_RETURN(const MmapFile file, MmapFile::Open(path));
  auto columns = DeserializeColumns(file.view());
  if (!columns.ok()) return AnnotateWithPath(columns.status(), path);
  return columns;
}

}  // namespace exstream
