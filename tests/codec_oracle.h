// CodecOracle: the reference decoders of the event frame's column streams
// (archive/compress.h) and attribute blocks (archive/serialization.cc).
//
// Each oracle decodes one value per checked read and appends it, bit by bit
// for the XOR stream, and rebuilds an attribute's numeric view by the full
// tag census. The production decoders write into sized arrays, read bits
// through a word-at-a-time fast path, and skip the census for single-kind
// columns; on every input they must return the same values and the same
// status codes.

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "archive/columns.h"
#include "archive/compress.h"
#include "common/result.h"

namespace exstream {

Status OracleDecodeTimestampsDoD(std::string_view data, size_t n,
                                 std::vector<Timestamp>* out);
Status OracleDecodeDoubles(ByteReader* r, size_t n, std::vector<double>* out);
Status OracleDecodeInts(ByteReader* r, size_t n, std::vector<int64_t>* out);
Status OracleDecodeU32s(ByteReader* r, size_t n, std::vector<uint32_t>* out);

/// \brief Parses one attribute block's payload (the bytes inside its CRC
/// frame) for a group of `rows` rows.
Result<AttributeColumn> OracleParseAttributeBlock(std::string_view payload, size_t rows,
                                                  size_t col_index);

}  // namespace exstream
