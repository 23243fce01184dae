// Binary codec for Value and Event over BytesWriter/BytesReader — the
// building block for checkpoint manifests (NFA bound events, match-table
// cells). Archived, logged and replicated event buffers use the separate
// columnar event frame (`EXS5`, archive/serialization.h); this row codec is
// only ever embedded inside another CRC-framed container.

#pragma once

#include "common/bytes.h"
#include "common/result.h"
#include "common/value.h"
#include "event/event.h"

namespace exstream {

/// u8 type tag + payload (i64 / f64 / length-prefixed bytes).
void PutValue(BytesWriter* out, const Value& v);
Result<Value> GetValue(BytesReader* in);

/// i64 ts + u32 type + u16 value count + values.
void PutEvent(BytesWriter* out, const Event& e);
Result<Event> GetEvent(BytesReader* in);

}  // namespace exstream
