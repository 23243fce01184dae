#include "archive/tiers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "archive/compress.h"
#include "common/crc32.h"
#include "common/strings.h"

namespace exstream {
namespace {

constexpr uint32_t kTiersMagic = 0x45585431;  // "EXT1"
constexpr size_t kMaxTiersPerChunk = 16;
constexpr size_t kMaxAttrs = 1 << 16;

void PutPod32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

Result<uint32_t> GetPod32(ByteReader* r) {
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view bytes, r->GetBytes(4));
  uint32_t v;
  std::memcpy(&v, bytes.data(), sizeof(v));
  return v;
}

/// Same len+CRC32 framing the event frame's blocks use, so a flipped bit in a
/// sidecar is detected before any decoder touches the payload.
void PutBlock(std::string* out, const std::string& payload) {
  PutPod32(out, static_cast<uint32_t>(payload.size()));
  PutPod32(out, Crc32(payload));
  out->append(payload);
}

Result<std::string_view> GetBlock(ByteReader* r, const char* what) {
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t len, GetPod32(r));
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t stored_crc, GetPod32(r));
  if (len > r->remaining()) {
    return Status::Truncated(StrFormat("tiers %s block: %u bytes declared, %zu "
                                       "remain",
                                       what, len, r->remaining()));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view payload, r->GetBytes(len));
  if (Crc32(payload) != stored_crc) {
    return Status::Corruption(StrFormat("tiers %s block: CRC mismatch", what));
  }
  return payload;
}

TierColumns BuildOneTier(const ChunkColumns& columns, Timestamp window) {
  TierColumns tier;
  tier.window = window;
  tier.attrs.resize(columns.num_columns());
  const std::vector<Timestamp>& ts = columns.ts();
  const size_t rows = ts.size();
  size_t lo = 0;
  while (lo < rows) {
    const Timestamp wend = TierWindowEnd(ts[lo], window);
    size_t hi = lo;
    while (hi < rows && ts[hi] < wend) ++hi;
    tier.ts.push_back(wend);
    for (size_t c = 0; c < columns.num_columns(); ++c) {
      const AttributeColumn& col = columns.attr(c);
      TierAttr& agg = tier.attrs[c];
      uint32_t count = 0;
      double mn = 0, mx = 0, sum = 0, sumsq = 0;
      for (size_t i = lo; i < hi; ++i) {
        const double v = col.nums[i];
        if (std::isnan(v)) continue;
        if (count == 0) {
          mn = mx = v;
        } else {
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        sum += v;
        sumsq += v * v;
        ++count;
      }
      agg.count.push_back(count);
      agg.min.push_back(mn);
      agg.max.push_back(mx);
      agg.sum.push_back(sum);
      agg.sumsq.push_back(sumsq);
    }
    lo = hi;
  }
  return tier;
}

void SerializeOneTier(const TierColumns& tier, std::string* out) {
  std::string payload;
  PutVarint(&payload, static_cast<uint64_t>(tier.window));
  PutVarint(&payload, tier.ts.size());
  std::string ts_bytes;
  EncodeTimestampsDoD(tier.ts, &ts_bytes);
  PutVarint(&payload, ts_bytes.size());
  payload.append(ts_bytes);
  const size_t n = tier.ts.size();
  for (const TierAttr& agg : tier.attrs) {
    EncodeU32s(agg.count.data(), n, &payload);
    EncodeDoubles(agg.min.data(), n, &payload);
    EncodeDoubles(agg.max.data(), n, &payload);
    EncodeDoubles(agg.sum.data(), n, &payload);
    EncodeDoubles(agg.sumsq.data(), n, &payload);
  }
  PutBlock(out, payload);
}

Result<TierColumns> ParseOneTier(std::string_view payload, size_t n_attrs) {
  ByteReader r(payload);
  TierColumns tier;
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t window_raw, r.GetVarint());
  if (window_raw == 0 || window_raw > static_cast<uint64_t>(INT64_MAX)) {
    return Status::Corruption("tier window out of range");
  }
  tier.window = static_cast<Timestamp>(window_raw);
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t n_windows, r.GetVarint());
  EXSTREAM_ASSIGN_OR_RETURN(const uint64_t ts_len, r.GetVarint());
  if (ts_len > r.remaining()) {
    return Status::Truncated("tier ts stream longer than payload");
  }
  // Every encoded window timestamp costs at least one varint byte.
  if (n_windows > ts_len && n_windows > 0) {
    return Status::Corruption(
        StrFormat("tier declares %llu windows in a %llu-byte ts stream",
                  static_cast<unsigned long long>(n_windows),
                  static_cast<unsigned long long>(ts_len)));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view ts_bytes,
                            r.GetBytes(static_cast<size_t>(ts_len)));
  EXSTREAM_RETURN_NOT_OK(DecodeTimestampsDoD(
      ts_bytes, static_cast<size_t>(n_windows), &tier.ts));
  for (size_t i = 1; i < tier.ts.size(); ++i) {
    if (tier.ts[i] <= tier.ts[i - 1]) {
      return Status::Corruption("tier window timestamps not increasing");
    }
  }
  tier.attrs.resize(n_attrs);
  const size_t n = static_cast<size_t>(n_windows);
  for (size_t c = 0; c < n_attrs; ++c) {
    TierAttr& agg = tier.attrs[c];
    EXSTREAM_RETURN_NOT_OK(DecodeU32s(&r, n, &agg.count));
    EXSTREAM_RETURN_NOT_OK(DecodeDoubles(&r, n, &agg.min));
    EXSTREAM_RETURN_NOT_OK(DecodeDoubles(&r, n, &agg.max));
    EXSTREAM_RETURN_NOT_OK(DecodeDoubles(&r, n, &agg.sum));
    EXSTREAM_RETURN_NOT_OK(DecodeDoubles(&r, n, &agg.sumsq));
  }
  if (!r.AtEnd()) {
    return Status::Corruption(
        StrFormat("tier block has %zu trailing bytes", r.remaining()));
  }
  return tier;
}

}  // namespace

std::pair<size_t, size_t> TierColumns::WindowRange(
    const TimeInterval& interval) const {
  // Window i spans [ts[i]-window, ts[i]): it intersects [lower, upper] iff
  // ts[i] > lower and ts[i]-window <= upper.
  const auto first =
      std::upper_bound(ts.begin(), ts.end(), interval.lower) - ts.begin();
  size_t last = static_cast<size_t>(first);
  while (last < ts.size() && ts[last] - window <= interval.upper) ++last;
  return {static_cast<size_t>(first), last};
}

ChunkTiers BuildChunkTiers(const ChunkColumns& columns,
                           const std::vector<Timestamp>& windows) {
  std::vector<Timestamp> sorted;
  for (Timestamp w : windows) {
    if (w > 0) sorted.push_back(w);
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.size() > kMaxTiersPerChunk) sorted.resize(kMaxTiersPerChunk);
  ChunkTiers tiers;
  tiers.reserve(sorted.size());
  for (Timestamp w : sorted) tiers.push_back(BuildOneTier(columns, w));
  return tiers;
}

int SelectTier(const ChunkTiers& tiers, Timestamp resolution) {
  if (resolution <= 0) return -1;
  for (int i = static_cast<int>(tiers.size()) - 1; i >= 0; --i) {
    if (tiers[i].window > 0 && resolution % tiers[i].window == 0) return i;
  }
  return -1;
}

std::string SerializeTiers(const ChunkTiers& tiers, EventTypeId type) {
  std::string out;
  PutPod32(&out, kTiersMagic);
  PutPod32(&out, type);
  const uint32_t n_attrs =
      tiers.empty() ? 0 : static_cast<uint32_t>(tiers[0].attrs.size());
  PutPod32(&out, n_attrs);
  out.push_back(static_cast<char>(tiers.size()));
  for (const TierColumns& tier : tiers) SerializeOneTier(tier, &out);
  return out;
}

Result<ChunkTiers> DeserializeTiers(std::string_view data,
                                    EventTypeId expected_type) {
  ByteReader r(data);
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t magic, GetPod32(&r));
  if (magic != kTiersMagic) {
    return Status::Corruption("bad tier sidecar magic");
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t type, GetPod32(&r));
  if (type != expected_type) {
    return Status::Corruption(StrFormat(
        "tier sidecar is for event type %u, expected %u", type, expected_type));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_attrs, GetPod32(&r));
  if (n_attrs > kMaxAttrs) {
    return Status::Corruption("tier sidecar declares an impossible attribute "
                              "count");
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint8_t n_tiers, r.GetU8());
  if (n_tiers > kMaxTiersPerChunk) {
    return Status::Corruption("tier sidecar declares too many tiers");
  }
  ChunkTiers tiers;
  tiers.reserve(n_tiers);
  Timestamp prev_window = 0;
  for (size_t t = 0; t < n_tiers; ++t) {
    EXSTREAM_ASSIGN_OR_RETURN(const std::string_view payload,
                              GetBlock(&r, "tier"));
    auto tier = ParseOneTier(payload, n_attrs);
    if (!tier.ok()) {
      return Status(tier.status().code(),
                    StrFormat("tier %zu: %s", t, tier.status().message().c_str()));
    }
    if (tier->window <= prev_window) {
      return Status::Corruption("tier windows not ascending");
    }
    prev_window = tier->window;
    tiers.push_back(std::move(tier).MoveValue());
  }
  if (!r.AtEnd()) {
    return Status::Corruption(
        StrFormat("tier sidecar has %zu trailing bytes", r.remaining()));
  }
  return tiers;
}

// The sidecar writer/reader deliberately skip FaultInjector::Intercept (see
// header): a wildcard fault plan must keep hitting the raw spill read/write
// seams with the same counts as before tiering existed. Sidecars are derived
// data; a damaged one degrades resolution, it never loses events.
Status WriteTiersFile(const std::string& path, const ChunkTiers& tiers,
                      EventTypeId type) {
  const std::string data = SerializeTiers(tiers, type);
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  const size_t written = fwrite(data.data(), 1, data.size(), f);
  if (written != data.size() || fflush(f) != 0 || fsync(fileno(f)) != 0) {
    fclose(f);
    remove(tmp.c_str());
    return Status::IOError("cannot write " + tmp);
  }
  fclose(f);
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<ChunkTiers> ReadTiersFile(const std::string& path,
                                 EventTypeId expected_type) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  fclose(f);
  auto tiers = DeserializeTiers(data, expected_type);
  if (!tiers.ok()) {
    return Status(tiers.status().code(),
                  path + ": " + std::string(tiers.status().message()));
  }
  return tiers;
}

}  // namespace exstream
