// PartitionInterner: interns partition-key strings to dense uint32_t ids.
//
// The CEP engine's per-event hot path used to key each query's runs by
// std::string in an unordered_map — one string allocation plus one string
// hash per query per event. The interner replaces that with a single
// open-addressing probe over precomputed 64-bit hashes: the batch layer
// hashes each event's partition key once, and every merge group reuses that
// hash to intern the key into its own dense id space. Ids index flat vectors
// (SharedRun slots, match-table buckets), and interned key storage is a deque
// so the string_views handed out (e.g. in MatchNotification) stay valid for
// the engine's lifetime.
//
// Ids are assigned in first-intern order, so for a fixed event order the
// id assignment is deterministic regardless of how the stream is batched.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace exstream {

/// \brief FNV-1a 64-bit hash of a partition key; computed once per event per
/// extraction spec and shared by every query interning that key.
inline uint64_t PartitionKeyHash(std::string_view key) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief Qualifies a partition key with its tenant namespace: "tenant/key".
///
/// Multi-tenant serving layers one namespace per tenant over partition-key
/// interning: every tenant runs its own engine (own interner, own dense id
/// space), and any surface that mixes tenants — hub-level partition listings,
/// fan-in bench accounting, CLI summaries — uses qualified keys. The tenant
/// portion is percent-escaped ('%' and '/') so no tenant name can forge
/// another tenant's prefix: QualifyTenantKey is injective in (tenant, key).
inline std::string QualifyTenantKey(std::string_view tenant,
                                    std::string_view key) {
  std::string out;
  out.reserve(tenant.size() + key.size() + 1);
  for (const char c : tenant) {
    if (c == '%') {
      out += "%25";
    } else if (c == '/') {
      out += "%2F";
    } else {
      out += c;
    }
  }
  out += '/';
  out.append(key);
  return out;
}

/// \brief Splits a QualifyTenantKey string back into (tenant, key). The
/// tenant portion is unescaped; returns false if `qualified` has no
/// separator or carries a malformed escape.
inline bool SplitTenantKey(std::string_view qualified, std::string* tenant,
                           std::string* key) {
  const size_t sep = qualified.find('/');
  if (sep == std::string_view::npos) return false;
  const std::string_view escaped = qualified.substr(0, sep);
  tenant->clear();
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      *tenant += escaped[i];
      continue;
    }
    if (i + 2 >= escaped.size()) return false;
    const std::string_view code = escaped.substr(i + 1, 2);
    if (code == "25") {
      *tenant += '%';
    } else if (code == "2F") {
      *tenant += '/';
    } else {
      return false;
    }
    i += 2;
  }
  key->assign(qualified.substr(sep + 1));
  return true;
}

/// \brief Open-addressing string -> dense id table with caller-supplied hashes.
class PartitionInterner {
 public:
  PartitionInterner() { slots_.resize(kInitialSlots, Slot{0, kEmptyId}); }

  /// \brief Returns the id of `key`, interning it if unseen.
  ///
  /// `hash` must equal PartitionKeyHash(key); `created` (optional) reports
  /// whether a new id was assigned.
  uint32_t Intern(std::string_view key, uint64_t hash, bool* created = nullptr) {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.id == kEmptyId) break;
      if (slot.hash == hash && keys_[slot.id] == key) {
        if (created != nullptr) *created = false;
        return slot.id;
      }
      i = (i + 1) & mask;
    }
    const uint32_t id = static_cast<uint32_t>(keys_.size());
    keys_.emplace_back(key);
    slots_[i] = Slot{hash, id};
    if (created != nullptr) *created = true;
    if (keys_.size() * 4 >= slots_.size() * 3) Grow();
    return id;
  }

  /// The interned key for `id`; the view stays valid for the interner's life.
  std::string_view KeyOf(uint32_t id) const { return keys_[id]; }

  size_t size() const { return keys_.size(); }

 private:
  struct Slot {
    uint64_t hash;
    uint32_t id;
  };
  static constexpr uint32_t kEmptyId = static_cast<uint32_t>(-1);
  static constexpr size_t kInitialSlots = 16;  // power of two

  void Grow() {
    std::vector<Slot> bigger(slots_.size() * 2, Slot{0, kEmptyId});
    const size_t mask = bigger.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.id == kEmptyId) continue;
      size_t i = static_cast<size_t>(slot.hash) & mask;
      while (bigger[i].id != kEmptyId) i = (i + 1) & mask;
      bigger[i] = slot;
    }
    slots_.swap(bigger);
  }

  std::vector<Slot> slots_;
  std::deque<std::string> keys_;  // deque: views into keys never move
};

}  // namespace exstream
