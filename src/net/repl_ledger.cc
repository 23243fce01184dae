#include "net/repl_ledger.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/strings.h"
#include "io/file_util.h"

namespace exstream {

namespace {
constexpr uint32_t kGapStateMagic = 0x47525845;  // "EXRG"
constexpr uint32_t kLedgerVersion = 2;
}  // namespace

void ReplLedger::Configure(std::optional<std::string> path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
}

Status ReplLedger::Load() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!path_.has_value()) return Status::OK();
  auto data = ReadFileToString(*path_);
  if (!data.ok()) return Status::OK();  // first run: no state yet
  BytesReader r(*data);
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t magic, r.Get<uint32_t>());
  if (magic != kGapStateMagic) {
    return Status::Corruption("bad replication ledger magic in " + *path_);
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t version, r.Get<uint32_t>());
  if (version != kLedgerVersion) {
    return Status::Corruption(
        StrFormat("replication ledger %s has version %u (want %u)",
                  path_->c_str(), version, kLedgerVersion));
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t crc, r.Get<uint32_t>());
  EXSTREAM_ASSIGN_OR_RETURN(const std::string_view body,
                            r.GetView(r.remaining()));
  if (Crc32(body) != crc) {
    return Status::Corruption("replication ledger CRC mismatch in " + *path_);
  }
  BytesReader br(body);
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_entries, br.Get<uint32_t>());
  for (uint32_t i = 0; i < n_entries; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(std::string tenant, br.GetString());
    EXSTREAM_ASSIGN_OR_RETURN(std::string child, br.GetString());
    Entry e;
    EXSTREAM_ASSIGN_OR_RETURN(e.applied, br.Get<uint64_t>());
    EXSTREAM_ASSIGN_OR_RETURN(e.gap_events, br.Get<uint64_t>());
    EXSTREAM_ASSIGN_OR_RETURN(e.quota_shed, br.Get<uint64_t>());
    entries_[Key(std::move(tenant), std::move(child))] = e;
  }
  EXSTREAM_ASSIGN_OR_RETURN(const uint32_t n_pending, br.Get<uint32_t>());
  for (uint32_t i = 0; i < n_pending; ++i) {
    EXSTREAM_ASSIGN_OR_RETURN(std::string tenant, br.GetString());
    EXSTREAM_ASSIGN_OR_RETURN(std::string child, br.GetString());
    EXSTREAM_ASSIGN_OR_RETURN(const uint64_t count, br.Get<uint64_t>());
    pending_[std::move(tenant)] = {std::move(child), count};
  }
  return Status::OK();
}

std::string ReplLedger::EncodeLocked() const {
  BytesWriter body;
  body.Put<uint32_t>(static_cast<uint32_t>(entries_.size()));
  for (const auto& [key, e] : entries_) {
    body.PutString(key.first);
    body.PutString(key.second);
    body.Put<uint64_t>(e.applied);
    body.Put<uint64_t>(e.gap_events);
    body.Put<uint64_t>(e.quota_shed);
  }
  body.Put<uint32_t>(static_cast<uint32_t>(pending_.size()));
  for (const auto& [tenant, p] : pending_) {
    body.PutString(tenant);
    body.PutString(p.first);
    body.Put<uint64_t>(p.second);
  }
  const std::string payload = body.Take();
  BytesWriter w;
  w.Put<uint32_t>(kGapStateMagic);
  w.Put<uint32_t>(kLedgerVersion);
  w.Put<uint32_t>(Crc32(payload));
  w.PutRaw(payload);
  return w.Take();
}

Status ReplLedger::PersistLocked() {
  if (!path_.has_value()) {
    dirty_ = false;
    return Status::OK();
  }
  EXSTREAM_RETURN_NOT_OK(WriteFileAtomic(*path_, EncodeLocked()));
  dirty_ = false;
  return Status::OK();
}

ReplLedger::Entry& ReplLedger::GetLocked(const std::string& tenant,
                                         const std::string& child) {
  return entries_[Key(tenant, child)];
}

ReplLedger::Entry ReplLedger::Get(const std::string& tenant,
                                  const std::string& child) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(tenant, child));
  return it != entries_.end() ? it->second : Entry{};
}

std::vector<std::tuple<std::string, std::string, ReplLedger::Entry>>
ReplLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::tuple<std::string, std::string, Entry>> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    out.emplace_back(key.first, key.second, e);
  }
  return out;
}

uint64_t ReplLedger::AggregateWatermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, e] : entries_) total += e.watermark();
  for (const auto& [tenant, n] : unclaimed_applied_) total += n;
  return total;
}

uint64_t ReplLedger::TenantShedTotal(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, e] : entries_) {
    if (key.first == tenant) total += e.gap_events + e.quota_shed;
  }
  return total;
}

uint64_t ReplLedger::Open(const std::string& tenant, const std::string& child) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetLocked(tenant, child);
  auto applied = unclaimed_applied_.find(tenant);
  if (applied != unclaimed_applied_.end()) {
    e.applied += applied->second;
    unclaimed_applied_.erase(applied);
    dirty_ = true;
  }
  return e.watermark();
}

Status ReplLedger::AddGap(const std::string& tenant, const std::string& child,
                          uint64_t events) {
  std::lock_guard<std::mutex> lock(mu_);
  GetLocked(tenant, child).gap_events += events;
  dirty_ = true;
  return PersistLocked();
}

Status ReplLedger::AddQuotaShed(const std::string& tenant,
                                const std::string& child, uint64_t events) {
  std::lock_guard<std::mutex> lock(mu_);
  GetLocked(tenant, child).quota_shed += events;
  dirty_ = true;
  return PersistLocked();
}

Status ReplLedger::BeginPending(const std::string& tenant,
                                const std::string& child, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[tenant] = {child, count};
  dirty_ = true;
  return PersistLocked();
}

void ReplLedger::MarkApplied(const std::string& tenant,
                             const std::string& child, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  GetLocked(tenant, child).applied += count;
  pending_.erase(tenant);
  dirty_ = true;
}

Status ReplLedger::CommitDurable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirty_) return Status::OK();
  return PersistLocked();
}

ReplLedger::ReconcileResult ReplLedger::ReconcileTenant(
    const std::string& tenant, uint64_t recovered_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  ReconcileResult result;
  auto tenant_applied = [&] {
    uint64_t sum = 0;
    for (const auto& [key, e] : entries_) {
      if (key.first == tenant) sum += e.applied;
    }
    auto it = unclaimed_applied_.find(tenant);
    if (it != unclaimed_applied_.end()) sum += it->second;
    return sum;
  };
  uint64_t ledger_applied = tenant_applied();
  auto pending = pending_.find(tenant);
  if (pending != pending_.end()) {
    const auto& [child, count] = pending->second;
    if (recovered_seq == ledger_applied + count) {
      // The frame's WAL record survived the crash: the apply landed even
      // though the post-apply persist never did. Claim it for the child —
      // its un-acked retransmit will dedupe against the raised watermark.
      GetLocked(tenant, child).applied += count;
      result.pending_landed = true;
    }
    // recovered_seq == ledger_applied: the apply never reached the WAL; the
    // child still holds the frame and will resend it. Any other value is
    // covered by the surplus/deficit arms below.
    pending_.erase(pending);
    dirty_ = true;
    ledger_applied = tenant_applied();
  }
  if (recovered_seq > ledger_applied) {
    // Events recovered from the WAL that no child entry accounts for — a
    // ledger that lagged the WAL (a memory-only ledger). Parked for
    // the tenant's first child to claim at HELLO.
    result.unclaimed = recovered_seq - ledger_applied;
    unclaimed_applied_[tenant] += result.unclaimed;
    dirty_ = true;
  } else if (recovered_seq < ledger_applied) {
    // The ledger ran ahead of what the WAL durably kept (a power-loss-style
    // torn tail). Roll `applied` back so the resume watermark re-requests
    // the missing events — the children never saw an ACK for them, so their
    // spools still hold them.
    uint64_t deficit = result.clamped = ledger_applied - recovered_seq;
    auto pool = unclaimed_applied_.find(tenant);
    if (pool != unclaimed_applied_.end()) {
      const uint64_t take = std::min(deficit, pool->second);
      pool->second -= take;
      deficit -= take;
      if (pool->second == 0) unclaimed_applied_.erase(pool);
    }
    while (deficit > 0) {
      Entry* largest = nullptr;
      for (auto& [key, e] : entries_) {
        if (key.first != tenant || e.applied == 0) continue;
        if (largest == nullptr || e.applied > largest->applied) largest = &e;
      }
      if (largest == nullptr) break;
      const uint64_t take = std::min(deficit, largest->applied);
      largest->applied -= take;
      deficit -= take;
    }
    EXSTREAM_LOG(Warn) << "replication ledger for tenant '" << tenant
                       << "' was ahead of the recovered WAL by "
                       << result.clamped << " events; rolled back for resend";
    dirty_ = true;
  }
  return result;
}

}  // namespace exstream
