#include "net/replication_receiver.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "archive/serialization.h"
#include "common/logging.h"
#include "common/strings.h"
#include "xstream/system.h"
#include "xstream/tenant_hub.h"

namespace exstream {

/// One connection's state: the incremental decoder plus the identity the
/// HELLO established and the takeover epoch it holds.
struct ReplicationReceiver::Session {
  FrameDecoder decoder;
  bool hello_done = false;
  std::string tenant;
  std::string node;
  uint64_t epoch = 0;
};

struct ReplicationReceiver::SessionThread {
  std::thread thread;
  std::atomic<bool> done{false};
};

ReplicationReceiver::ReplicationReceiver(XStreamSystem* system,
                                         ReplicationReceiverOptions options)
    : hub_(nullptr),
      owned_hub_(std::make_unique<TenantHub>()),
      options_(std::move(options)) {
  hub_ = owned_hub_.get();
  const Status added = hub_->AddTenant(options_.tenant, system);
  if (!added.ok()) {
    EXSTREAM_LOG(Error) << "replication receiver tenant setup failed: "
                        << added.ToString();
  }
}

ReplicationReceiver::ReplicationReceiver(TenantHub* hub,
                                         ReplicationReceiverOptions options)
    : hub_(hub), options_(std::move(options)) {}

ReplicationReceiver::~ReplicationReceiver() { Stop(); }

Status ReplicationReceiver::EnsureStateLoaded() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_loaded_) return Status::OK();
  ledger_.Configure(options_.state_path);
  EXSTREAM_RETURN_NOT_OK(ledger_.Load());
  for (const std::string& tenant : hub_->tenants()) {
    XStreamSystem* system = hub_->system(tenant);
    const auto reconciled = ledger_.ReconcileTenant(tenant, system->next_seq());
    if (reconciled.pending_landed) {
      EXSTREAM_LOG(Info) << "replication ledger: tenant '" << tenant
                         << "' pending apply landed before the crash";
    }
    // Losses disclosed before a restart live only in the ledger — the WAL
    // never saw the missing seqs. Re-disclose the delta so post-restart
    // Explains still report the incomplete coverage.
    const uint64_t disclosed = ledger_.TenantShedTotal(tenant);
    const uint64_t already = system->shed_events();
    if (disclosed > already) system->AddExternalShed(disclosed - already);
  }
  state_loaded_ = true;
  return Status::OK();
}

Status ReplicationReceiver::Start() {
  if (accept_thread_.joinable()) return Status::OK();
  EXSTREAM_RETURN_NOT_OK(EnsureStateLoaded());
  EXSTREAM_ASSIGN_OR_RETURN(listener_, TcpListener::Listen(options_.port));
  port_ = listener_.port();
  stop_.store(false);
  accept_thread_ = std::thread(&ReplicationReceiver::AcceptLoop, this);
  return Status::OK();
}

void ReplicationReceiver::Stop() {
  stop_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::unique_ptr<SessionThread>> drained;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    drained.swap(session_threads_);
  }
  for (auto& st : drained) {
    if (st->thread.joinable()) st->thread.join();
  }
}

uint64_t ReplicationReceiver::watermark() const {
  return ledger_.AggregateWatermark();
}

uint64_t ReplicationReceiver::watermark(const std::string& tenant,
                                        const std::string& child) const {
  return ledger_.Get(tenant, child).watermark();
}

ReplicationReceiver::Stats ReplicationReceiver::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.live_sessions = live_sessions_.load();
  return out;
}

std::vector<ReplicationReceiver::SessionInfo> ReplicationReceiver::sessions()
    const {
  std::vector<SessionInfo> out;
  for (const auto& [tenant, child, entry] : ledger_.Snapshot()) {
    SessionInfo info;
    info.tenant = tenant;
    info.child = child;
    info.watermark = entry.watermark();
    {
      std::lock_guard<std::mutex> lock(mu_);
      info.live = session_epochs_.count({tenant, child}) > 0;
    }
    out.push_back(std::move(info));
  }
  return out;
}

void ReplicationReceiver::ReapFinishedSessions() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  auto it = session_threads_.begin();
  while (it != session_threads_.end()) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = session_threads_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReplicationReceiver::AcceptLoop() {
  while (!stop_.load()) {
    ReapFinishedSessions();
    auto accepted = listener_.Accept(/*timeout_ms=*/100);
    if (!accepted.ok()) {
      if (accepted.status().IsDeadlineExceeded()) continue;
      if (stop_.load()) return;
      EXSTREAM_LOG(Warn) << "replication accept failed: "
                         << accepted.status().ToString();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.sessions;
      if (live_sessions_.load() >= options_.max_sessions) {
        ++stats_.sessions_rejected;
        continue;  // the socket closes as `accepted` goes out of scope
      }
    }
    live_sessions_.fetch_add(1);
    auto st = std::make_unique<SessionThread>();
    SessionThread* raw = st.get();
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      session_threads_.push_back(std::move(st));
    }
    raw->thread = std::thread(
        [this, raw](TcpSocket sock) {
          ServeSession(std::move(sock));
          live_sessions_.fetch_sub(1);
          raw->done.store(true);
        },
        std::move(*accepted));
  }
}

bool ReplicationReceiver::SessionCurrent(const Session* s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = session_epochs_.find({s->tenant, s->node});
  return it != session_epochs_.end() && it->second == s->epoch;
}

void ReplicationReceiver::ReleaseSession(Session* s) {
  if (!s->hello_done) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = session_epochs_.find({s->tenant, s->node});
  // Only the current owner clears the identity — a superseded session going
  // away must not unregister its successor.
  if (it != session_epochs_.end() && it->second == s->epoch) {
    session_epochs_.erase(it);
  }
}

void ReplicationReceiver::ServeSession(TcpSocket sock) {
  Session s;
  char buf[1 << 16];
  std::string out;
  while (!stop_.load()) {
    bool session_over = false;
    for (;;) {
      auto frame = s.decoder.Next();
      if (!frame.ok()) {
        // Framing violations (bad magic/CRC/length) mean the stream cannot
        // be trusted past this point; drop the session and let the child
        // reconnect and resume from its watermark.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.frame_errors;
        }
        EXSTREAM_LOG(Warn) << "replication frame error: "
                           << frame.status().ToString();
        session_over = true;
        break;
      }
      if (!frame->has_value()) break;
      out.clear();
      const Status handled = HandleFrame(&s, **frame, &out);
      if (!out.empty()) {
        const Status sent = sock.SendAll(out);
        if (!sent.ok()) {
          session_over = true;
          break;
        }
      }
      if (!handled.ok()) {
        EXSTREAM_LOG(Warn) << "replication session ended: "
                           << handled.ToString();
        session_over = true;
        break;
      }
      if (s.hello_done && !SessionCurrent(&s)) {
        EXSTREAM_LOG(Info) << "replication session for ('" << s.tenant << "', '"
                           << s.node << "') superseded by a newer HELLO";
        session_over = true;
        break;
      }
    }
    if (session_over) break;
    auto got = sock.Recv(buf, sizeof(buf), options_.io_timeout_ms);
    if (!got.ok()) {
      if (got.status().IsDeadlineExceeded()) {
        if (s.hello_done && !SessionCurrent(&s)) break;  // idle + superseded
        continue;  // idle link
      }
      break;  // reset / injected fault: session over, reap now
    }
    if (*got == 0) break;  // orderly EOF: reap promptly
    s.decoder.Feed(std::string_view(buf, *got));
  }
  ReleaseSession(&s);
}

Status ReplicationReceiver::HandleHello(Session* s, const Frame& frame,
                                        std::string* out) {
  if (s->hello_done) {
    // A live session re-HELLOing (duplicate, or a tenant switch attempt) is
    // a protocol violation; end this session only. State already applied for
    // the original identity is untouched.
    return Status::Corruption("duplicate HELLO on a live session for ('" +
                              s->tenant + "', '" + s->node + "')");
  }
  EXSTREAM_ASSIGN_OR_RETURN(const HelloFrame hello,
                            HelloFrame::Decode(frame.payload));
  HelloAckFrame ack;
  if (hello.protocol_version != kReplProtocolVersion) {
    ack.accepted = false;
    ack.message = StrFormat("protocol version %u unsupported (want %u)",
                            hello.protocol_version, kReplProtocolVersion);
  } else if (!hub_->HasTenant(hello.tenant)) {
    ack.accepted = false;
    ack.message = "unknown tenant '" + hello.tenant + "'";
  } else {
    ack.accepted = true;
    s->tenant = hello.tenant;
    s->node = hello.node_id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t& owner = session_epochs_[{s->tenant, s->node}];
      if (owner != 0) ++stats_.sessions_superseded;
      owner = s->epoch = next_epoch_++;
    }
    ack.resume_seq = ledger_.Open(s->tenant, s->node);
  }
  if (!ack.accepted) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hellos_rejected;
  }
  out->append(EncodeFrame(FrameType::kHelloAck, ack.Encode()));
  if (!ack.accepted) {
    return Status::InvalidArgument("session rejected: " + ack.message);
  }
  EXSTREAM_LOG(Info) << "replication session from ('" << hello.tenant << "', '"
                     << hello.node_id << "') (floor " << hello.floor_seq
                     << ", resume " << ack.resume_seq << ")";
  s->hello_done = true;
  return Status::OK();
}

Status ReplicationReceiver::HandleFrame(Session* s, const Frame& frame,
                                        std::string* out) {
  if (!s->hello_done && frame.type != FrameType::kHello) {
    return Status::Corruption("first frame must be HELLO, got " +
                              std::string(FrameTypeToString(frame.type)));
  }
  switch (frame.type) {
    case FrameType::kHello:
      return HandleHello(s, frame, out);
    case FrameType::kChunk: {
      EXSTREAM_ASSIGN_OR_RETURN(ChunkFrame chunk,
                                ChunkFrame::Decode(frame.payload));
      EXSTREAM_ASSIGN_OR_RETURN(std::vector<Event> events,
                                DeserializeEvents(chunk.events));
      if (events.size() != chunk.event_count) {
        return Status::Corruption(
            StrFormat("CHUNK %llu declares %u events, payload has %zu",
                      static_cast<unsigned long long>(chunk.chunk_id),
                      chunk.event_count, events.size()));
      }
      EXSTREAM_RETURN_NOT_OK(ApplyEvents(s, chunk.first_seq, std::move(events),
                                         /*is_chunk=*/true,
                                         frame.payload.size()));
      {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t& last = last_chunk_ids_[{s->tenant, s->node}];
        last = std::max(last, chunk.chunk_id);
      }
      return AppendAck(s, out);
    }
    case FrameType::kWalTail: {
      EXSTREAM_ASSIGN_OR_RETURN(WalTailFrame tail,
                                WalTailFrame::Decode(frame.payload));
      EXSTREAM_ASSIGN_OR_RETURN(std::vector<Event> events,
                                DeserializeEvents(tail.events));
      if (events.size() != tail.event_count) {
        return Status::Corruption(
            StrFormat("WALTAIL declares %u events, payload has %zu",
                      tail.event_count, events.size()));
      }
      EXSTREAM_RETURN_NOT_OK(ApplyEvents(s, tail.first_seq, std::move(events),
                                         /*is_chunk=*/false,
                                         frame.payload.size()));
      return AppendAck(s, out);
    }
    default:
      return Status::Corruption("unexpected " +
                                std::string(FrameTypeToString(frame.type)) +
                                " frame from child");
  }
}

namespace {
/// Releases the queue-share bytes on every exit from ApplyEvents.
struct QueueShareGuard {
  TenantHub* hub;
  const std::string* tenant;
  uint64_t bytes;
  bool active;
  ~QueueShareGuard() {
    if (active) hub->LeaveQueue(*tenant, bytes);
  }
};
}  // namespace

Status ReplicationReceiver::ApplyEvents(Session* s, uint64_t first_seq,
                                        std::vector<Event> events,
                                        bool is_chunk, size_t wire_bytes) {
  XStreamSystem* system = hub_->system(s->tenant);
  if (system == nullptr) {
    return Status::Internal("tenant '" + s->tenant + "' vanished mid-session");
  }
  const uint64_t end_seq = first_seq + events.size();
  // Queue-share admission covers the whole wait for the apply lock: it is
  // the bound on bytes a tenant's fan-in may pile up against its own applies.
  const bool queue_ok = hub_->TryEnterQueue(s->tenant, wire_bytes);
  QueueShareGuard queue_guard{hub_, &s->tenant, wire_bytes, queue_ok};
  auto apply_lock = hub_->LockApply(s->tenant);
  uint64_t wm = ledger_.Get(s->tenant, s->node).watermark();
  if (first_seq > wm) {
    // A seq jump can only mean the child shed this range during an outage
    // (the sender never skips otherwise). Record the permanent loss so this
    // tenant's Explains disclose it, persisted so the watermark arithmetic
    // survives a parent restart.
    const uint64_t gap = first_seq - wm;
    EXSTREAM_RETURN_NOT_OK(ledger_.AddGap(s->tenant, s->node, gap));
    system->AddExternalShed(gap);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.gap_events += gap;
    }
    EXSTREAM_LOG(Warn) << "replication gap: " << gap
                       << " events shed by child ('" << s->tenant << "', '"
                       << s->node << "') (seq " << wm << ".." << first_seq
                       << ")";
    wm = first_seq;
  }
  if (end_seq <= wm) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.events_deduped += events.size();
    return Status::OK();  // wholly below the watermark: a retransmit
  }
  const size_t skip = static_cast<size_t>(wm - first_seq);
  if (skip > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.events_deduped += skip;
  }
  if (skip > 0) {
    events.erase(events.begin(), events.begin() + static_cast<ptrdiff_t>(skip));
  }
  const size_t fresh = events.size();
  if (!queue_ok || !hub_->TryChargeQuota(s->tenant, wire_bytes)) {
    // Over quota: the parent sheds the frame but still advances the
    // watermark and ACKs it — the child must not retry a frame the parent
    // has chosen to drop. Disclosed only through this tenant's reports.
    EXSTREAM_RETURN_NOT_OK(ledger_.AddQuotaShed(s->tenant, s->node, fresh));
    system->AddExternalShed(fresh);
    hub_->NoteQuotaShed(s->tenant, fresh, /*queue_share=*/!queue_ok);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.quota_shed_events += fresh;
    }
    EXSTREAM_LOG(Warn) << "replication quota shed: " << fresh
                       << " events from ('" << s->tenant << "', '" << s->node
                       << "')";
    return Status::OK();
  }
  // Sync-then-ack step 1: durably record the in-flight apply before any of
  // its events reach the system, so a crash in between reconciles exactly.
  EXSTREAM_RETURN_NOT_OK(ledger_.BeginPending(s->tenant, s->node, fresh));
  // Through the front door: the tenant's guard/WAL/engine/archive see the
  // identical batch stream its single-node system would, in the same order.
  system->OnEventBatch(std::move(events));
  ledger_.MarkApplied(s->tenant, s->node, fresh);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.events_applied += fresh;
    if (is_chunk) {
      ++stats_.chunks_applied;
    } else {
      ++stats_.tail_frames_applied;
    }
  }
  return Status::OK();
}

Status ReplicationReceiver::AppendAck(Session* s, std::string* out) {
  // The ACK is a durability promise: fsync the tenant's WAL, then durably
  // rewrite the ledger (sync-then-ack), and only then let the ACK leave. A
  // failure at either step ends the session un-acked; the child retransmits
  // and the watermark dedupes.
  if (options_.sync_wal_before_ack) {
    XStreamSystem* system = hub_->system(s->tenant);
    if (system != nullptr) EXSTREAM_RETURN_NOT_OK(system->SyncWal());
  }
  EXSTREAM_RETURN_NOT_OK(ledger_.CommitDurable());
  AckFrame ack;
  ack.ack_seq = ledger_.Get(s->tenant, s->node).watermark();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ack.chunk_id = last_chunk_ids_[{s->tenant, s->node}];
    ++stats_.acks_sent;
  }
  out->append(EncodeFrame(FrameType::kAck, ack.Encode()));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SessionDriver

ReplicationReceiver::SessionDriver::SessionDriver(ReplicationReceiver* receiver)
    : receiver_(receiver), session_(std::make_unique<Session>()) {
  status_ = receiver_->EnsureStateLoaded();
  std::lock_guard<std::mutex> lock(receiver_->mu_);
  ++receiver_->stats_.sessions;
}

ReplicationReceiver::SessionDriver::~SessionDriver() {
  receiver_->ReleaseSession(session_.get());
}

Status ReplicationReceiver::SessionDriver::Feed(std::string_view bytes) {
  if (!status_.ok()) return status_;
  session_->decoder.Feed(bytes);
  for (;;) {
    auto frame = session_->decoder.Next();
    if (!frame.ok()) {
      {
        std::lock_guard<std::mutex> lock(receiver_->mu_);
        ++receiver_->stats_.frame_errors;
      }
      status_ = frame.status();
      return status_;
    }
    if (!frame->has_value()) return Status::OK();
    const Status handled = receiver_->HandleFrame(session_.get(), **frame, &out_);
    if (!handled.ok()) {
      status_ = handled;
      return status_;
    }
    if (session_->hello_done && !receiver_->SessionCurrent(session_.get())) {
      status_ = Status::InvalidArgument("session superseded");
      return status_;
    }
  }
}

}  // namespace exstream
