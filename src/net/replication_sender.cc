#include "net/replication_sender.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "archive/serialization.h"
#include "common/logging.h"
#include "common/strings.h"

namespace exstream {

ReplicationSender::ReplicationSender(ReplicationSenderOptions options)
    : options_(std::move(options)) {}

ReplicationSender::~ReplicationSender() { Stop(); }

void ReplicationSender::Start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread(&ReplicationSender::SenderLoop, this);
}

void ReplicationSender::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool ReplicationSender::SleepUnlessStopped(double ms) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait_for(lock,
                    std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0)),
                    [&] { return stop_; });
  return !stop_;
}

void ReplicationSender::OnBatch(uint64_t first_seq, const EventBatch& batch) {
  if (batch.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!spool_initialized_) {
    // First feed after construction or crash recovery: the stream starts
    // wherever the WAL's oldest surviving record starts.
    spool_first_seq_ = next_expected_ = first_seq;
    shed_floor_ = std::max(shed_floor_, first_seq);
    spool_initialized_ = true;
  }
  const uint64_t end_seq = first_seq + batch.size();
  if (end_seq <= next_expected_) return;  // wholly re-fed (WAL replay overlap)
  size_t skip = 0;
  if (first_seq < next_expected_) {
    skip = static_cast<size_t>(next_expected_ - first_seq);
  } else if (first_seq > next_expected_) {
    // The feed contract (contiguous WAL-durable seqs) was broken upstream.
    // Don't mis-attribute events to the missing range: seal what we have and
    // restart the spool at the new position; the parent will record the gap.
    EXSTREAM_LOG(Warn) << "replication feed gap: expected seq " << next_expected_
                       << ", got " << first_seq;
    while (!spool_.empty()) SealLocked();
    spool_first_seq_ = next_expected_ = first_seq;
  }
  spool_.insert(spool_.end(), batch.begin() + skip, batch.end());
  next_expected_ = end_seq;
  stats_.events_spooled += batch.size() - skip;
  while (spool_.size() >= options_.chunk_events) SealLocked();
}

void ReplicationSender::SealLocked() {
  const size_t n = std::min(spool_.size(), options_.chunk_events);
  if (n == 0) return;
  PendingChunk chunk;
  chunk.chunk_id = next_chunk_id_++;
  chunk.first_seq = spool_first_seq_;
  chunk.count = static_cast<uint32_t>(n);
  {
    std::vector<Event> events(spool_.begin(), spool_.begin() + n);
    chunk.payload = SerializeEvents(events);
  }
  spool_.erase(spool_.begin(), spool_.begin() + n);
  spool_first_seq_ += n;
  tail_sent_seq_ = std::max(tail_sent_seq_, spool_first_seq_);
  pending_.push_back(std::move(chunk));
  ++stats_.chunks_sealed;
  // Bounded queue: a long parent outage sheds the oldest unacked chunks
  // rather than growing without limit. The shed floor advances so the WAL
  // pin does not retain segments nobody will ever resend.
  while (pending_.size() > options_.max_pending_chunks) {
    const PendingChunk& oldest = pending_.front();
    shed_floor_ = std::max(shed_floor_, oldest.first_seq + oldest.count);
    ++stats_.shed_chunks;
    stats_.shed_events += oldest.count;
    pending_.pop_front();
  }
}

uint64_t ReplicationSender::pin_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(acked_seq_, shed_floor_);
}

bool ReplicationSender::WaitForDrain(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return drain_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return pending_.empty() && acked_seq_ >= next_expected_;
  });
}

ReplicationSender::Stats ReplicationSender::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.acked_seq = acked_seq_;
  return s;
}

void ReplicationSender::ApplyAckLocked(const AckFrame& ack) {
  acked_seq_ = std::max(acked_seq_, ack.ack_seq);
  while (!pending_.empty() &&
         pending_.front().first_seq + pending_.front().count <= acked_seq_) {
    pending_.pop_front();
  }
  drain_cv_.notify_all();
}

Result<TcpSocket> ReplicationSender::ConnectAndHandshake(FrameDecoder* decoder) {
  EXSTREAM_ASSIGN_OR_RETURN(
      TcpSocket sock, TcpSocket::Connect(options_.host, options_.port,
                                         options_.connect_timeout_ms));
  HelloFrame hello;
  hello.tenant = options_.tenant;
  hello.node_id = options_.node_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hello.floor_seq =
        pending_.empty() ? std::max(spool_first_seq_, shed_floor_)
                         : std::max(pending_.front().first_seq, shed_floor_);
  }
  EXSTREAM_RETURN_NOT_OK(
      sock.SendAll(EncodeFrame(FrameType::kHello, hello.Encode())));

  // Read until the HELLOACK lands (one io_timeout budget overall).
  char buf[4096];
  for (;;) {
    EXSTREAM_ASSIGN_OR_RETURN(auto frame, decoder->Next());
    if (frame.has_value()) {
      if (frame->type != FrameType::kHelloAck) {
        return Status::Corruption(
            StrFormat("expected HELLOACK, got %.*s frame",
                      static_cast<int>(FrameTypeToString(frame->type).size()),
                      FrameTypeToString(frame->type).data()));
      }
      EXSTREAM_ASSIGN_OR_RETURN(const HelloAckFrame ack,
                                HelloAckFrame::Decode(frame->payload));
      if (!ack.accepted) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.hello_rejects;
        return Status::InvalidArgument("parent rejected session: " + ack.message);
      }
      std::lock_guard<std::mutex> lock(mu_);
      // The parent's resume watermark acts as an ACK for everything below it
      // (it survived the outage on the parent's side); a fresh session also
      // retransmits every still-pending chunk, so mark them unsent.
      ApplyAckLocked(AckFrame{ack.resume_seq, 0});
      for (PendingChunk& chunk : pending_) chunk.sent = false;
      tail_sent_seq_ = spool_first_seq_;  // resend the tail too
      return sock;
    }
    EXSTREAM_ASSIGN_OR_RETURN(
        const size_t n, sock.Recv(buf, sizeof(buf), options_.io_timeout_ms));
    if (n == 0) return Status::IOError("parent closed during handshake");
    decoder->Feed(std::string_view(buf, n));
  }
}

Status ReplicationSender::PollAcks(TcpSocket* sock, FrameDecoder* decoder,
                                   int timeout_ms) {
  char buf[4096];
  for (;;) {
    for (;;) {
      EXSTREAM_ASSIGN_OR_RETURN(auto frame, decoder->Next());
      if (!frame.has_value()) break;
      if (frame->type != FrameType::kAck) {
        return Status::Corruption(
            StrFormat("unexpected %.*s frame from parent",
                      static_cast<int>(FrameTypeToString(frame->type).size()),
                      FrameTypeToString(frame->type).data()));
      }
      EXSTREAM_ASSIGN_OR_RETURN(const AckFrame ack,
                                AckFrame::Decode(frame->payload));
      std::lock_guard<std::mutex> lock(mu_);
      ApplyAckLocked(ack);
      timeout_ms = 0;  // drain whatever else already arrived, then return
    }
    const auto got = sock->Recv(buf, sizeof(buf), timeout_ms);
    if (!got.ok()) {
      if (got.status().IsDeadlineExceeded()) return Status::OK();  // no data
      return got.status();
    }
    if (*got == 0) return Status::IOError("parent closed the connection");
    decoder->Feed(std::string_view(buf, *got));
  }
}

void ReplicationSender::SenderLoop() {
  Backoff backoff(options_.reconnect);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stop_) return;
    }
    FrameDecoder decoder;
    auto connected = ConnectAndHandshake(&decoder);
    if (!connected.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.connect_failures;
      }
      if (!SleepUnlessStopped(backoff.NextSleepMs())) return;
      continue;
    }
    TcpSocket sock = std::move(*connected);
    backoff.Reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.connected = true;
    }

    Status session = Status::OK();
    while (session.ok()) {
      {
        std::lock_guard<std::mutex> lock(stop_mu_);
        if (stop_) break;
      }
      // Pick the next frame to send under the spool lock, send it outside.
      std::string wire;
      bool sent_chunk = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto next =
            std::find_if(pending_.begin(), pending_.end(),
                         [](const PendingChunk& c) { return !c.sent; });
        if (next != pending_.end()) {
          ChunkFrame frame;
          frame.chunk_id = next->chunk_id;
          frame.first_seq = next->first_seq;
          frame.event_count = next->count;
          frame.events = next->payload;
          wire = EncodeFrame(FrameType::kChunk, frame.Encode());
          next->sent = true;
          ++stats_.chunks_sent;
          sent_chunk = true;
        } else if (!spool_.empty() &&
                   spool_first_seq_ + spool_.size() > tail_sent_seq_ &&
                   spool_first_seq_ + spool_.size() > acked_seq_) {
          WalTailFrame frame;
          frame.first_seq = spool_first_seq_;
          frame.event_count = static_cast<uint32_t>(spool_.size());
          frame.events = SerializeEvents(spool_);
          wire = EncodeFrame(FrameType::kWalTail, frame.Encode());
          tail_sent_seq_ = spool_first_seq_ + spool_.size();
          ++stats_.tail_frames_sent;
        }
      }
      if (!wire.empty()) {
        session = sock.SendAll(wire);
        if (session.ok()) {
          // Opportunistic drain: after a chunk keep the pipeline moving, after
          // the tail wait a beat for the covering ACK.
          session = PollAcks(&sock, &decoder, sent_chunk ? 0 : options_.idle_poll_ms);
        }
      } else {
        session = PollAcks(&sock, &decoder, options_.idle_poll_ms);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.connected = false;
      if (!session.ok()) ++stats_.reconnects;
      for (PendingChunk& chunk : pending_) chunk.sent = false;
      tail_sent_seq_ = spool_first_seq_;
    }
    if (!session.ok()) {
      EXSTREAM_LOG(Info) << "replication session to " << options_.host << ":"
                         << options_.port << " ended: " << session.ToString();
      if (!SleepUnlessStopped(backoff.NextSleepMs())) return;
    }
  }
}

}  // namespace exstream
