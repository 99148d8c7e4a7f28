#include "distributed/reliable_channel.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/governor.h"

namespace most {

ReliableEndpoint::ReliableEndpoint(SimNetwork* network, Clock* clock)
    : ReliableEndpoint(network, clock, Options()) {}

ReliableEndpoint::ReliableEndpoint(SimNetwork* network, Clock* clock,
                                   Options options)
    : network_(network), clock_(clock), options_(options) {
  if (options_.reclaim_node_id != kInvalidNodeId &&
      network_->HasNode(options_.reclaim_node_id)) {
    // A restarted endpoint takes its dead predecessor's seat: same id,
    // fresh sequence state (fenced by initial_epoch on the send side).
    node_id_ = options_.reclaim_node_id;
    network_->SetHandler(node_id_, [this](const Message& m) { OnMessage(m); });
  } else {
    node_id_ = network_->AddNode([this](const Message& m) { OnMessage(m); });
  }
  tick_hook_id_ = network_->AddTickHook([this] { OnTick(); });
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  attach_ids_ = {
      r.AttachCounter("most_rc_frames_sent_total",
                      "Reliable frames first-transmitted", {}, &frames_sent_),
      r.AttachCounter("most_rc_retransmissions_total",
                      "Reliable frame retransmissions", {},
                      &retransmissions_),
      r.AttachCounter("most_rc_acks_sent_total",
                      "Cumulative acknowledgements sent", {}, &acks_sent_),
      r.AttachCounter("most_rc_delivered_total",
                      "Payloads handed to the application handler", {},
                      &delivered_),
      r.AttachCounter("most_rc_duplicates_suppressed_total",
                      "Duplicate reliable frames suppressed", {},
                      &duplicates_suppressed_),
      r.AttachCounter("most_rc_out_of_order_buffered_total",
                      "Out-of-order frames buffered for resequencing", {},
                      &out_of_order_buffered_),
      r.AttachCounter("most_rc_frames_shed_total",
                      "Reliable frames dropped by the bounded send buffer "
                      "(refused at capacity or evicted with a dead peer)",
                      {}, &frames_shed_),
      r.AttachCounter("most_rc_peers_evicted_total",
                      "Peer send buffers evicted past the dead horizon", {},
                      &peers_evicted_),
      r.AttachCounter("most_rc_streams_restarted_total",
                      "Send streams restarted under a new epoch for a "
                      "rejoining peer (pending frames re-enqueued)",
                      {}, &streams_restarted_),
      r.AttachGauge("most_rc_unacked_frames",
                    "Frames sent but not yet cumulatively acknowledged", {},
                    &unacked_gauge_),
      r.AttachGauge("most_rc_pending_bytes",
                    "Estimated wire bytes of unacknowledged frames", {},
                    &pending_bytes_gauge_),
  };
  // Expose this endpoint's per-peer pressure to operator tooling
  // (`most_shell health`) without it having to hold endpoint pointers.
  // Probes run on the simulation thread (BackpressureSnapshot callers
  // must not race DeliverDue, same as every other SimNetwork access).
  governor_probe_id_ = ResourceGovernor::Global().RegisterBackpressureProbe(
      [this]() {
        std::vector<ResourceGovernor::PeerPressure> out;
        for (const auto& [peer, state] : send_) {
          out.push_back({node_id_, peer, GradePressure(state),
                         state.pending.size(), state.pending_bytes});
        }
        return out;
      });
}

ReliableEndpoint::~ReliableEndpoint() {
  ResourceGovernor::Global().UnregisterBackpressureProbe(governor_probe_id_);
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  for (uint64_t id : attach_ids_) r.DetachMetric(id);
  network_->RemoveTickHook(tick_hook_id_);
  network_->SetHandler(node_id_, nullptr);
}

ReliableEndpoint::Stats ReliableEndpoint::stats() const {
  Stats s;
  s.frames_sent = frames_sent_.value();
  s.retransmissions = retransmissions_.value();
  s.acks_sent = acks_sent_.value();
  s.delivered = delivered_.value();
  s.duplicates_suppressed = duplicates_suppressed_.value();
  s.out_of_order_buffered = out_of_order_buffered_.value();
  s.frames_shed = frames_shed_.value();
  s.peers_evicted = peers_evicted_.value();
  s.streams_restarted = streams_restarted_.value();
  return s;
}

Backpressure ReliableEndpoint::GradePressure(const SendState& state) const {
  const ResourceGovernor::Limits limits = ResourceGovernor::Global().limits();
  const size_t max_msgs = limits.channel_max_unacked_messages;
  const size_t max_bytes = limits.channel_max_unacked_bytes;
  if (max_msgs == 0 && max_bytes == 0) return Backpressure::kOpen;
  if ((max_msgs > 0 && state.pending.size() >= max_msgs) ||
      (max_bytes > 0 && state.pending_bytes >= max_bytes)) {
    return Backpressure::kShed;
  }
  const double frac = options_.throttle_fraction;
  if ((max_msgs > 0 &&
       static_cast<double>(state.pending.size()) >=
           frac * static_cast<double>(max_msgs)) ||
      (max_bytes > 0 &&
       static_cast<double>(state.pending_bytes) >=
           frac * static_cast<double>(max_bytes))) {
    return Backpressure::kThrottle;
  }
  return Backpressure::kOpen;
}

Backpressure ReliableEndpoint::PeerBackpressure(NodeId to) const {
  auto it = send_.find(to);
  if (it == send_.end()) return Backpressure::kOpen;
  return GradePressure(it->second);
}

ReliableEndpoint::SendState& ReliableEndpoint::GetSendState(NodeId peer) {
  auto it = send_.find(peer);
  if (it == send_.end()) {
    it = send_.emplace(peer, SendState{}).first;
    it->second.epoch = options_.initial_epoch;
  }
  return it->second;
}

uint64_t ReliableEndpoint::SendEpoch(NodeId peer) const {
  auto it = send_.find(peer);
  return it == send_.end() ? options_.initial_epoch : it->second.epoch;
}

void ReliableEndpoint::RestartPeerStream(NodeId peer) {
  auto it = send_.find(peer);
  if (it == send_.end()) return;
  SendState& state = it->second;
  std::vector<std::pair<AppPayload, obs::TraceContext>> carried;
  carried.reserve(state.pending.size());
  for (auto& [seq, pending] : state.pending) {
    carried.emplace_back(std::move(pending.payload), pending.trace);
  }
  unacked_gauge_.Add(-static_cast<int64_t>(state.pending.size()));
  pending_bytes_gauge_.Add(-static_cast<int64_t>(state.pending_bytes));
  state.pending.clear();
  state.pending_bytes = 0;
  state.next_seq = 0;
  state.epoch += 1;
  state.last_heard = clock_->Now();
  streams_restarted_.Inc();
  for (auto& [payload, trace] : carried) {
    // Re-send under the original context: the restarted frame still
    // belongs to the trace that first queued it.
    obs::TraceContextGuard guard(trace);
    SendReliable(peer, std::move(payload));
  }
}

Backpressure ReliableEndpoint::SendReliable(NodeId to, AppPayload payload) {
  SendState& state = GetSendState(to);
  if (state.pending.empty() && state.last_heard == 0) {
    // First contact: the dead horizon counts from when we start waiting.
    state.last_heard = clock_->Now();
  }
  if (GradePressure(state) == Backpressure::kShed) {
    frames_shed_.Inc();
    if (loss_observer_) loss_observer_(to);
    return Backpressure::kShed;
  }
  uint64_t seq = state.next_seq++;
  PendingFrame pending;
  pending.payload = std::move(payload);
  pending.trace = obs::CurrentTraceContext();
  pending.rto = options_.rto_initial;
  pending.next_retry = TickSaturatingAdd(clock_->Now(), pending.rto);
  ReliableFrame frame{seq, state.epoch, pending.payload};
  pending.bytes = EstimateBytes(MessagePayload(frame));
  network_->Send(node_id_, to, std::move(frame));
  state.pending_bytes += pending.bytes;
  pending_bytes_gauge_.Add(static_cast<int64_t>(pending.bytes));
  state.pending.emplace(seq, std::move(pending));
  frames_sent_.Inc();
  unacked_gauge_.Add(1);
  // This frame went out, so never report kShed here — even if it just
  // filled the buffer. kShed is reserved for frames actually dropped;
  // "full after this send" is the strongest possible throttle signal.
  Backpressure after = GradePressure(state);
  return after == Backpressure::kShed ? Backpressure::kThrottle : after;
}

void ReliableEndpoint::SendBestEffort(NodeId to, AppPayload payload) {
  std::visit([&](auto&& inner) { network_->Send(node_id_, to, inner); },
             std::move(payload));
}

void ReliableEndpoint::BroadcastReliable(const AppPayload& payload) {
  for (NodeId id : network_->NodeIds()) {
    if (id == node_id_) continue;
    SendReliable(id, payload);
  }
}

void ReliableEndpoint::BroadcastBestEffort(const AppPayload& payload) {
  for (NodeId id : network_->NodeIds()) {
    if (id == node_id_) continue;
    SendBestEffort(id, payload);
  }
}

size_t ReliableEndpoint::unacked() const {
  size_t total = 0;
  for (const auto& [peer, state] : send_) total += state.pending.size();
  return total;
}

size_t ReliableEndpoint::unacked_bytes() const {
  size_t total = 0;
  for (const auto& [peer, state] : send_) total += state.pending_bytes;
  return total;
}

void ReliableEndpoint::DeliverToApp(const Message& envelope,
                                    const AppPayload& payload,
                                    const obs::TraceContext& trace) {
  delivered_.Inc();
  if (!handler_) return;
  Message m = envelope;
  std::visit([&](const auto& inner) { m.payload = inner; }, payload);
  m.trace = trace;
  // A buffered frame is delivered while a *later* frame's context is
  // ambient; replay the context it originally arrived under.
  obs::TraceContextGuard guard(trace);
  handler_(m);
}

void ReliableEndpoint::OnMessage(const Message& message) {
  if (raw_observer_) raw_observer_(message);
  // Any traffic from a peer proves it alive for the eviction horizon.
  if (auto sit = send_.find(message.from); sit != send_.end()) {
    sit->second.last_heard = clock_->Now();
  }
  if (const auto* frame = std::get_if<ReliableFrame>(&message.payload)) {
    RecvState& state = recv_[message.from];
    if (frame->epoch < state.epoch) {
      // A straggler from a stream incarnation the sender has abandoned;
      // acking it would only confuse the new stream.
      duplicates_suppressed_.Inc();
      return;
    }
    if (frame->epoch > state.epoch) {
      // The sender evicted this stream and restarted it: adopt the new
      // epoch and resequence from zero. Frames buffered from the old
      // incarnation can never complete.
      state.epoch = frame->epoch;
      state.next_expected = 0;
      state.buffer.clear();
    }
    if (frame->seq < state.next_expected) {
      // Already delivered: a retransmission or a network duplicate.
      duplicates_suppressed_.Inc();
    } else if (frame->seq == state.next_expected) {
      state.next_expected += 1;
      DeliverToApp(message, frame->inner, message.trace);
      // Drain any buffered successors that are now in order.
      auto it = state.buffer.find(state.next_expected);
      while (it != state.buffer.end()) {
        state.next_expected += 1;
        DeliverToApp(message, it->second.payload, it->second.trace);
        state.buffer.erase(it);
        it = state.buffer.find(state.next_expected);
      }
    } else {
      // A gap: hold the frame until its predecessors arrive.
      if (state.buffer
              .emplace(frame->seq, BufferedFrame{frame->inner, message.trace})
              .second) {
        out_of_order_buffered_.Inc();
      } else {
        duplicates_suppressed_.Inc();
      }
    }
    // Cumulative ack, sent for every arrival (including duplicates, whose
    // original ack may have been lost).
    acks_sent_.Inc();
    network_->Send(node_id_, message.from,
                   AckFrame{state.epoch, state.next_expected});
    return;
  }
  if (const auto* ack = std::get_if<AckFrame>(&message.payload)) {
    SendState& state = GetSendState(message.from);
    if (ack->epoch != state.epoch) return;  // Ack for an evicted stream.
    auto it = state.pending.begin();
    while (it != state.pending.end() && it->first < ack->ack_through) {
      state.pending_bytes -= it->second.bytes;
      pending_bytes_gauge_.Add(-static_cast<int64_t>(it->second.bytes));
      it = state.pending.erase(it);
      unacked_gauge_.Add(-1);
    }
    return;
  }
  // Best-effort payload: hand straight to the application.
  delivered_.Inc();
  if (handler_) handler_(message);
}

void ReliableEndpoint::OnTick() {
  Tick now = clock_->Now();
  const Tick horizon =
      ResourceGovernor::Global().limits().channel_peer_dead_horizon;
  std::vector<NodeId> evicted;
  for (auto& [peer, state] : send_) {
    if (horizon > 0 && !state.pending.empty() &&
        now >= TickSaturatingAdd(state.last_heard, horizon)) {
      // The peer has been silent past the horizon with frames pending:
      // stop spending bandwidth and memory on it. The stream restarts
      // under a new epoch, so if the peer ever rejoins, the first new
      // frame resynchronizes it; the dropped payloads are the caller's
      // (coordinator re-sync / kStale accounting) problem by design.
      frames_shed_.Inc(state.pending.size());
      unacked_gauge_.Add(-static_cast<int64_t>(state.pending.size()));
      pending_bytes_gauge_.Add(-static_cast<int64_t>(state.pending_bytes));
      state.pending.clear();
      state.pending_bytes = 0;
      state.next_seq = 0;
      state.epoch += 1;
      state.last_heard = now;
      peers_evicted_.Inc();
      evicted.push_back(peer);
      continue;
    }
    for (auto& [seq, pending] : state.pending) {
      if (now < pending.next_retry) continue;
      obs::TraceContextGuard guard(pending.trace);
      network_->Send(node_id_, peer,
                     ReliableFrame{seq, state.epoch, pending.payload});
      retransmissions_.Inc();
      pending.rto = std::min<Tick>(
          TickSaturatingAdd(pending.rto, pending.rto), options_.rto_max);
      pending.next_retry = TickSaturatingAdd(now, pending.rto);
    }
  }
  if (loss_observer_) {
    for (NodeId peer : evicted) loss_observer_(peer);
  }
}

}  // namespace most
