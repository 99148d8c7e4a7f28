#ifndef MOST_DISTRIBUTED_RELIABLE_CHANNEL_H_
#define MOST_DISTRIBUTED_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/budget.h"
#include "distributed/network.h"

namespace most {

/// One participant's end of the reliability layer between the distributed
/// query protocol and the lossy SimNetwork.
///
/// The wireless medium the paper assumes loses, duplicates, delays and
/// partitions messages; the protocol above (coordinator.h, mobile_node.h)
/// wants two delivery classes:
///
/// * reliable   — QueryRequest, ObjectReport, AnswerBlock, CancelQuery,
///   QueryDone. Each (src, dst) pair carries an ordered stream: frames
///   get consecutive sequence numbers, unacknowledged frames are
///   retransmitted with capped exponential backoff on every DeliverDue
///   tick, the receiver suppresses duplicates and buffers out-of-order
///   arrivals, and the application handler sees each payload exactly
///   once, in send order. Acknowledgements are cumulative
///   (AckFrame::ack_through = next sequence number the receiver expects),
///   so an ack also certifies that everything before it was *delivered to
///   the application*, not merely received.
/// * best-effort — ObjectState position beacons (the paper's
///   dead-reckoning updates): latest-wins, a lost beacon is superseded by
///   the next one, so they bypass sequencing entirely.
///
/// Retransmission persists while a peer is unreachable — one message every
/// `rto_max` ticks per pending frame — but it is *bounded*, not infinite
/// (docs/robustness.md): each peer's unacked buffer is capped in messages
/// and bytes (SendReliable returns Backpressure and sheds the frame at
/// capacity instead of queueing without bound), and a peer that has been
/// silent past the dead-peer horizon while frames are pending has its
/// buffer evicted outright. The caps and the horizon are the channel_*
/// fields of ResourceGovernor::Limits, read on every send and tick; the
/// endpoint keeps no copy of them. Eviction restarts the stream under a new
/// epoch: the next frame the revived peer sees carries a higher
/// ReliableFrame::epoch, the receiver adopts it and resets its sequence
/// state, so the pair resynchronizes instead of waiting forever on frames
/// that no longer exist. Callers that need the evicted state to converge
/// anyway (the coordinator) rely on the protocol-level partition-heal
/// re-sync, which re-issues continuous queries to revived nodes. With
/// every channel limit at 0 (the governor's default), buffers are
/// unbounded and retransmission never gives up — the pre-governance
/// behaviour, on which post-heal convergence to the lossless run rests.
///
/// The endpoint registers itself as a network node; the wrapped protocol
/// object installs its message handler with SetHandler and sends through
/// SendReliable / SendBestEffort. Handlers receive plain AppPayload
/// messages — framing and acks never reach them.
class ReliableEndpoint {
 public:
  struct Options {
    /// Ticks before the first retransmission of an unacked frame. Should
    /// comfortably exceed one round trip (2 * latency).
    Tick rto_initial = 4;
    /// Backoff cap: retransmission interval doubles per retry up to this.
    Tick rto_max = 32;
    /// Fraction of either unacked-buffer cap
    /// (ResourceGovernor::Limits::channel_max_unacked_*) at which
    /// SendReliable starts reporting kThrottle (the frame is still sent).
    double throttle_fraction = 0.75;
    /// Reclaim this existing network node id instead of registering a new
    /// one — how a durable node restarting from its WAL keeps its
    /// identity (the SimNetwork entry outlives the crashed endpoint,
    /// whose destructor only nulls the handler). Ignored when the id is
    /// unknown to the network.
    NodeId reclaim_node_id = kInvalidNodeId;
    /// Epoch newly created send streams start at. A restarted node sets
    /// this to its bumped incarnation, so every frame it sends outranks
    /// its dead pre-crash stream and receivers resynchronize instead of
    /// waiting on sequence numbers that died with the old process.
    uint64_t initial_epoch = 0;
  };

  ReliableEndpoint(SimNetwork* network, Clock* clock);
  ReliableEndpoint(SimNetwork* network, Clock* clock, Options options);
  ~ReliableEndpoint();

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  NodeId node_id() const { return node_id_; }
  SimNetwork* network() const { return network_; }

  using Handler = std::function<void(const Message&)>;

  /// Application handler for delivered payloads (reliable ones exactly
  /// once and in order per peer; best-effort ones as they arrive).
  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  /// Observer invoked for every raw incoming network message — frames and
  /// acks included — before any channel processing. Liveness tracking
  /// hangs off this: any traffic from a peer proves it reachable.
  void SetRawObserver(Handler observer) { raw_observer_ = std::move(observer); }

  /// Invoked with the peer whenever frames to it are dropped for good — a
  /// send refused at capacity (kShed) or a buffer evicted past the dead
  /// horizon. The stream itself stays consistent; what the dropped
  /// payloads carried is the owner's to re-send (the coordinator and the
  /// mobile node re-synchronize the pair once the peer has room again).
  using LossObserver = std::function<void(NodeId peer)>;
  void SetLossObserver(LossObserver observer) {
    loss_observer_ = std::move(observer);
  }

  /// Queues one reliable frame. Returns the peer's backpressure state
  /// *after* the send: kOpen/kThrottle mean the frame is on the wire (a
  /// throttled producer should slow down); kShed means the buffer was at
  /// capacity and the frame was dropped without being sent — the caller
  /// must treat the peer as unreachable for this message (the coordinator
  /// counts it into the missing set and degrades the answer to kStale).
  Backpressure SendReliable(NodeId to, AppPayload payload);
  void SendBestEffort(NodeId to, AppPayload payload);
  /// Reliable / best-effort send to every other node in the network.
  /// Per-peer shed results are observable via PeerBackpressure.
  void BroadcastReliable(const AppPayload& payload);
  void BroadcastBestEffort(const AppPayload& payload);

  /// Current backpressure grade of one peer's send buffer (kOpen for a
  /// peer never sent to).
  Backpressure PeerBackpressure(NodeId to) const;

  /// Restarts the send stream to `peer` under a new epoch and re-enqueues
  /// every pending payload, in sequence order, on the fresh stream. This
  /// is the rejoin counterpart of dead-horizon eviction: eviction *drops*
  /// the buffer (the peer is presumed gone for good), a restart *keeps*
  /// it — queries issued while a node was dead go back on the wire under
  /// the epoch its reborn receiver will adopt, instead of retransmitting
  /// forever as (old-epoch, high-seq) frames a fresh receiver buffers but
  /// can never complete. No-op for a peer never sent to.
  void RestartPeerStream(NodeId peer);

  /// Current epoch of the send stream to `peer` (initial_epoch for a peer
  /// never sent to). Exposed for the epoch edge-case tests.
  uint64_t SendEpoch(NodeId peer) const;

  /// Frames sent but not yet cumulatively acknowledged, across all peers.
  /// Zero means the channel is quiescent.
  size_t unacked() const;
  /// Estimated wire bytes of those frames, across all peers.
  size_t unacked_bytes() const;

  struct Stats {
    uint64_t frames_sent = 0;  ///< First transmissions (not retries).
    uint64_t retransmissions = 0;
    uint64_t acks_sent = 0;
    uint64_t delivered = 0;  ///< Handed to the application handler.
    uint64_t duplicates_suppressed = 0;
    uint64_t out_of_order_buffered = 0;
    /// Frames dropped by the bounded buffer: refused at send (kShed) or
    /// discarded when a dead peer's buffer was evicted.
    uint64_t frames_shed = 0;
    uint64_t peers_evicted = 0;
    /// Send streams restarted for a rejoining peer (RestartPeerStream):
    /// pending frames were re-enqueued, not dropped.
    uint64_t streams_restarted = 0;
  };
  /// By-value snapshot over this endpoint's attached atomic counters
  /// (most_rc_* series; summed across endpoints by the registry).
  Stats stats() const;

 private:
  struct PendingFrame {
    AppPayload payload;
    Tick next_retry = 0;
    Tick rto = 0;
    size_t bytes = 0;  ///< EstimateBytes of the full frame, for the caps.
    /// Context of the original SendReliable call: retransmissions (and
    /// stream-restart re-sends) go out under it, so a frame that needed
    /// five retries still belongs to the trace that caused it.
    obs::TraceContext trace;
  };
  struct SendState {
    uint64_t next_seq = 0;
    /// Stream epoch: bumped on eviction; frames/acks carry it so both
    /// sides agree which incarnation of the stream a sequence number
    /// belongs to.
    uint64_t epoch = 0;
    size_t pending_bytes = 0;
    /// Last tick any traffic arrived from this peer (initialized at first
    /// send, so the dead horizon counts from when we started waiting).
    Tick last_heard = 0;
    std::map<uint64_t, PendingFrame> pending;  ///< By sequence number.
  };
  struct BufferedFrame {
    AppPayload payload;
    /// Context the frame arrived under, replayed when the gap closes and
    /// the frame is finally handed to the application.
    obs::TraceContext trace;
  };
  struct RecvState {
    uint64_t epoch = 0;
    uint64_t next_expected = 0;
    std::map<uint64_t, BufferedFrame> buffer;  ///< Out-of-order arrivals.
  };

  Backpressure GradePressure(const SendState& state) const;
  /// Lazy SendState creation honoring Options::initial_epoch.
  SendState& GetSendState(NodeId peer);

  void OnMessage(const Message& message);
  void OnTick();
  void DeliverToApp(const Message& envelope, const AppPayload& payload,
                    const obs::TraceContext& trace);

  SimNetwork* network_;
  Clock* clock_;
  Options options_;
  NodeId node_id_ = kInvalidNodeId;
  uint64_t tick_hook_id_ = 0;
  uint64_t governor_probe_id_ = 0;
  Handler handler_;
  Handler raw_observer_;
  LossObserver loss_observer_;
  std::map<NodeId, SendState> send_;
  std::map<NodeId, RecvState> recv_;
  /// Stats is a thin snapshot view over these (attached to the global
  /// registry for the endpoint's lifetime), plus in-flight depth/byte
  /// gauges mirroring unacked()/unacked_bytes().
  obs::Counter frames_sent_;
  obs::Counter retransmissions_;
  obs::Counter acks_sent_;
  obs::Counter delivered_;
  obs::Counter duplicates_suppressed_;
  obs::Counter out_of_order_buffered_;
  obs::Counter frames_shed_;
  obs::Counter peers_evicted_;
  obs::Counter streams_restarted_;
  obs::Gauge unacked_gauge_;
  obs::Gauge pending_bytes_gauge_;
  std::vector<uint64_t> attach_ids_;
};

}  // namespace most

#endif  // MOST_DISTRIBUTED_RELIABLE_CHANNEL_H_
