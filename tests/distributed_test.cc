#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "common/failpoint.h"
#include "common/rng.h"
#include "distributed/coordinator.h"
#include "distributed/mobile_node.h"
#include "distributed/network.h"
#include "distributed/reliable_channel.h"
#include "distributed/transmission.h"
#include "ftl/parser.h"
#include "obs/governor.h"
#include "scoped_governor_limits.h"
#include "test_seed.h"

namespace most {
namespace {

ObjectState MakeState(ObjectId id, Point2 pos, Vec2 vel, Tick at = 0) {
  ObjectState s;
  s.id = id;
  s.at = at;
  s.position = pos;
  s.velocity = vel;
  return s;
}

TEST(SimNetworkTest, DeliversAfterLatency) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 2});
  std::vector<Tick> received;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode(
      [&](const Message& m) { received.push_back(clock.Now()); });
  net.Send(a, b, CancelQuery{1});
  net.DeliverDue();
  EXPECT_TRUE(received.empty());
  clock.Advance(1);
  net.DeliverDue();
  EXPECT_TRUE(received.empty());
  clock.Advance(1);
  net.DeliverDue();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 2);
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST(SimNetworkTest, StatsSnapshotIsRaceFree) {
  // A monitoring thread snapshots stats() while the simulation thread
  // drives traffic. Every field is its own atomic counter, so the reader
  // never tears a word (run under -DMOST_SANITIZE=thread to verify) and
  // counters are monotone.
  Clock clock;
  SimNetwork net(&clock, {.latency = 1, .loss_probability = 0.2});
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([](const Message&) {});
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_sent = 0;
    while (!stop.load()) {
      SimNetwork::Stats s = net.stats();
      ASSERT_GE(s.messages_sent, last_sent) << "counter went backwards";
      last_sent = s.messages_sent;
    }
  });
  for (int i = 0; i < 2000; ++i) {
    net.Send(a, b, CancelQuery{static_cast<uint64_t>(i)});
    clock.Advance(1);
    net.DeliverDue();
  }
  stop.store(true);
  reader.join();
  SimNetwork::Stats s = net.stats();
  EXPECT_EQ(s.messages_sent, 2000u);
  EXPECT_GT(s.dropped_loss, 0u);
}

TEST(SimNetworkTest, DisconnectionDropsMessages) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 0});
  int received = 0;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([&](const Message&) { ++received; });
  net.SetConnected(b, false);
  net.Send(a, b, CancelQuery{1});
  net.DeliverDue();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_disconnected, 1u);
  EXPECT_EQ(net.stats().dropped_loss, 0u);
  EXPECT_EQ(net.stats().dropped_total(), 1u);
  net.SetConnected(b, true);
  net.Send(a, b, CancelQuery{1});
  net.DeliverDue();
  EXPECT_EQ(received, 1);
}

TEST(SimNetworkTest, BroadcastReachesAllOthers) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 0});
  int received = 0;
  NodeId a = net.AddNode([&](const Message&) { ++received; });
  net.AddNode([&](const Message&) { ++received; });
  net.AddNode([&](const Message&) { ++received; });
  net.Broadcast(a, CancelQuery{1});
  net.DeliverDue();
  EXPECT_EQ(received, 2);  // Not delivered to the sender.
}

TEST(SimNetworkTest, LossyLinkDropsRoughlyTheConfiguredFraction) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 0, .loss_probability = 0.3, .seed = 9});
  int received = 0;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([&](const Message&) { ++received; });
  for (int i = 0; i < 1000; ++i) {
    net.Send(a, b, CancelQuery{static_cast<uint64_t>(i)});
  }
  net.DeliverDue();
  EXPECT_EQ(net.stats().dropped_loss,
            1000u - static_cast<uint64_t>(received));
  EXPECT_EQ(net.stats().dropped_disconnected, 0u);
  // Within a loose band around 30%.
  EXPECT_GT(net.stats().dropped_loss, 200u);
  EXPECT_LT(net.stats().dropped_loss, 400u);
}

TEST(SimNetworkTest, DuplicationDeliversCopies) {
  Clock clock;
  SimNetwork net(&clock,
                 {.latency = 0, .duplicate_probability = 1.0, .seed = 5});
  int received = 0;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([&](const Message&) { ++received; });
  net.Send(a, b, CancelQuery{1});
  clock.Advance(10);  // Let the jittered duplicate come due as well.
  net.DeliverDue();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(net.stats().duplicated, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
}

TEST(SimNetworkTest, ReorderingDelaysMessages) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1,
                          .reorder_probability = 1.0,
                          .reorder_jitter = 5,
                          .seed = 5});
  std::vector<uint64_t> order;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([&](const Message& m) {
    order.push_back(std::get<CancelQuery>(m.payload).qid);
  });
  for (uint64_t i = 0; i < 50; ++i) net.Send(a, b, CancelQuery{i});
  for (int t = 0; t < 10; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_EQ(order.size(), 50u);
  EXPECT_EQ(net.stats().reordered, 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "jitter never changed the arrival order";
}

TEST(SimNetworkTest, PartitionBlocksUntilHealed) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  int received = 0;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([&](const Message&) { ++received; });
  net.Partition("cut", {a}, {b});
  EXPECT_FALSE(net.Reachable(a, b));
  EXPECT_FALSE(net.Reachable(b, a));
  net.Send(a, b, CancelQuery{1});
  clock.Advance();
  net.DeliverDue();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
  net.Heal("cut");
  EXPECT_TRUE(net.Reachable(a, b));
  net.Send(a, b, CancelQuery{1});
  clock.Advance();
  net.DeliverDue();
  EXPECT_EQ(received, 1);
}

TEST(SimNetworkTest, PartitionCutsInFlightMessages) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 3});
  int received = 0;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([&](const Message&) { ++received; });
  net.Send(a, b, CancelQuery{1});  // In flight for 3 ticks.
  net.Partition("cut", {a}, {b});  // Cut appears while it is airborne.
  clock.Advance(3);
  net.DeliverDue();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
}

TEST(SimNetworkTest, FailpointForcesDropsPerPayloadType) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 0});
  int cancels = 0, reports = 0;
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([&](const Message& m) {
    if (std::holds_alternative<CancelQuery>(m.payload)) ++cancels;
    if (std::holds_alternative<ObjectReport>(m.payload)) ++reports;
  });
  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Arm("dist/net/send/cancel_query", "error*2").ok());
  net.Send(a, b, CancelQuery{1});
  net.Send(a, b, CancelQuery{2});
  net.Send(a, b, CancelQuery{3});
  net.Send(a, b, ObjectReport{});  // Different payload type: unaffected.
  net.DeliverDue();
  EXPECT_EQ(cancels, 1);  // Budget *2 dropped the first two only.
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(net.stats().dropped_injected, 2u);
  EXPECT_GE(reg.triggered("dist/net/send/cancel_query"), 2u);
  reg.DisarmAll();
}

TEST(SimNetworkTest, BytesAccounted) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 0});
  NodeId a = net.AddNode(nullptr);
  NodeId b = net.AddNode([](const Message&) {});
  ObjectState s = MakeState(1, {0, 0}, {1, 1});
  s.attrs["fuel"] = 10;
  net.Send(a, b, s);
  EXPECT_EQ(net.stats().bytes_sent, EstimateBytes(MessagePayload(s)));
  EXPECT_GT(net.stats().bytes_sent, 0u);
}

// ---- Reliable channel -----------------------------------------------------

TEST(ReliableChannelTest, ExactlyOnceInOrderUnderLossDupReorder) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1,
                          .loss_probability = 0.3,
                          .duplicate_probability = 0.2,
                          .reorder_probability = 0.3,
                          .reorder_jitter = 4,
                          .seed = 42});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  std::vector<uint64_t> got;
  receiver.SetHandler([&](const Message& m) {
    got.push_back(std::get<CancelQuery>(m.payload).qid);
  });
  for (uint64_t i = 0; i < 60; ++i) {
    sender.SendReliable(receiver.node_id(), CancelQuery{i});
  }
  for (int t = 0; t < 400 && sender.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(sender.unacked(), 0u);
  ASSERT_EQ(got.size(), 60u) << "exactly-once delivery violated";
  for (uint64_t i = 0; i < 60; ++i) EXPECT_EQ(got[i], i);
  // The run must actually have been faulty, and the channel must have
  // worked for it: retransmissions happened, duplicates were suppressed.
  EXPECT_GT(net.stats().dropped_loss + net.stats().duplicated +
                net.stats().reordered,
            0u);
  EXPECT_GT(sender.stats().retransmissions, 0u);
}

TEST(ReliableChannelTest, RetransmitsAcrossPartitionUntilHealed) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  int delivered = 0;
  receiver.SetHandler([&](const Message&) { ++delivered; });
  net.Partition("cut", {sender.node_id()}, {receiver.node_id()});
  sender.SendReliable(receiver.node_id(), CancelQuery{7});
  for (int t = 0; t < 100; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(sender.stats().retransmissions, 0u);
  EXPECT_EQ(sender.unacked(), 1u);
  net.Heal("cut");
  for (int t = 0; t < 100 && sender.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sender.unacked(), 0u);
}

TEST(ReliableChannelTest, BoundedBufferThrottlesThenSheds) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  // Throttle from 3 (0.75 * 4).
  test::ScopedGovernorLimits limits({.channel_max_unacked_messages = 4});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  // The receiver never acks, so the sender's buffer only grows.
  net.SetConnected(receiver.node_id(), false);
  NodeId to = receiver.node_id();
  EXPECT_EQ(sender.SendReliable(to, CancelQuery{0}), Backpressure::kOpen);
  EXPECT_EQ(sender.SendReliable(to, CancelQuery{1}), Backpressure::kOpen);
  EXPECT_EQ(sender.SendReliable(to, CancelQuery{2}), Backpressure::kThrottle);
  // Fourth send fills the buffer: still sent (kShed is reserved for
  // dropped frames), but the peer now grades kShed for the next one.
  EXPECT_EQ(sender.SendReliable(to, CancelQuery{3}), Backpressure::kThrottle);
  EXPECT_EQ(sender.PeerBackpressure(to), Backpressure::kShed);
  EXPECT_EQ(sender.SendReliable(to, CancelQuery{4}), Backpressure::kShed);
  EXPECT_EQ(sender.unacked(), 4u);
  EXPECT_EQ(sender.stats().frames_shed, 1u);
  EXPECT_GT(sender.unacked_bytes(), 0u);

  // Draining the buffer reopens the peer: reconnect and let acks flow.
  net.SetConnected(receiver.node_id(), true);
  for (int t = 0; t < 100 && sender.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(sender.unacked_bytes(), 0u);
  EXPECT_EQ(sender.PeerBackpressure(to), Backpressure::kOpen);
}

TEST(ReliableChannelTest, DeadPeerEvictionRestartsStreamUnderNewEpoch) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  test::ScopedGovernorLimits limits({.channel_peer_dead_horizon = 20});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  std::vector<uint64_t> got;
  receiver.SetHandler([&](const Message& m) {
    got.push_back(std::get<CancelQuery>(m.payload).qid);
  });

  // Deliver one frame normally so the receiver has sequence state.
  sender.SendReliable(receiver.node_id(), CancelQuery{1});
  for (int t = 0; t < 10; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_EQ(got, (std::vector<uint64_t>{1}));

  // Cut the peer off and queue frames it will never ack. Past the
  // horizon the buffer is evicted instead of retransmitting forever.
  net.Partition("cut", {sender.node_id()}, {receiver.node_id()});
  sender.SendReliable(receiver.node_id(), CancelQuery{2});
  sender.SendReliable(receiver.node_id(), CancelQuery{3});
  for (int t = 0; t < 40; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(sender.unacked(), 0u) << "evicted buffer must be empty";
  EXPECT_EQ(sender.stats().peers_evicted, 1u);
  EXPECT_EQ(sender.stats().frames_shed, 2u);

  // Heal and send again: the new frame carries a higher epoch, so the
  // receiver resynchronizes from sequence zero instead of waiting for
  // the evicted frames — no deadlock, and no replay of old payloads.
  net.Heal("cut");
  sender.SendReliable(receiver.node_id(), CancelQuery{4});
  for (int t = 0; t < 100 && sender.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 4}))
      << "post-eviction stream must deliver exactly the new frame";
}

TEST(ReliableChannelTest, GovernorLimitsApplyToLiveEndpoints) {
  // The endpoint keeps no copy of its caps: a limit set on the governor
  // after the endpoints exist governs their very next send, and lifting
  // it reopens the peer — the knob `most_shell health` surfaces.
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  net.SetConnected(receiver.node_id(), false);
  test::ScopedGovernorLimits limits({});
  ResourceGovernor& gov = ResourceGovernor::Global();
  sender.SendReliable(receiver.node_id(), CancelQuery{0});
  sender.SendReliable(receiver.node_id(), CancelQuery{1});
  gov.set_limits({.channel_max_unacked_messages = 2});
  EXPECT_EQ(sender.SendReliable(receiver.node_id(), CancelQuery{2}),
            Backpressure::kShed);
  EXPECT_EQ(sender.unacked(), 2u);
  gov.set_limits({});
  EXPECT_EQ(sender.PeerBackpressure(receiver.node_id()), Backpressure::kOpen);
  EXPECT_EQ(sender.SendReliable(receiver.node_id(), CancelQuery{3}),
            Backpressure::kOpen);
  EXPECT_EQ(sender.unacked(), 3u);
}

// A lossy storm with partitions long enough to trigger dead-peer
// eviction, against a capped endpoint: the unacked count never exceeds
// the cap, the channel quiesces after the heal, and no payload is ever
// delivered twice or invented (epochs make post-eviction resync safe).
TEST(ReliableChannelTest, BoundedChannelStormRespectsCapsAndNeverDuplicates) {
  for (uint64_t seed :
       test::SuiteSeeds("ReliableChannel.Storm", {1997, 42, 20260809})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    Clock clock;
    SimNetwork net(&clock, {.latency = 1,
                            .loss_probability = 0.2,
                            .duplicate_probability = 0.1,
                            .reorder_probability = 0.1,
                            .reorder_jitter = 3,
                            .seed = seed});
    constexpr size_t kMaxUnacked = 8;
    test::ScopedGovernorLimits guard(
        {.channel_max_unacked_messages = kMaxUnacked,
         .channel_peer_dead_horizon = 24});
    ReliableEndpoint sender(&net, &clock);
    ReliableEndpoint receiver(&net, &clock);
    std::vector<uint64_t> delivered;
    receiver.SetHandler([&](const Message& m) {
      delivered.push_back(std::get<CancelQuery>(m.payload).qid);
    });
    uint64_t next_qid = 0;
    std::set<uint64_t> sent;
    bool cut = false;
    for (int round = 0; round < 120; ++round) {
      if (rng.Bernoulli(0.05)) {
        if (cut) {
          net.Heal("cut");
        } else {
          net.Partition("cut", {sender.node_id()}, {receiver.node_id()});
        }
        cut = !cut;
      }
      for (int64_t b = rng.UniformInt(0, 4); b > 0; --b) {
        const uint64_t qid = next_qid++;
        if (sender.SendReliable(receiver.node_id(), CancelQuery{qid}) !=
            Backpressure::kShed) {
          sent.insert(qid);
        }
      }
      EXPECT_LE(sender.unacked(), kMaxUnacked);
      clock.Advance();
      net.DeliverDue();
    }
    if (cut) net.Heal("cut");
    for (int t = 0; t < 200 && sender.unacked() > 0; ++t) {
      clock.Advance();
      net.DeliverDue();
    }
    EXPECT_EQ(sender.unacked(), 0u) << "channel failed to quiesce";
    EXPECT_GT(sender.stats().frames_shed, 0u) << "the cap was never reached";
    std::set<uint64_t> unique(delivered.begin(), delivered.end());
    EXPECT_EQ(unique.size(), delivered.size())
        << "a payload was delivered more than once";
    for (uint64_t qid : delivered) {
      EXPECT_TRUE(sent.count(qid)) << "delivered a never-sent payload";
    }
  }
}

TEST(ReliableChannelTest, BestEffortBypassesSequencing) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  int beacons = 0;
  receiver.SetHandler([&](const Message& m) {
    if (std::holds_alternative<ObjectState>(m.payload)) ++beacons;
  });
  sender.SendBestEffort(receiver.node_id(), MakeState(1, {0, 0}, {1, 0}));
  clock.Advance();
  net.DeliverDue();
  EXPECT_EQ(beacons, 1);
  EXPECT_EQ(sender.unacked(), 0u);        // Nothing to retransmit.
  EXPECT_EQ(receiver.stats().acks_sent, 0u);  // Nothing to acknowledge.
}

// ---- Distributed queries --------------------------------------------------

class DistributedQueryTest : public ::testing::Test {
 protected:
  DistributedQueryTest()
      : net_(&clock_, {.latency = 1}),
        regions_({{"P", Polygon::Rectangle({0, 0}, {100, 100})}}),
        coordinator_(&net_, &clock_, regions_) {
    // Three vehicles: one inside P, one heading into P, one far away.
    // Beacons are disabled so the protocol tests see query traffic only.
    MobileNode::Options opts;
    opts.beacon_interval = 0;
    nodes_.push_back(std::make_unique<MobileNode>(
        &net_, &clock_, MakeState(0, {50, 50}, {0, 0}), regions_, opts));
    nodes_.push_back(std::make_unique<MobileNode>(
        &net_, &clock_, MakeState(1, {-20, 50}, {1, 0}), regions_, opts));
    nodes_.push_back(std::make_unique<MobileNode>(
        &net_, &clock_, MakeState(2, {5000, 5000}, {0, 0}), regions_, opts));
  }

  void Run(Tick until) {
    while (clock_.Now() < until) {
      clock_.Advance();
      net_.DeliverDue();
    }
  }

  FtlQuery Parse(const std::string& s) {
    auto q = ParseQuery(s);
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  Clock clock_;
  SimNetwork net_;
  std::map<std::string, Polygon> regions_;
  Coordinator coordinator_;
  std::vector<std::unique_ptr<MobileNode>> nodes_;
};

TEST_F(DistributedQueryTest, Classification) {
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o FROM SELF o WHERE EVENTUALLY WITHIN 3 "
                      "INSIDE(o, P)")),
            DistQueryClass::kSelfReferencing);
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)")),
            DistQueryClass::kObject);
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o, n FROM CARS o, CARS n "
                      "WHERE DIST(o, n) <= 2")),
            DistQueryClass::kRelationship);
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o, n FROM CARS o, CARS n "
                      "WHERE INSIDE(o, P) AND INSIDE(n, P)")),
            DistQueryClass::kRelationship);
}

TEST_F(DistributedQueryTest, ClassificationEdgeCases) {
  // A quantifier-bound *value* variable is not an object variable: the
  // comparison m <= 10 mentions no second object.
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o FROM CARS o "
                      "WHERE [m := o.fuel] m <= 10")),
            DistQueryClass::kObject);
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o FROM SELF o "
                      "WHERE [m := o.fuel] EVENTUALLY m <= 10")),
            DistQueryClass::kSelfReferencing);
  // A quantifier whose bound term itself spans two objects is a
  // relationship query even if the body compares only value variables.
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o, n FROM CARS o, CARS n "
                      "WHERE [m := DIST(o, n)] m <= 5")),
            DistQueryClass::kRelationship);
  // DIST of a variable with itself stays single-object.
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o FROM CARS o "
                      "WHERE [m := DIST(o, o)] m <= 5")),
            DistQueryClass::kObject);
  // SELF-only bindings with a genuine two-object atom: relationship, not
  // self-referencing — the atom needs both objects at once.
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE a, b FROM SELF a, SELF b "
                      "WHERE DIST(a, b) <= 2")),
            DistQueryClass::kRelationship);
  // Two SELF variables never sharing an atom: still a relationship query
  // (two distinct FROM variables).
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE a, b FROM SELF a, SELF b "
                      "WHERE INSIDE(a, P) AND INSIDE(b, P)")),
            DistQueryClass::kRelationship);
  // Mixed-class conjunction over a single variable stays an object query;
  // over two variables of different classes it is a relationship query.
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o FROM CARS o "
                      "WHERE INSIDE(o, P) AND o.fuel <= 10")),
            DistQueryClass::kObject);
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o, n FROM SELF o, CARS n "
                      "WHERE INSIDE(o, P) AND INSIDE(n, P)")),
            DistQueryClass::kRelationship);
  // WITHIN_SPHERE with a repeated variable is single-object; with two
  // distinct variables it is a relationship atom.
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE o FROM CARS o "
                      "WHERE WITHIN_SPHERE(5, o, o)")),
            DistQueryClass::kObject);
  EXPECT_EQ(Coordinator::Classify(
                Parse("RETRIEVE a, b FROM CARS a, CARS b "
                      "WHERE WITHIN_SPHERE(5, a, b)")),
            DistQueryClass::kRelationship);
}

TEST_F(DistributedQueryTest, SelfReferencingNeedsNoCommunication) {
  FtlQuery q = Parse(
      "RETRIEVE o FROM SELF o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)");
  // Node 1 reaches P (x >= 0) at t=20 < 30.
  auto when = nodes_[1]->EvaluateSelf(q, 256);
  ASSERT_TRUE(when.ok()) << when.status();
  EXPECT_FALSE(when->empty());
  // Node 2 never reaches P.
  auto never = nodes_[2]->EvaluateSelf(q, 256);
  ASSERT_TRUE(never.ok());
  EXPECT_TRUE(never->empty());
  EXPECT_EQ(net_.stats().messages_sent, 0u);
}

TEST_F(DistributedQueryTest, ObjectQueryBroadcastOnlyMatchesReply) {
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  uint64_t qid = coordinator_.IssueObjectQuery(
      q, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  Run(4);
  auto matches = coordinator_.ReportedMatches(qid);
  ASSERT_TRUE(matches.ok());
  // Node 0 is inside now; node 1 enters later (still a future match
  // within the horizon); node 2 never.
  EXPECT_EQ(matches->matches.size(), 2u);
  EXPECT_TRUE(matches->matches.count(0));
  EXPECT_TRUE(matches->matches.count(1));
  // Every node completed, so the answer is certain.
  EXPECT_EQ(matches->confidence, Confidence::kCertain);
  EXPECT_TRUE(matches->missing.empty());
  // The economy of strategy 2: non-matching node 2 shipped no report —
  // only its completion marker; matching nodes shipped report + marker.
  EXPECT_EQ(nodes_[0]->channel().stats().frames_sent, 2u);
  EXPECT_EQ(nodes_[1]->channel().stats().frames_sent, 2u);
  EXPECT_EQ(nodes_[2]->channel().stats().frames_sent, 1u);
}

TEST_F(DistributedQueryTest, ObjectQueryCollectPullsEverything) {
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  uint64_t qid = coordinator_.IssueObjectQuery(q, DistStrategy::kCollect,
                                               /*continuous=*/false, 256);
  Run(4);
  auto state = coordinator_.GetState(qid);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ((*state)->replies, 3u);  // Every node ships its object.
  EXPECT_EQ((*state)->responded.size(), 3u);
  auto rel = coordinator_.EvaluateCollected(qid);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->relation.rows.size(), 2u);
  EXPECT_EQ(rel->confidence, Confidence::kCertain);
  // Collect ships a report from every node regardless of the predicate.
  for (const auto& node : nodes_) {
    EXPECT_EQ(node->channel().stats().frames_sent, 2u);  // report + done
  }
}

TEST_F(DistributedQueryTest, BroadcastAndCollectAgree) {
  FtlQuery q = Parse(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 40 INSIDE(o, P)");
  uint64_t bq = coordinator_.IssueObjectQuery(
      q, DistStrategy::kBroadcastFilter, false, 256);
  uint64_t cq =
      coordinator_.IssueObjectQuery(q, DistStrategy::kCollect, false, 256);
  Run(4);
  auto matches = coordinator_.ReportedMatches(bq);
  ASSERT_TRUE(matches.ok());
  auto rel = coordinator_.EvaluateCollected(cq);
  ASSERT_TRUE(rel.ok());
  std::set<ObjectId> broadcast_ids, collect_ids;
  for (const auto& [id, when] : matches->matches) broadcast_ids.insert(id);
  for (const auto& [binding, when] : rel->relation.rows) {
    collect_ids.insert(binding[0]);
  }
  EXPECT_EQ(broadcast_ids, collect_ids);
  EXPECT_EQ(matches->confidence, Confidence::kCertain);
  EXPECT_EQ(rel->confidence, Confidence::kCertain);
}

TEST_F(DistributedQueryTest, ContinuousBroadcastPushesOnlyOnChange) {
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  uint64_t qid = coordinator_.IssueObjectQuery(
      q, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  Run(4);
  // Setup: every node answered the subscription (initial report + done).
  uint64_t after_setup = nodes_[2]->channel().stats().frames_sent;
  EXPECT_EQ(after_setup, 2u);

  // Motion changes on the far-away node that stays far away: it
  // re-evaluates locally but its (empty) answer is unchanged -> silence.
  nodes_[2]->UpdateMotion({5000, 5000}, {0.5, 0});
  Run(8);
  EXPECT_EQ(nodes_[2]->channel().stats().frames_sent, after_setup);

  // Node 2 now turns towards P: its answer changes -> one push.
  nodes_[2]->UpdateMotion({150, 50}, {-1, 0});
  Run(12);
  EXPECT_EQ(nodes_[2]->channel().stats().frames_sent, after_setup + 1);
  auto matches = coordinator_.ReportedMatches(qid);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->matches.count(2));
}

TEST_F(DistributedQueryTest, RelationshipQueryEvaluatedCentrally) {
  // Nodes 0 and 1 converge; their distance drops below 40 eventually.
  FtlQuery q = Parse(
      "RETRIEVE o, n FROM CARS o, CARS n "
      "WHERE EVENTUALLY DIST(o, n) <= 40");
  uint64_t qid = coordinator_.IssueRelationshipQuery(q, 256);
  Run(4);
  auto rel = coordinator_.EvaluateCollected(qid);
  ASSERT_TRUE(rel.ok()) << rel.status();
  bool pair_01 = false;
  for (const auto& [binding, when] : rel->relation.rows) {
    if ((binding[0] == 0 && binding[1] == 1) ||
        (binding[0] == 1 && binding[1] == 0)) {
      pair_01 = true;
    }
  }
  EXPECT_TRUE(pair_01);
}

// ---- Completeness and liveness --------------------------------------------

TEST_F(DistributedQueryTest, PartialAnswerCarriesMissingSetUntilHeal) {
  // Cut node 2 off before issuing.
  net_.Partition("cut", {coordinator_.node_id()}, {nodes_[2]->node_id()});
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  uint64_t qid = coordinator_.IssueObjectQuery(
      q, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  Run(6);
  auto partial = coordinator_.ReportedMatches(qid);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->confidence, Confidence::kStale)
      << "a partial answer must never claim certainty";
  EXPECT_EQ(partial->missing,
            (std::set<NodeId>{nodes_[2]->node_id()}));
  EXPECT_EQ(partial->matches.size(), 2u);  // Reachable matches are in.

  // Heal: the channel's retransmissions push the request through; once
  // node 2's QueryDone arrives the same answer turns certain.
  net_.Heal("cut");
  Run(60);
  auto full = coordinator_.ReportedMatches(qid);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->confidence, Confidence::kCertain);
  EXPECT_TRUE(full->missing.empty());
  EXPECT_EQ(full->matches.size(), 2u);  // Node 2 still does not match.
}

TEST_F(DistributedQueryTest, CollectAnswerStaysStaleWhileNodeMissing) {
  net_.Partition("cut", {coordinator_.node_id()}, {nodes_[0]->node_id()});
  FtlQuery q = Parse("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  uint64_t qid = coordinator_.IssueObjectQuery(q, DistStrategy::kCollect,
                                               /*continuous=*/false, 256);
  Run(6);
  auto partial = coordinator_.EvaluateCollected(qid);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->confidence, Confidence::kStale);
  EXPECT_EQ(partial->missing, (std::set<NodeId>{nodes_[0]->node_id()}));
  // Node 0 (inside P) is missing, so its row is absent from the partial
  // central evaluation — the caller can see that from the missing set.
  EXPECT_EQ(partial->relation.rows.count({0}), 0u);
  net_.Heal("cut");
  Run(60);
  auto full = coordinator_.EvaluateCollected(qid);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->confidence, Confidence::kCertain);
  EXPECT_EQ(full->relation.rows.count({0}), 1u);
}

TEST(CoordinatorDeadlineTest, ExpiryYieldsStalePartialAnswerAndMetric) {
  // A query whose deadline passes with one node permanently silent: the
  // caller polls DeadlinePassed(), accepts the kStale partial answer with
  // the silent node in the missing set, and the first expired poll is
  // counted into most_coord_deadline_expired_total exactly once.
  auto deadline_expired_total = []() -> double {
    for (const obs::FamilySnapshot& fam :
         obs::MetricsRegistry::Global().Collect()) {
      if (fam.name != "most_coord_deadline_expired_total") continue;
      double total = 0;
      for (const obs::SeriesSnapshot& s : fam.series) total += s.value;
      return total;
    }
    return 0;
  };
  const double expired_before = deadline_expired_total();

  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator::Options copts;
  copts.query_deadline = 8;
  Coordinator coordinator(&net, &clock, regions, copts);
  MobileNode::Options nopts;
  nopts.beacon_interval = 0;
  MobileNode inside(&net, &clock, MakeState(0, {50, 50}, {0, 0}), regions,
                    nopts);
  MobileNode silent(&net, &clock, MakeState(1, {60, 60}, {0, 0}), regions,
                    nopts);
  net.SetConnected(silent.node_id(), false);  // Permanently dark.

  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  ASSERT_TRUE(q.ok());
  uint64_t qid = coordinator.IssueObjectQuery(
      *q, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  auto run_to = [&](Tick until) {
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  };
  run_to(6);
  EXPECT_FALSE(coordinator.DeadlinePassed(qid));
  EXPECT_DOUBLE_EQ(deadline_expired_total(), expired_before);

  run_to(12);
  EXPECT_TRUE(coordinator.DeadlinePassed(qid));
  auto answer = coordinator.ReportedMatches(qid);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->confidence, Confidence::kStale)
      << "an expired query with a silent node must not claim certainty";
  EXPECT_EQ(answer->missing, (std::set<NodeId>{silent.node_id()}));
  EXPECT_EQ(answer->matches.count(0), 1u)
      << "the reachable node's match is served despite the expiry";
  EXPECT_DOUBLE_EQ(deadline_expired_total(), expired_before + 1);

  // Polling again does not re-count the same expiry.
  EXPECT_TRUE(coordinator.DeadlinePassed(qid));
  EXPECT_DOUBLE_EQ(deadline_expired_total(), expired_before + 1);
}

// A request the bounded channel sheds leaves the node missing while the
// cap holds; once the peer has room again, the coordinator re-sends what
// the dropped frame carried and the answer turns certain.
TEST(CoordinatorLivenessTest, ShedRequestIsResentOnceTheCapLifts) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator coordinator(&net, &clock, regions);
  MobileNode::Options nopts;
  nopts.beacon_interval = 4;
  nopts.home = coordinator.node_id();
  MobileNode node(&net, &clock, MakeState(0, {50, 50}, {0, 0}), regions,
                  nopts);
  auto run_to = [&](Tick until) {
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  };
  run_to(5);  // The node's first beacon gives it a lease.
  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  ASSERT_TRUE(q.ok());
  uint64_t second = 0;
  {
    test::ScopedGovernorLimits cap({.channel_max_unacked_messages = 1});
    coordinator.IssueObjectQuery(*q, DistStrategy::kBroadcastFilter,
                                 /*continuous=*/true, 64);
    second = coordinator.IssueObjectQuery(*q, DistStrategy::kBroadcastFilter,
                                          /*continuous=*/true, 64);
    EXPECT_GT(coordinator.channel().stats().frames_shed, 0u);
    run_to(12);
    auto answer = coordinator.ReportedMatches(second);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->confidence, Confidence::kStale);
    EXPECT_EQ(answer->missing, (std::set<NodeId>{node.node_id()}));
  }
  run_to(20);
  auto answer = coordinator.ReportedMatches(second);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->confidence, Confidence::kCertain);
  EXPECT_EQ(answer->matches.count(0), 1u);
}

TEST(CoordinatorLivenessTest, HeartbeatsTrackReachabilityAndResync) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator::Options copts;
  copts.liveness_timeout = 12;
  Coordinator coordinator(&net, &clock, regions, copts);
  MobileNode::Options nopts;
  nopts.beacon_interval = 4;
  nopts.home = coordinator.node_id();
  MobileNode inside(&net, &clock, MakeState(0, {50, 50}, {0, 0}), regions,
                    nopts);
  MobileNode outside(&net, &clock, MakeState(1, {5000, 50}, {0, 0}), regions,
                     nopts);

  auto run_to = [&](Tick until) {
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  };
  run_to(10);
  EXPECT_TRUE(coordinator.IsLive(inside.node_id()));
  EXPECT_TRUE(coordinator.IsLive(outside.node_id()));

  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  ASSERT_TRUE(q.ok());
  uint64_t qid = coordinator.IssueObjectQuery(
      *q, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  run_to(14);
  ASSERT_TRUE(coordinator.ReportedMatches(qid)->matches.count(0));

  // Partition the inside node away long enough to be declared dead.
  net.Partition("cut", {coordinator.node_id()}, {inside.node_id()});
  run_to(40);
  EXPECT_FALSE(coordinator.IsLive(inside.node_id()));
  EXPECT_TRUE(coordinator.IsLive(outside.node_id()));

  // While cut off, the node's answer changes: it drives out of P.
  inside.UpdateMotion({5000, 5000}, {0, 0});

  // Heal: beacons flow again, the coordinator re-syncs the subscription,
  // and the node's fresh (now empty) answer replaces the stale match.
  net.Heal("cut");
  run_to(100);
  EXPECT_TRUE(coordinator.IsLive(inside.node_id()));
  auto matches = coordinator.ReportedMatches(qid);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->matches.count(0), 0u)
      << "stale pre-partition match survived the re-sync";
  EXPECT_EQ(matches->confidence, Confidence::kCertain);
}

TEST(CancelUnderLossTest, CancelledContinuousQueryGoesQuietOnEveryNode) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1, .loss_probability = 0.4, .seed = 11});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator coordinator(&net, &clock, regions);
  MobileNode::Options nopts;
  nopts.beacon_interval = 0;
  std::vector<std::unique_ptr<MobileNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<MobileNode>(
        &net, &clock,
        MakeState(static_cast<ObjectId>(i),
                  {50.0 + 10 * i, 50.0}, {0, 0}),
        regions, nopts));
  }
  auto run = [&](Tick ticks) {
    Tick until = clock.Now() + ticks;
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  };

  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  ASSERT_TRUE(q.ok());
  uint64_t qid = coordinator.IssueObjectQuery(
      *q, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  run(120);  // Loss notwithstanding, every subscription must install.
  for (const auto& node : nodes) {
    EXPECT_EQ(node->active_subscriptions(), 1u);
  }

  // Cancel rides the reliable channel: a lost CancelQuery is
  // retransmitted until every node confirms it.
  ASSERT_TRUE(coordinator.CancelQuerySubscription(qid).ok());
  run(200);
  for (const auto& node : nodes) {
    EXPECT_EQ(node->active_subscriptions(), 0u)
        << "node kept a cancelled subscription";
  }

  // Quiescence: motion changes no longer generate any traffic.
  std::vector<uint64_t> frames_before;
  for (const auto& node : nodes) {
    frames_before.push_back(node->channel().stats().frames_sent);
  }
  for (auto& node : nodes) {
    node->UpdateMotion({5000, 5000}, {1, 1});
  }
  run(40);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i]->channel().stats().frames_sent, frames_before[i])
        << "cancelled node " << i << " still transmitting";
  }
}

// ---- Answer transmission --------------------------------------------------

TEST(AnswerTransmissionTest, ImmediateUnlimitedSendsOneBlock) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  NodeId server = net.AddNode(nullptr);
  AnswerClient client(&clock);
  NodeId client_node = net.AddNode(nullptr);
  client.Attach(&net, client_node);

  AnswerTransmitter tx(&net, &clock, server, client_node, 1,
                       {TransmissionMode::kImmediate, 0, 1});
  tx.SetAnswer({{{7}, Interval(5, 10)}, {{8}, Interval(3, 4)}});
  clock.Advance();
  net.DeliverDue();
  EXPECT_EQ(client.blocks_received(), 1u);
  EXPECT_EQ(client.buffered(), 2u);
  clock.AdvanceTo(6);
  net.DeliverDue();
  client.Compact();
  auto display = client.Display();
  ASSERT_EQ(display.size(), 1u);
  EXPECT_EQ(display[0], (std::vector<ObjectId>{7}));
}

TEST(AnswerTransmissionTest, MemoryLimitedBlocksRespectBudget) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 0});
  NodeId server = net.AddNode(nullptr);
  AnswerClient client(&clock);
  NodeId client_node = net.AddNode(nullptr);
  client.Attach(&net, client_node);

  AnswerTransmitter tx(&net, &clock, server, client_node, 1,
                       {TransmissionMode::kImmediate, 2, 0});
  tx.SetAnswer({{{1}, Interval(0, 2)},
                {{2}, Interval(1, 3)},
                {{3}, Interval(5, 6)},
                {{4}, Interval(7, 8)}});
  for (Tick t = 0; t <= 10; ++t) {
    clock.AdvanceTo(t);
    tx.Step();
    net.DeliverDue();
    client.Compact();
    EXPECT_LE(client.buffered(), 2u) << "t=" << t;
  }
  EXPECT_EQ(client.blocks_received(), 2u);
  EXPECT_EQ(tx.tuples_pending(), 0u);
}

TEST(AnswerTransmissionTest, DelayedSendsEachTupleAtItsBegin) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  NodeId server = net.AddNode(nullptr);
  AnswerClient client(&clock);
  NodeId client_node = net.AddNode(nullptr);
  client.Attach(&net, client_node);

  AnswerTransmitter tx(&net, &clock, server, client_node, 1,
                       {TransmissionMode::kDelayed, 0, 1});
  tx.SetAnswer({{{1}, Interval(3, 5)}, {{2}, Interval(8, 9)}});
  std::map<Tick, size_t> display_sizes;
  for (Tick t = 0; t <= 10; ++t) {
    clock.AdvanceTo(t);
    tx.Step();
    net.DeliverDue();
    client.Compact();
    display_sizes[t] = client.Display().size();
  }
  EXPECT_EQ(display_sizes[2], 0u);
  EXPECT_EQ(display_sizes[3], 1u);  // Arrived exactly at begin.
  EXPECT_EQ(display_sizes[5], 1u);
  EXPECT_EQ(display_sizes[6], 0u);
  EXPECT_EQ(display_sizes[8], 1u);
  EXPECT_EQ(display_sizes[10], 0u);
  EXPECT_EQ(client.peak_buffered(), 1u);  // Never more than one tuple held.
  EXPECT_EQ(net.stats().messages_sent, 2u);
}

TEST(AnswerTransmissionTest, ReliablePushSurvivesLoss) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1, .loss_probability = 0.4, .seed = 3});
  ReliableEndpoint server(&net, &clock);
  ReliableEndpoint client_ep(&net, &clock);
  AnswerClient client(&clock);
  client.Attach(&client_ep);

  AnswerTransmitter tx(&server, &clock, client_ep.node_id(), 1,
                       {TransmissionMode::kImmediate, 0, 1});
  tx.SetAnswer({{{7}, Interval(100, 200)}, {{8}, Interval(150, 300)}});
  // Background traffic on the same stream so the 40% loss rate is
  // statistically guaranteed to bite *something* (the client ignores
  // non-AnswerBlock payloads).
  for (uint64_t i = 0; i < 30; ++i) {
    server.SendReliable(client_ep.node_id(), CancelQuery{i});
  }
  for (int t = 0; t < 400 && server.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(server.unacked(), 0u);
  EXPECT_EQ(client.blocks_received(), 1u);  // Exactly once despite loss.
  EXPECT_EQ(client.buffered(), 2u);
  EXPECT_GT(net.stats().dropped_loss, 0u) << "the link was never lossy";
}

// ---- Crash/restart: epochs, durable recovery, catch-up --------------------

// A frame from a node's pre-crash incarnation that is still rattling
// around the network must be rejected once the receiver has adopted the
// reborn node's higher epoch — the fence that keeps a restarted node's
// stream from being corrupted by its own ghost.
TEST(ReliableChannelTest, StaleEpochStragglerRejectedAfterRejoin) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  auto sender = std::make_unique<ReliableEndpoint>(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  std::vector<uint64_t> got;
  receiver.SetHandler([&](const Message& m) {
    got.push_back(std::get<CancelQuery>(m.payload).qid);
  });
  NodeId reborn_id = sender->node_id();
  sender->SendReliable(receiver.node_id(), CancelQuery{1});
  for (int t = 0; t < 10; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_EQ(got, (std::vector<uint64_t>{1}));

  // Crash the sender and reincarnate it on the same network id under a
  // bumped epoch — exactly what a WAL-recovered MobileNode does.
  sender.reset();
  ReliableEndpoint::Options opts;
  opts.reclaim_node_id = reborn_id;
  opts.initial_epoch = 1;
  ReliableEndpoint reborn(&net, &clock, opts);
  ASSERT_EQ(reborn.node_id(), reborn_id) << "network id not reclaimed";
  EXPECT_EQ(reborn.SendEpoch(receiver.node_id()), 1u);
  reborn.SendReliable(receiver.node_id(), CancelQuery{2});
  for (int t = 0; t < 10; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_EQ(got, (std::vector<uint64_t>{1, 2}));

  // A straggler from the dead epoch-0 stream arrives late (forged
  // directly onto the wire; a delayed retransmission in real life).
  uint64_t suppressed_before = receiver.stats().duplicates_suppressed;
  net.Send(reborn_id, receiver.node_id(),
           ReliableFrame{/*seq=*/5, /*epoch=*/0, CancelQuery{99}});
  for (int t = 0; t < 5; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 2}))
      << "a pre-crash straggler reached the application";
  EXPECT_EQ(receiver.stats().duplicates_suppressed, suppressed_before + 1);
}

// RestartPeerStream while retransmissions are in flight: the pending
// frames must come back under the new epoch, in order, exactly once —
// the bump must not race the old-epoch retries into duplicate delivery.
TEST(ReliableChannelTest, EpochBumpRacingInFlightRetransmission) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  std::vector<uint64_t> got;
  receiver.SetHandler([&](const Message& m) {
    got.push_back(std::get<CancelQuery>(m.payload).qid);
  });
  NodeId to = receiver.node_id();
  sender.SendReliable(to, CancelQuery{1});
  for (int t = 0; t < 10; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_EQ(got, (std::vector<uint64_t>{1}));

  // Cut the peer off with two frames pending; let retransmissions fire.
  net.Partition("cut", {sender.node_id()}, {to});
  sender.SendReliable(to, CancelQuery{2});
  sender.SendReliable(to, CancelQuery{3});
  for (int t = 0; t < 30; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_GT(sender.stats().retransmissions, 0u);
  ASSERT_EQ(sender.unacked(), 2u);
  ASSERT_EQ(sender.SendEpoch(to), 0u);

  // Restart the stream mid-retry — the rejoin path the coordinator takes
  // when a dead node announces a bumped incarnation.
  sender.RestartPeerStream(to);
  EXPECT_EQ(sender.SendEpoch(to), 1u);
  EXPECT_EQ(sender.stats().streams_restarted, 1u);
  EXPECT_EQ(sender.unacked(), 2u) << "pending frames dropped, not carried";

  net.Heal("cut");
  for (int t = 0; t < 200 && sender.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 2, 3}))
      << "carried frames must arrive exactly once, in order";
}

// Dead-peer eviction immediately followed by the peer coming back: the
// very next frame re-synchronizes the receiver under the bumped epoch
// with no dead time and no replay of the evicted frames.
TEST(ReliableChannelTest, EvictionThenImmediateReconnectResynchronizes) {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  test::ScopedGovernorLimits limits({.channel_peer_dead_horizon = 15});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  std::vector<uint64_t> got;
  receiver.SetHandler([&](const Message& m) {
    got.push_back(std::get<CancelQuery>(m.payload).qid);
  });
  NodeId to = receiver.node_id();
  sender.SendReliable(to, CancelQuery{1});
  for (int t = 0; t < 10; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_EQ(got, (std::vector<uint64_t>{1}));

  net.Partition("cut", {sender.node_id()}, {to});
  sender.SendReliable(to, CancelQuery{2});
  for (int t = 0; sender.stats().peers_evicted == 0 && t < 60; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  ASSERT_EQ(sender.stats().peers_evicted, 1u);
  ASSERT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(sender.SendEpoch(to), 1u) << "eviction must bump the epoch";

  // Reconnect on the very next tick and send immediately.
  net.Heal("cut");
  sender.SendReliable(to, CancelQuery{3});
  for (int t = 0; t < 50 && sender.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 3}))
      << "evicted frame replayed or new frame lost after reconnect";
}

// A killed durable node restarts from its own WAL: same network id, the
// pre-crash motion state (not the boot-time state it was constructed
// with), its continuous subscriptions, and a bumped incarnation.
TEST(DurableNodeTest, RestartRecoversStateAndSubscriptionsFromWal) {
  std::string wal = ::testing::TempDir() + "/durable_node_restart.wal";
  std::remove(wal.c_str());
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator coordinator(&net, &clock, regions);
  MobileNode::Options nopts;
  nopts.beacon_interval = 4;
  nopts.home = coordinator.node_id();
  nopts.wal_path = wal;
  auto node = std::make_unique<MobileNode>(
      &net, &clock, MakeState(0, {-20, 50}, {0, 0}), regions, nopts);
  ASSERT_FALSE(node->recovered_from_wal());
  ASSERT_EQ(node->incarnation(), 0u);
  NodeId id = node->node_id();

  auto run_to = [&](Tick until) {
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  };
  run_to(8);
  auto q = ParseQuery(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 50 INSIDE(o, P)");
  ASSERT_TRUE(q.ok());
  uint64_t qid = coordinator.IssueObjectQuery(
      *q, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  run_to(16);
  // Drive into P and persist that as the last pre-crash state.
  node->UpdateMotion({50, 50}, {1, 0});
  node->UpdateAttr("fuel", 42.0);
  run_to(24);
  ASSERT_TRUE(coordinator.ReportedMatches(qid)->matches.count(0));

  node.reset();  // Kill -9.
  node = std::make_unique<MobileNode>(
      &net, &clock, MakeState(0, {-20, 50}, {0, 0}), regions, nopts);
  EXPECT_TRUE(node->recovered_from_wal());
  EXPECT_EQ(node->incarnation(), 1u);
  EXPECT_EQ(node->node_id(), id) << "network identity not reclaimed";
  EXPECT_EQ(node->state().position.x, 50.0)
      << "boot-time state won over the WAL";
  EXPECT_EQ(node->state().position.y, 50.0);

  // The recovered subscription answers again without the coordinator
  // re-sending the query.
  run_to(60);
  auto matches = coordinator.ReportedMatches(qid);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->matches.count(0));
  EXPECT_EQ(matches->confidence, Confidence::kCertain);
  EXPECT_GE(coordinator.recovery_stats().rejoins, 1u);
  std::remove(wal.c_str());
}

// ENOSPC on a WAL append must not poison recovery: the failed update is
// lost (it never became durable), but the previous durable state is
// intact and the node restarts from it.
TEST(DurableNodeTest, EnospcDuringAppendPreservesPriorDurableState) {
  std::string wal = ::testing::TempDir() + "/durable_node_enospc.wal";
  std::remove(wal.c_str());
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  MobileNode::Options nopts;
  nopts.beacon_interval = 0;  // No background appends.
  nopts.wal_path = wal;
  auto node = std::make_unique<MobileNode>(
      &net, &clock, MakeState(0, {10, 10}, {0, 0}), regions, nopts);
  node->UpdateMotion({30, 30}, {0, 0});  // Durable.

  auto& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Arm("wal/append/enospc", "error*1").ok());
  node->UpdateMotion({90, 90}, {0, 0});  // Append fails: device full.
  EXPECT_GE(reg.triggered("wal/append/enospc"), 1u);
  reg.Disarm("wal/append/enospc");

  node.reset();
  node = std::make_unique<MobileNode>(
      &net, &clock, MakeState(0, {10, 10}, {0, 0}), regions, nopts);
  EXPECT_TRUE(node->recovered_from_wal());
  EXPECT_EQ(node->state().position.x, 30.0)
      << "recovered neither the last durable state nor survived the "
         "injected device-full append";
  EXPECT_EQ(node->state().position.y, 30.0);
  std::remove(wal.c_str());
}

// Answer(CQ) mirror catch-up after a subscriber crash: the coordinator
// keeps flushing deltas to live subscribers only, and a restarted
// subscriber splices the missed changes from a catch-up delta instead of
// a full re-send.
TEST(DurableNodeTest, MirrorSubscriberCatchesUpWithDeltasAfterRestart) {
  std::string wal = ::testing::TempDir() + "/durable_node_mirror.wal";
  std::remove(wal.c_str());
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator coordinator(&net, &clock, regions);
  MobileNode::Options nopts;
  nopts.beacon_interval = 4;
  nopts.home = coordinator.node_id();
  MobileNode::Options durable_opts = nopts;
  durable_opts.wal_path = wal;
  auto subscriber = std::make_unique<MobileNode>(
      &net, &clock, MakeState(0, {50, 50}, {0, 0}), regions, durable_opts);
  MobileNode mover(&net, &clock, MakeState(1, {-30, 50}, {1, 0}), regions,
                   nopts);

  auto run_to = [&](Tick until) {
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  };
  run_to(8);
  auto q = ParseQuery(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 80 INSIDE(o, P)");
  ASSERT_TRUE(q.ok());
  uint64_t qid = coordinator.IssueObjectQuery(
      *q, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  run_to(12);
  ASSERT_TRUE(
      coordinator.SubscribeAnswerMirror(qid, subscriber->node_id()).ok());
  run_to(20);
  const auto* mirror = subscriber->AnswerMirror(qid);
  ASSERT_NE(mirror, nullptr);
  ASSERT_TRUE(mirror->count(0));

  // Crash the subscriber; the answer changes while it is down.
  subscriber.reset();
  mover.UpdateMotion({50, 50}, {0, 0});  // Now firmly inside P.
  run_to(40);
  uint64_t full_flushes_before = coordinator.recovery_stats().catchup_deltas;

  subscriber = std::make_unique<MobileNode>(
      &net, &clock, MakeState(0, {50, 50}, {0, 0}), regions, durable_opts);
  EXPECT_TRUE(subscriber->recovered_from_wal());
  run_to(70);
  mirror = subscriber->AnswerMirror(qid);
  ASSERT_NE(mirror, nullptr);
  auto answer = coordinator.ReportedMatches(qid);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*mirror, answer->matches)
      << "recovered mirror did not catch up to the coordinator's answer";
  EXPECT_GT(coordinator.recovery_stats().catchup_deltas, full_flushes_before)
      << "rejoin never used the delta catch-up path";
  EXPECT_GT(subscriber->deltas_applied(), 0u);
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace most
