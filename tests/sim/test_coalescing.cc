/**
 * @file
 * The sim runtime's per-destination coalescing (sim/runtime.hh): windows
 * that stay open while a node's job queue is busy and depart when it
 * drains, cap-overflow splitting, degenerate knobs falling back to plain
 * sends, broadcast re-fusion and the multicast-offload bypass, membership
 * traffic that never waits, the log committing before a window departs,
 * and a crash discarding what its node held.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hermes/messages.hh"
#include "membership/messages.hh"
#include "sim/runtime.hh"
#include "support/str_cat.hh"

namespace hermes::sim
{
namespace
{

using net::MessagePtr;
using net::MsgType;

std::shared_ptr<proto::AckMsg>
ack(Key key)
{
    auto msg = std::make_shared<proto::AckMsg>();
    msg->key = key;
    msg->ts = {1, 0};
    return msg;
}

Key
keyOf(const MessagePtr &msg)
{
    return static_cast<const proto::AckMsg &>(*msg).key;
}

/** Records every message it receives. */
class ProbeNode : public net::Node
{
  public:
    void onMessage(const MessagePtr &msg) override { got.push_back(msg); }

    std::vector<Key>
    keys() const
    {
        std::vector<Key> out;
        for (const MessagePtr &msg : got)
            out.push_back(keyOf(msg));
        return out;
    }

    std::vector<MessagePtr> got;
};

class SimCoalescing : public ::testing::Test
{
  protected:
    /** One message entering the network: when, where, what. */
    struct Departure
    {
        TimeNs at;
        NodeId dst;
        MessagePtr msg;
    };

    /** @p nodes nodes with one worker each; records departures. */
    void
    build(size_t nodes, CostModel cost = {})
    {
        cost.workerThreads = 1;
        cost_ = cost;
        rt = std::make_unique<SimRuntime>(nodes, cost, 1234);
        probes.clear();
        departures.clear();
        for (size_t i = 0; i < nodes; ++i) {
            probes.push_back(std::make_unique<ProbeNode>());
            rt->attach(static_cast<NodeId>(i), probes[i].get());
        }
        rt->network().setDropFilter(
            [this](NodeId, NodeId dst, const MessagePtr &msg) {
                departures.push_back({rt->now(), dst, msg});
                return false;
            });
    }

    /**
     * Run @p fn as a job of cost kBusyJob on node 0 while a second job
     * (@p tail, of cost kTail) waits behind it: the windows stay open
     * through @p fn, and the queue drains when the second job ends.
     * @return when the second job ran (kDrain if @p fn sent nothing
     *         that departed at once).
     */
    TimeNs
    busy(std::function<void()> fn, std::function<void()> tail = [] {})
    {
        TimeNs drain = 0;
        rt->submit(0, kBusyJob, std::move(fn));
        rt->submit(0, kTail, [&, tail = std::move(tail)] {
            drain = rt->now();
            tail();
        });
        rt->runFor(1_ms);
        return drain;
    }

    std::vector<TimeNs>
    departureTimes() const
    {
        std::vector<TimeNs> out;
        for (const Departure &d : departures)
            out.push_back(d.at);
        return out;
    }

    static constexpr DurationNs kBusyJob = 100;
    static constexpr DurationNs kTail = 500;
    static constexpr TimeNs kDrain = kBusyJob + kTail;

    CostModel cost_;
    std::unique_ptr<SimRuntime> rt;
    std::vector<std::unique_ptr<ProbeNode>> probes;
    std::vector<Departure> departures;
};

TEST_F(SimCoalescing, WindowOfOneGoesOutUnwrapped)
{
    build(3);
    auto msg = ack(1);
    rt->submit(0, 0, [&] { rt->env(0).send(2, msg); });
    rt->runFor(1_ms);

    ASSERT_EQ(probes[2]->got.size(), 1u);
    EXPECT_EQ(probes[2]->got[0], msg);
    EXPECT_EQ(probes[2]->got[0]->src, 0u) << "the sender is stamped";
    EXPECT_EQ(rt->network().sentCount(), 1u);
    EXPECT_EQ(rt->network().sentBytes(), msg->wireSize());
    EXPECT_EQ(rt->cpuBusyNs(0), cost_.sendCost(msg->wireSize()))
        << "a window of one is charged as a plain send";
}

TEST_F(SimCoalescing, CoalescesPerDestinationInOrder)
{
    build(3);
    Group to1{ack(10), ack(11), ack(12)};
    auto to2 = ack(20);
    busy([&] {
        rt->env(0).send(1, to1[0]);
        rt->env(0).send(2, to2);
        rt->env(0).send(1, to1[1]);
        rt->env(0).send(1, to1[2]);
    });

    // One delivery per destination, in NodeId order, once the queue
    // drained: peer 1's three, then peer 2's one.
    ASSERT_EQ(departures.size(), 4u);
    EXPECT_EQ(departureTimes(), std::vector<TimeNs>(4, kDrain));
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(departures[i].dst, 1u);
        EXPECT_EQ(departures[i].msg, to1[i]);
    }
    EXPECT_EQ(departures[3].dst, 2u);
    EXPECT_EQ(rt->network().sentCount(), 2u);
    EXPECT_EQ(rt->network().sentBytes(),
              groupWireSize(to1) + to2->wireSize());
    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{10, 11, 12}));
    EXPECT_EQ(probes[2]->keys(), (std::vector<Key>{20}));
    // One doorbell plus a marginal per extra message, then a plain send.
    EXPECT_EQ(rt->cpuBusyNs(0), kDrain
                                    + cost_.batchedSendCost(
                                        groupWireSize(to1), 3)
                                    + cost_.sendCost(to2->wireSize()));
}

TEST_F(SimCoalescing, GroupIsOneReceiveJob)
{
    build(3);
    Group to1{ack(1), ack(2), ack(3)};
    auto to2 = ack(4);
    busy([&] {
        for (const MessagePtr &msg : to1)
            rt->env(0).send(1, msg);
        rt->env(0).send(2, to2);
    });

    // The group pays one base dispatch plus a marginal per extra
    // message; the lone message pays a plain receive.
    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{1, 2, 3}));
    EXPECT_EQ(rt->cpuBusyNs(1),
              cost_.batchedRecvCost(groupWireSize(to1), 3));
    EXPECT_LT(rt->cpuBusyNs(1), 3 * cost_.recvCost(to2->wireSize()));
    EXPECT_EQ(rt->cpuBusyNs(2), cost_.recvCost(to2->wireSize()));
}

TEST_F(SimCoalescing, WindowSpansJobsUntilTheQueueDrains)
{
    build(4);
    rt->submit(0, 10, [&] { rt->env(0).send(3, ack(1)); });
    rt->submit(0, 10, [&] { rt->env(0).send(3, ack(2)); });
    rt->submit(0, 10, [] {});
    rt->runFor(1_ms);

    EXPECT_EQ(departureTimes(), (std::vector<TimeNs>{30, 30}));
    EXPECT_EQ(rt->network().sentCount(), 1u);
    EXPECT_EQ(probes[3]->keys(), (std::vector<Key>{1, 2}));
}

TEST_F(SimCoalescing, QueueDrainWithNothingHeldPostsNothing)
{
    build(2);
    busy([] {});
    rt->submit(0, 0, [] {});
    rt->runFor(1_ms);
    EXPECT_TRUE(departures.empty());
    EXPECT_EQ(rt->network().sentCount(), 0u);
    EXPECT_EQ(rt->cpuBusyNs(0), kDrain);
}

TEST_F(SimCoalescing, MsgCapSplitsOverflowingWindow)
{
    CostModel cost;
    cost.maxBatchMsgs = 3;
    build(2, cost);
    Group sent;
    TimeNs drain = busy([&] {
        for (Key k = 0; k < 7; ++k) {
            sent.push_back(ack(k));
            rt->env(0).send(1, sent.back());
        }
    });

    // Two full windows of 3 left during the job; the seventh message
    // waited for the drain.
    std::vector<TimeNs> expected(6, kBusyJob);
    expected.push_back(drain);
    EXPECT_EQ(departureTimes(), expected);
    EXPECT_GT(drain, kBusyJob);
    EXPECT_EQ(rt->network().sentCount(), 3u);
    Group three(sent.begin(), sent.begin() + 3);
    EXPECT_EQ(rt->network().sentBytes(),
              2 * groupWireSize(three) + sent[6]->wireSize());
    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{0, 1, 2, 3, 4, 5, 6}));
}

TEST_F(SimCoalescing, ByteCapSplitsOverflowingWindow)
{
    CostModel cost;
    cost.maxBatchMsgs = 1000;
    // Two ACKs' wire bytes reach the cap.
    cost.maxBatchBytes = 2 * static_cast<long>(ack(0)->wireSize());
    build(2, cost);
    TimeNs drain = busy([&] {
        rt->env(0).send(1, ack(1));
        rt->env(0).send(1, ack(2));
        rt->env(0).send(1, ack(3));
    });

    EXPECT_EQ(departureTimes(),
              (std::vector<TimeNs>{kBusyJob, kBusyJob, drain}));
    EXPECT_GT(drain, kBusyJob);
    EXPECT_EQ(rt->network().sentCount(), 2u);
    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{1, 2, 3}));
}

TEST_F(SimCoalescing, NonPositiveKnobsFallBackToPassThrough)
{
    // Zero or negative caps (or maxBatchMsgs <= 1) must mean "no
    // window", never UB or an unbounded one.
    for (auto [msgs, bytes] :
         {std::pair<int, long>{0, 16384}, {-3, 16384}, {1, 16384},
          {16, 0}, {16, -1}}) {
        SCOPED_TRACE(test::strCat("maxBatchMsgs=", msgs,
                                  " maxBatchBytes=", bytes));
        CostModel cost;
        cost.maxBatchMsgs = msgs;
        cost.maxBatchBytes = bytes;
        build(4, cost);
        departures.clear();
        auto bcast = ack(3);
        busy([&] {
            rt->env(0).send(1, ack(1));
            rt->env(0).send(1, ack(2));
            rt->env(0).broadcast({1, 2, 3}, bcast);
        });
        EXPECT_EQ(departureTimes(), std::vector<TimeNs>(5, kBusyJob));
        EXPECT_EQ(rt->network().sentCount(), 5u);
        size_t wire = ack(1)->wireSize();
        EXPECT_EQ(rt->cpuBusyNs(0),
                  kDrain + 2 * cost.sendCost(wire)
                      + cost.broadcastCost(bcast->wireSize(), 3));
    }
}

TEST_F(SimCoalescing, LoneBroadcastRefusesIntoOneBroadcast)
{
    build(5);
    auto inv = std::make_shared<proto::InvMsg>();
    inv->key = 5;
    rt->submit(3, 0, [&] { rt->env(3).broadcast({1, 2, 3, 4}, inv); });
    rt->runFor(1_ms);

    // Self (3) is excluded; the three lone copies leave as the one
    // broadcast they were, charged its shared-payload fan-out.
    EXPECT_EQ(rt->network().sentCount(), 3u);
    EXPECT_EQ(rt->network().sentBytes(), 3 * inv->wireSize());
    EXPECT_EQ(rt->cpuBusyNs(3), cost_.broadcastCost(inv->wireSize(), 3));
    for (NodeId n : {1u, 2u, 4u}) {
        ASSERT_EQ(probes[n]->got.size(), 1u);
        EXPECT_EQ(probes[n]->got[0], inv);
    }
    EXPECT_TRUE(probes[3]->got.empty());
}

TEST_F(SimCoalescing, BroadcastsBatchWhenWindowsAreBusy)
{
    build(3);
    Group both{ack(1), ack(2)};
    busy([&] {
        rt->env(0).broadcast({1, 2}, both[0]);
        rt->env(0).broadcast({1, 2}, both[1]);
    });

    EXPECT_EQ(rt->network().sentCount(), 2u);
    EXPECT_EQ(rt->network().sentBytes(), 2 * groupWireSize(both));
    EXPECT_EQ(rt->cpuBusyNs(0),
              kDrain + 2 * cost_.batchedSendCost(groupWireSize(both), 2));
    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{1, 2}));
    EXPECT_EQ(probes[2]->keys(), (std::vector<Key>{1, 2}));
}

TEST_F(SimCoalescing, MulticastOffloadBroadcastsBypassTheWindow)
{
    CostModel cost;
    cost.multicastOffload = true;
    build(4, cost);
    TimeNs drain = busy([&] {
        rt->env(0).broadcast({1, 2, 3}, ack(1));
        rt->env(0).send(1, ack(2));
        rt->env(0).send(1, ack(3));
    });

    // The broadcast leaves during the job; the unicasts still coalesce.
    EXPECT_EQ(departureTimes(),
              (std::vector<TimeNs>{kBusyJob, kBusyJob, kBusyJob, drain,
                                   drain}));
    EXPECT_GT(drain, kBusyJob);
    EXPECT_EQ(rt->network().sentCount(), 4u);
    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{1, 2, 3}));
}

TEST_F(SimCoalescing, MixedUnicastAndBroadcastKeepPerPeerOrder)
{
    build(3);
    Group to1{ack(100), ack(200)};
    busy([&] {
        rt->env(0).send(1, to1[0]);
        rt->env(0).broadcast({1, 2}, to1[1]);
    });

    // Peer 1 gets [100, 200] as one delivery; peer 2's lone copy goes
    // out as a plain send (nothing left to fuse it with).
    EXPECT_EQ(rt->network().sentCount(), 2u);
    EXPECT_EQ(rt->network().sentBytes(),
              groupWireSize(to1) + to1[1]->wireSize());
    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{100, 200}));
    EXPECT_EQ(probes[2]->keys(), (std::vector<Key>{200}));
}

TEST_F(SimCoalescing, RmTrafficIsNeverHeld)
{
    for (int t = 0; t < 256; ++t) {
        auto type = static_cast<MsgType>(t);
        EXPECT_EQ(net::isRmMessage(type),
                  type >= MsgType::RmHeartbeat && type <= MsgType::RmDecide)
            << t;
    }

    build(3);
    TimeNs drain = busy([&] {
        rt->env(0).send(1, ack(1));
        rt->env(0).send(1, std::make_shared<membership::RmHeartbeatMsg>());
        rt->env(0).broadcast(
            {1, 2}, std::make_shared<membership::RmHeartbeatMsg>());
    });

    // Heartbeats leave in the job that sent them; the ACK waits.
    ASSERT_EQ(departures.size(), 4u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(departures[i].msg->type(), MsgType::RmHeartbeat);
        EXPECT_EQ(departures[i].at, kBusyJob);
    }
    EXPECT_EQ(departures[3].msg->type(), MsgType::HermesAck);
    EXPECT_EQ(departures[3].at, drain);
    EXPECT_GT(drain, kBusyJob);
}

/** A log that records its flushes into a shared event list. */
class RecordingLog : public DurableLog
{
  public:
    explicit RecordingLog(std::vector<std::string> &events)
        : events_(events)
    {}

    void flush() override { events_.push_back("log flush"); }
    uint64_t appendedSeq() const override { return 0; }
    uint64_t durableSeq() const override { return 0; }
    void deliverDurable(uint64_t) override {}
    void waitDurable(uint64_t) override {}
    void startWriter(std::function<void()>) override {}

  private:
    std::vector<std::string> &events_;
};

TEST_F(SimCoalescing, LogFlushesBeforeWindowDeparts)
{
    build(3);
    std::vector<std::string> events;
    RecordingLog log(events);
    rt->env(0).attachLog(&log);
    rt->network().setDropFilter(
        [&](NodeId, NodeId dst, const MessagePtr &) {
            events.push_back(test::strCat("depart to ", dst));
            return false;
        });
    busy([&] {
        rt->env(0).send(1, ack(1));
        rt->env(0).send(2, ack(2));
    }, [&] { rt->env(0).send(1, ack(3)); });
    rt->env(0).attachLog(nullptr);

    EXPECT_EQ(events, (std::vector<std::string>{"log flush", "depart to 1",
                                                "depart to 1",
                                                "depart to 2"}));
}

TEST_F(SimCoalescing, CrashDiscardsStagedWindows)
{
    build(2);
    // The first job's ACK waits behind the second job; the node crashes
    // before that job ends, then comes back.
    rt->submit(0, kBusyJob, [&] { rt->env(0).send(1, ack(1)); });
    rt->submit(0, kTail, [] {});
    rt->runFor(kBusyJob + kTail / 2);
    rt->crash(0);
    rt->restart(0);
    rt->attach(0, probes[0].get());
    rt->submit(0, 0, [&] { rt->env(0).send(1, ack(2)); });
    rt->runFor(1_ms);

    EXPECT_EQ(probes[1]->keys(), (std::vector<Key>{2}))
        << "the previous life's staged ACK must never be delivered";
    EXPECT_EQ(rt->network().sentCount(), 1u);
}

} // namespace
} // namespace hermes::sim
