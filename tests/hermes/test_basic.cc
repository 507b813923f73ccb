/**
 * @file
 * Hermes failure-free protocol behaviour: local reads, decentralized
 * writes, INV/ACK/VAL flow, per-key states, concurrent-write conflict
 * resolution — including a faithful re-enactment of the paper's Figure 4
 * operational example.
 */

#include <gtest/gtest.h>

#include "app/cluster.hh"
#include "support/cluster_fixture.hh"
#include "hermes/key_state.hh"
#include "support/str_cat.hh"

namespace hermes
{
namespace
{

using app::ClusterConfig;
using app::Protocol;
using app::SimCluster;
using proto::KeyState;

using test::hermesConfig;

TEST(HermesBasic, ReadOfUnwrittenKeyIsEmpty)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    auto value = cluster.readSync(0, 42);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "");
}

TEST(HermesBasic, WriteThenReadEverywhere)
{
    SimCluster cluster(hermesConfig(5));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 1, "v1"));
    for (NodeId n = 0; n < 5; ++n) {
        auto value = cluster.readSync(n, 1);
        ASSERT_TRUE(value.has_value()) << "node " << n;
        EXPECT_EQ(*value, "v1") << "node " << n;
    }
}

TEST(HermesBasic, AnyReplicaCanCoordinateWrites)
{
    // Decentralized writes: every node initiates for a different key.
    SimCluster cluster(hermesConfig(5));
    cluster.start();
    for (NodeId n = 0; n < 5; ++n)
        ASSERT_TRUE(cluster.writeSync(n, 100 + n, test::strCat("from", n)));
    for (NodeId reader = 0; reader < 5; ++reader) {
        for (NodeId writer = 0; writer < 5; ++writer) {
            auto value = cluster.readSync(reader, 100 + writer);
            ASSERT_TRUE(value.has_value());
            EXPECT_EQ(*value, test::strCat("from", writer));
        }
    }
}

TEST(HermesBasic, SequentialWritesLastOneWins)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(cluster.writeSync(i % 3, 7, test::strCat("v", i)));
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.readSync(n, 7).value_or("?"), "v9");
}

TEST(HermesBasic, WriteCommitsAfterSingleRoundTrip)
{
    ClusterConfig config = hermesConfig(5);
    config.cost.netJitterNs = 0;
    SimCluster cluster(config);
    cluster.start();
    TimeNs start = cluster.now();
    ASSERT_TRUE(cluster.writeSync(2, 9, "x"));
    DurationNs elapsed = cluster.now() - start;
    // One exposed RTT: 2 * (send + base latency + recv), far below 2 RTT.
    DurationNs one_way = config.cost.netBaseNs + config.cost.recvBaseNs
                         + config.cost.sendBaseNs + 200;
    EXPECT_LT(elapsed, 2 * one_way + 2_us);
    EXPECT_GE(elapsed, 2 * config.cost.netBaseNs);
}

TEST(HermesBasic, StateMachineDuringWrite)
{
    // Drop all VALs so followers park in Invalid after ACKing.
    ClusterConfig config = hermesConfig(3);
    SimCluster cluster(config);
    cluster.start();
    cluster.runtime().network().setDropFilter(
        [](NodeId, NodeId, const net::MessagePtr &msg) {
            return msg->type() == net::MsgType::HermesVal;
        });
    ASSERT_TRUE(cluster.writeSync(0, 5, "blocked"));
    // Coordinator committed (all ACKs) and is Valid; followers Invalid.
    EXPECT_EQ(cluster.replica(0).hermes()->keyState(5), KeyState::Valid);
    EXPECT_EQ(cluster.replica(1).hermes()->keyState(5), KeyState::Invalid);
    EXPECT_EQ(cluster.replica(2).hermes()->keyState(5), KeyState::Invalid);
}

TEST(HermesBasic, ReadsStallOnInvalidKeyUntilVal)
{
    ClusterConfig config = hermesConfig(3);
    SimCluster cluster(config);
    cluster.start();
    // Hold back VALs long enough to observe the stall, then let the
    // replay machinery recover (mlt default 400us).
    bool drop_vals = true;
    cluster.runtime().network().setDropFilter(
        [&drop_vals](NodeId, NodeId, const net::MessagePtr &msg) {
            return drop_vals && msg->type() == net::MsgType::HermesVal;
        });
    ASSERT_TRUE(cluster.writeSync(0, 5, "v"));

    bool read_done = false;
    Value read_value;
    cluster.read(1, 5, [&](const Value &v) {
        read_done = true;
        read_value = v;
    });
    cluster.runFor(50_us);
    EXPECT_FALSE(read_done) << "read must stall while Invalid";
    EXPECT_GE(cluster.replica(1).hermes()->stats().readsStalled, 1u);

    drop_vals = false; // stop dropping; the replay will revalidate
    cluster.runFor(2_ms);
    EXPECT_TRUE(read_done);
    EXPECT_EQ(read_value, "v");
}

TEST(HermesBasic, ConcurrentWritesResolveByCid)
{
    // Two coordinators write the same key truly concurrently (same base
    // version). The higher cid must win everywhere; neither write aborts.
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    bool done0 = false, done2 = false;
    cluster.write(0, 11, "from-node-0", [&] { done0 = true; });
    cluster.write(2, 11, "from-node-2", [&] { done2 = true; });
    cluster.runFor(5_ms);
    EXPECT_TRUE(done0);
    EXPECT_TRUE(done2);
    // cid 2 > cid 0 at equal version: node 2's value wins.
    for (NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(cluster.readSync(n, 11).value_or("?"), "from-node-2")
            << "node " << n;
        EXPECT_EQ(cluster.replica(n).hermes()->keyTimestamp(11).cid, 2u);
    }
    EXPECT_TRUE(cluster.converged(11));
}

TEST(HermesBasic, WritesNeverAbort)
{
    SimCluster cluster(hermesConfig(5));
    cluster.start();
    int committed = 0;
    for (NodeId n = 0; n < 5; ++n) {
        cluster.write(n, 77, test::strCat("w", n),
                      [&committed] { ++committed; });
    }
    cluster.runFor(10_ms);
    EXPECT_EQ(committed, 5) << "every concurrent write must commit";
    EXPECT_TRUE(cluster.converged(77));
    uint64_t aborts = 0;
    for (NodeId n = 0; n < 5; ++n)
        aborts += cluster.replica(n).hermes()->stats().rmwsAborted;
    EXPECT_EQ(aborts, 0u);
}

TEST(HermesBasic, InterKeyConcurrency)
{
    // Writes to different keys from one node proceed in parallel: all of
    // them are pending simultaneously before any commits.
    ClusterConfig config = hermesConfig(3);
    config.cost.netBaseNs = 50_us; // widen the in-flight window
    SimCluster cluster(config);
    cluster.start();
    int committed = 0;
    cluster.runtime().submit(0, 0, [&] {
        for (Key k = 0; k < 8; ++k) {
            cluster.replica(0).write(k, "v", [&committed] { ++committed; });
        }
    });
    cluster.runFor(20_us);
    EXPECT_EQ(cluster.replica(0).hermes()->pendingUpdates(), 8u);
    EXPECT_EQ(committed, 0);
    cluster.runFor(10_ms);
    EXPECT_EQ(committed, 8);
}

TEST(HermesBasic, ValueTimestampsMonotonePerKey)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    Timestamp last;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(cluster.writeSync(i % 3, 3, test::strCat("v", i)));
        Timestamp now_ts = cluster.replica(0).hermes()->keyTimestamp(3);
        EXPECT_GT(now_ts, last);
        last = now_ts;
    }
}

/**
 * Figure 4, first half: node 1 writes A=1 while node 3 writes A=3
 * concurrently; both INV broadcasts cross. Node 3's timestamp (same
 * version, higher cid) must take precedence at every replica, node 1
 * ends in Trans then Invalid-until-VAL, and both writes commit with
 * node 1's linearized first.
 */
TEST(HermesBasic, Figure4ConcurrentWritesThenRead)
{
    ClusterConfig config = hermesConfig(3);
    config.cost.netJitterNs = 0; // deterministic crossing
    SimCluster cluster(config);
    cluster.start();

    bool committed1 = false, committed3 = false;
    // "node 1" = id 0, "node 2" = id 1, "node 3" = id 2 in the paper.
    cluster.write(0, 1000, "A=1", [&] { committed1 = true; });
    cluster.write(2, 1000, "A=3", [&] { committed3 = true; });
    cluster.runFor(10_ms);

    EXPECT_TRUE(committed1);
    EXPECT_TRUE(committed3);
    for (NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(cluster.readSync(n, 1000).value_or("?"), "A=3");
        EXPECT_EQ(cluster.replica(n).hermes()->keyState(1000),
                  KeyState::Valid);
    }
    EXPECT_TRUE(cluster.converged(1000));
}

TEST(HermesBasic, StatsCountReadsAndWrites)
{
    SimCluster cluster(hermesConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 1, "v"));
    ASSERT_TRUE(cluster.readSync(0, 1).has_value());
    const proto::HermesStats &stats = cluster.replica(0).hermes()->stats();
    EXPECT_EQ(stats.writesIssued, 1u);
    EXPECT_EQ(stats.writesCommitted, 1u);
    EXPECT_GE(stats.readsCompleted, 1u);
}

} // namespace
} // namespace hermes
