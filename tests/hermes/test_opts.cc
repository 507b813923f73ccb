/**
 * @file
 * The paper's §3.3 optimizations as independently testable switches:
 * O1 (skip needless VALs), O2 (virtual node ids), O3 (broadcast ACKs for
 * early unblocking), plus the inter-key-concurrency ablation knob.
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

ClusterConfig
optConfig(size_t nodes)
{
    ClusterConfig config = test::hermesConfig(nodes);
    config.cost.netJitterNs = 0; // deterministic message crossings
    return config;
}

TEST(HermesOpts, O1SkipsValWhenConflicted)
{
    ClusterConfig config = optConfig(3);
    config.replica.hermesConfig.skipValOnConflict = true;
    SimCluster cluster(config);
    cluster.start();
    // Concurrent same-key writes: the losing coordinator completes in
    // Trans and must skip its VAL broadcast.
    cluster.write(0, 1, "lo", [] {});
    cluster.write(2, 1, "hi", [] {});
    cluster.runFor(10_ms);
    uint64_t skipped = cluster.replica(0).hermes()->stats().valsSkipped
                       + cluster.replica(2).hermes()->stats().valsSkipped;
    EXPECT_GE(skipped, 1u);
    EXPECT_TRUE(cluster.converged(1));
    EXPECT_EQ(cluster.readSync(1, 1).value_or("?"), "hi");
}

TEST(HermesOpts, O1OffStillCorrect)
{
    ClusterConfig config = optConfig(3);
    config.replica.hermesConfig.skipValOnConflict = false;
    SimCluster cluster(config);
    cluster.start();
    cluster.write(0, 1, "lo", [] {});
    cluster.write(2, 1, "hi", [] {});
    cluster.runFor(10_ms);
    EXPECT_TRUE(cluster.converged(1));
    EXPECT_EQ(cluster.readSync(1, 1).value_or("?"), "hi");
    // The stale VAL (lower timestamp) must have been ignored by FVAL.
    EXPECT_EQ(cluster.replica(1).hermes()->keyTimestamp(1).cid, 2u);
}

TEST(HermesOpts, O2VirtualIdsStayDisjointAndCorrect)
{
    ClusterConfig config = optConfig(3);
    config.replica.hermesConfig.virtualIdsPerNode = 8;
    SimCluster cluster(config);
    cluster.start();
    for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(cluster.writeSync(i % 3, 50 + i % 7,
                                      test::strCat("v", i)));
    }
    cluster.runFor(2_ms); // let the final VAL broadcasts land
    for (int k = 0; k < 7; ++k) {
        EXPECT_TRUE(cluster.converged(50 + k));
        // Any stored cid must map back to a real node (cid % numNodes).
        Timestamp ts = cluster.replica(0).hermes()->keyTimestamp(50 + k);
        EXPECT_LT(ts.cid % 3, 3u);
        EXPECT_LT(ts.cid, 8u * 3u);
    }
}

TEST(HermesOpts, O2ImprovesConflictFairness)
{
    // With a single physical id per node, node 2 wins every same-version
    // conflict against node 0. With virtual ids, node 0 must win some.
    auto winners_for = [](unsigned vids) {
        ClusterConfig config = optConfig(3);
        config.replica.hermesConfig.virtualIdsPerNode = vids;
        SimCluster cluster(config);
        cluster.start();
        int node0_wins = 0;
        for (int i = 0; i < 40; ++i) {
            Key key = 1000 + i;
            cluster.write(0, key, "zero", [] {});
            cluster.write(2, key, "two", [] {});
            cluster.runFor(5_ms);
            if (cluster.readSync(1, key).value_or("?") == "zero")
                ++node0_wins;
        }
        return node0_wins;
    };
    EXPECT_EQ(winners_for(1), 0) << "without O2, higher id always wins";
    EXPECT_GT(winners_for(16), 5) << "with O2, ties spread across nodes";
}

TEST(HermesOpts, O3ValidatesWithoutVal)
{
    // With ACK broadcasting, followers unblock without any VAL: drop all
    // VALs and verify no replay is ever needed.
    ClusterConfig config = optConfig(3);
    config.replica.hermesConfig.ackBroadcast = true;
    SimCluster cluster(config);
    cluster.start();
    cluster.runtime().network().setDropFilter(
        [](NodeId, NodeId, const net::MessagePtr &msg) {
            return msg->type() == net::MsgType::HermesVal;
        });
    ASSERT_TRUE(cluster.writeSync(0, 5, "o3"));
    cluster.runFor(1_ms);
    for (NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(cluster.replica(n).hermes()->keyState(5), KeyState::Valid)
            << "node " << n;
        EXPECT_EQ(cluster.readSync(n, 5).value_or("?"), "o3");
    }
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.replica(n).hermes()->stats().replaysStarted, 0u);
}

TEST(HermesOpts, O3SkipsValBroadcasts)
{
    ClusterConfig config = optConfig(3);
    config.replica.hermesConfig.ackBroadcast = true;
    SimCluster cluster(config);
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 6, "x"));
    EXPECT_GE(cluster.replica(0).hermes()->stats().valsSkipped, 1u);
}

TEST(HermesOpts, O3ReducesFollowerBlockingLatency)
{
    // §3.3: O3 cuts follower read-blocking from a full round-trip (wait
    // for VAL) to a half (wait for the other follower's ACK). Measure the
    // unblock time of a read stalled behind a remote write.
    auto blocked_read_latency = [](bool o3) {
        ClusterConfig config = optConfig(3);
        config.replica.hermesConfig.ackBroadcast = o3;
        SimCluster cluster(config);
        cluster.start();
        // Slow down only node0-bound traffic so the coordinator's VAL
        // lags; follower 1 should unblock via follower 2's ACK under O3.
        cluster.runtime().network().setDropFilter(
            [](NodeId, NodeId, const net::MessagePtr &) { return false; });
        TimeNs unblocked_at = 0;
        bool write_sent = false;
        cluster.write(0, 9, "w", [&] { write_sent = true; });
        // Step until follower 1 has processed the INV (key Invalid) but
        // the write has not yet validated anywhere.
        while (cluster.replica(1).hermes()->keyState(9) == KeyState::Valid)
            cluster.runtime().events().runOne();
        bool done = false;
        cluster.read(1, 9, [&](const Value &) {
            done = true;
            unblocked_at = cluster.now();
        });
        cluster.runFor(20_ms);
        EXPECT_TRUE(done);
        EXPECT_TRUE(write_sent);
        return unblocked_at;
    };
    TimeNs with_o3 = blocked_read_latency(true);
    TimeNs without_o3 = blocked_read_latency(false);
    EXPECT_LT(with_o3, without_o3)
        << "O3 must unblock stalled reads earlier";
}

TEST(HermesOpts, SerializedAblationStillCorrect)
{
    ClusterConfig config = optConfig(3);
    config.replica.hermesConfig.interKeyConcurrency = false;
    SimCluster cluster(config);
    cluster.start();
    int committed = 0;
    cluster.runtime().submit(0, 0, [&] {
        for (Key k = 0; k < 6; ++k)
            cluster.replica(0).write(k, test::strCat("s", k),
                                     [&committed] { ++committed; });
    });
    cluster.runFor(50_ms);
    EXPECT_EQ(committed, 6);
    for (Key k = 0; k < 6; ++k)
        EXPECT_EQ(cluster.readSync(1, k).value_or("?"),
                  test::strCat("s", k));
}

TEST(HermesOpts, SerializedAblationLimitsPipelining)
{
    ClusterConfig config = optConfig(3);
    config.replica.hermesConfig.interKeyConcurrency = false;
    config.cost.netBaseNs = 50_us;
    SimCluster cluster(config);
    cluster.start();
    cluster.runtime().submit(0, 0, [&] {
        for (Key k = 0; k < 8; ++k)
            cluster.replica(0).write(k, "v", [] {});
    });
    cluster.runFor(20_us);
    EXPECT_EQ(cluster.replica(0).hermes()->pendingUpdates(), 1u)
        << "ablation allows a single outstanding update";
}

} // namespace
} // namespace hermes
