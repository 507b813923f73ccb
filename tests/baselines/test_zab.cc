/**
 * @file
 * ZAB baseline: leader serialization, majority in-order commit, local SC
 * reads, and the global total order of writes (§5.1.1).
 */

#include <gtest/gtest.h>

#include "app/cluster.hh"
#include "app/driver.hh"
#include "support/cluster_fixture.hh"
#include "support/str_cat.hh"

namespace hermes
{
namespace
{

using app::ClusterConfig;
using app::Protocol;
using app::SimCluster;

using test::zabConfig;

TEST(Zab, LeaderIsLowestId)
{
    SimCluster cluster(zabConfig(3));
    cluster.start();
    EXPECT_TRUE(cluster.replica(0).zab()->isLeader());
    EXPECT_FALSE(cluster.replica(1).zab()->isLeader());
    EXPECT_EQ(cluster.replica(2).zab()->leader(), 0u);
}

TEST(Zab, WriteAtLeaderAppliesEverywhere)
{
    SimCluster cluster(zabConfig(5));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 1, "v"));
    cluster.runFor(5_ms); // commits reach followers asynchronously
    for (NodeId n = 0; n < 5; ++n)
        EXPECT_EQ(cluster.readSync(n, 1).value_or("?"), "v") << "node " << n;
}

TEST(Zab, WriteAtFollowerForwardsToLeader)
{
    SimCluster cluster(zabConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(2, 2, "fwd"));
    cluster.runFor(5_ms);
    EXPECT_EQ(cluster.readSync(0, 2).value_or("?"), "fwd");
    EXPECT_GE(cluster.replica(0).zab()->stats().proposalsSent, 1u);
    EXPECT_EQ(cluster.replica(2).zab()->stats().proposalsSent, 0u);
}

TEST(Zab, AllWritesSerializeThroughLeader)
{
    SimCluster cluster(zabConfig(5));
    cluster.start();
    int committed = 0;
    for (NodeId n = 0; n < 5; ++n)
        for (int i = 0; i < 4; ++i)
            cluster.write(n, 100 + n * 4 + i, "v", [&committed] { ++committed; });
    cluster.runFor(20_ms);
    EXPECT_EQ(committed, 20);
    EXPECT_EQ(cluster.replica(0).zab()->stats().proposalsSent, 20u);
}

TEST(Zab, CommitsApplyInZxidOrderDespiteReordering)
{
    ClusterConfig config = zabConfig(3);
    SimCluster cluster(config);
    cluster.start();
    cluster.runtime().network().setDelaySpike(0.5, 30_us);
    int committed = 0;
    // Issue at the leader: zxid order then matches submission order, so
    // the final value is deterministic even though proposals, ACKs and
    // commits all reorder in flight (what this test is really about —
    // the in-order apply machinery).
    for (int i = 0; i < 30; ++i)
        cluster.write(0, 7, test::strCat("v", i),
                      [&committed] { ++committed; });
    cluster.runFor(50_ms);
    EXPECT_EQ(committed, 30);
    // Total order: every replica must hold the last write's value.
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(cluster.readSync(n, 7).value_or("?"), "v29");
    EXPECT_EQ(cluster.replica(1).zab()->lastApplied(),
              cluster.replica(2).zab()->lastApplied());
}

TEST(Zab, ReadsAreLocalAndNeverMessage)
{
    SimCluster cluster(zabConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 3, "x"));
    cluster.runFor(5_ms);
    uint64_t sent_before = cluster.runtime().network().sentCount();
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(cluster.readSync(1, 3).has_value());
    EXPECT_EQ(cluster.runtime().network().sentCount(), sent_before)
        << "ZAB reads must not generate traffic";
}

TEST(Zab, FollowerReadsMayLagUntilCommitArrives)
{
    // SC, not Lin: a follower read between leader-commit and
    // follower-apply legitimately returns the older value.
    ClusterConfig config = zabConfig(3);
    SimCluster cluster(config);
    cluster.start();
    bool drop_commits = true;
    cluster.runtime().network().setDropFilter(
        [&drop_commits](NodeId, NodeId, const net::MessagePtr &msg) {
            return drop_commits
                   && msg->type() == net::MsgType::ZabCommit;
        });
    ASSERT_TRUE(cluster.writeSync(0, 9, "new")); // leader applies locally
    EXPECT_EQ(cluster.readSync(0, 9).value_or("?"), "new");
    EXPECT_EQ(cluster.readSync(1, 9).value_or("?"), "")
        << "follower still serves the stale value under SC";
    drop_commits = false;
    // Next write's commit advances the bound and applies both.
    ASSERT_TRUE(cluster.writeSync(0, 10, "x"));
    cluster.runFor(5_ms);
    EXPECT_EQ(cluster.readSync(1, 9).value_or("?"), "new");
}

TEST(Zab, ThroughputUnderLoad)
{
    SimCluster cluster(zabConfig(5));
    cluster.start();
    app::DriverConfig driver_config;
    driver_config.workload.numKeys = 1000;
    driver_config.workload.writeRatio = 0.05;
    driver_config.sessionsPerNode = 10;
    driver_config.warmup = 2_ms;
    driver_config.measure = 10_ms;
    app::LoadDriver driver(cluster, driver_config);
    app::DriverResult result = driver.run();
    EXPECT_GT(result.throughputMops, 0.1);
    EXPECT_EQ(result.outstandingAtEnd,
              cluster.numNodes() * driver_config.sessionsPerNode);
}

} // namespace
} // namespace hermes
