/**
 * @file
 * CRAQ baseline: chain propagation, clean local reads, dirty reads via
 * tail version queries, and the tail-hotspot behaviour the paper's skew
 * analysis hinges on (§2.5, §6.2).
 */

#include <gtest/gtest.h>

#include "app/cluster.hh"
#include "support/cluster_fixture.hh"
#include "app/driver.hh"
#include "app/lin_checker.hh"
#include "support/str_cat.hh"

namespace hermes
{
namespace
{

using app::ClusterConfig;
using app::Protocol;
using app::SimCluster;

using test::craqConfig;

TEST(Craq, ChainRoles)
{
    SimCluster cluster(craqConfig(3));
    cluster.start();
    EXPECT_TRUE(cluster.replica(0).craq()->isHead());
    EXPECT_FALSE(cluster.replica(1).craq()->isHead());
    EXPECT_TRUE(cluster.replica(2).craq()->isTail());
    EXPECT_EQ(cluster.replica(1).craq()->head(), 0u);
    EXPECT_EQ(cluster.replica(1).craq()->tail(), 2u);
}

TEST(Craq, WriteAtHeadReadEverywhere)
{
    SimCluster cluster(craqConfig(5));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 1, "v1"));
    for (NodeId n = 0; n < 5; ++n)
        EXPECT_EQ(cluster.readSync(n, 1).value_or("?"), "v1") << "node " << n;
}

TEST(Craq, WriteAtNonHeadForwards)
{
    SimCluster cluster(craqConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(2, 2, "from-tail-client"));
    EXPECT_EQ(cluster.readSync(0, 2).value_or("?"), "from-tail-client");
    EXPECT_EQ(cluster.readSync(1, 2).value_or("?"), "from-tail-client");
}

TEST(Craq, WriteLatencyGrowsWithChainLength)
{
    // The O(n) write path (§2.5): time a write on a 3-chain vs a 7-chain.
    auto write_latency = [](size_t nodes) {
        ClusterConfig config = craqConfig(nodes);
        config.cost.netJitterNs = 0;
        SimCluster cluster(config);
        cluster.start();
        TimeNs start = cluster.now();
        EXPECT_TRUE(cluster.writeSync(0, 1, "x"));
        return cluster.now() - start;
    };
    DurationNs chain3 = write_latency(3);
    DurationNs chain7 = write_latency(7);
    EXPECT_GT(chain7, chain3 + 4 * 1000) << "longer chain, longer write";
}

TEST(Craq, DirtyReadQueriesTail)
{
    ClusterConfig config = craqConfig(3);
    SimCluster cluster(config);
    cluster.start();
    // Stall the chain between node 1 and the tail so key stays dirty at
    // the head and node 1.
    bool blocked = true;
    cluster.runtime().network().setDropFilter(
        [&blocked](NodeId, NodeId dst, const net::MessagePtr &msg) {
            return blocked && dst == 2
                   && msg->type() == net::MsgType::CraqWrite;
        });
    bool write_done = false;
    cluster.write(0, 3, "dirty", [&] { write_done = true; });
    cluster.runFor(3_ms);
    EXPECT_FALSE(write_done);
    EXPECT_GT(cluster.replica(0).craq()->dirtyVersions(3), 0u);

    // A read at the head while dirty must consult the tail and return
    // the last committed (genesis) value, not the dirty one.
    auto value = cluster.readSync(0, 3, 10_ms);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "");
    EXPECT_GE(cluster.replica(0).craq()->stats().readsViaTail, 1u);
    EXPECT_GE(cluster.replica(2).craq()->stats().versionQueriesServed, 1u);

    blocked = false;
    // The write is stuck (CRAQ has no retransmit here); re-propagate by
    // writing again, which flows through and commits both versions.
    ASSERT_TRUE(cluster.writeSync(0, 3, "clean", 50_ms));
    EXPECT_EQ(cluster.readSync(1, 3).value_or("?"), "clean");
    EXPECT_EQ(cluster.replica(0).craq()->dirtyVersions(3), 0u);
}

TEST(Craq, TailReadsAlwaysLocal)
{
    SimCluster cluster(craqConfig(3));
    cluster.start();
    ASSERT_TRUE(cluster.writeSync(0, 4, "x"));
    uint64_t queries_before =
        cluster.replica(2).craq()->stats().versionQueriesServed;
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(cluster.readSync(2, 4).has_value());
    EXPECT_EQ(cluster.replica(2).craq()->stats().versionQueriesServed,
              queries_before);
    EXPECT_GE(cluster.replica(2).craq()->stats().readsLocal, 10u);
}

TEST(Craq, PipelinedWritesToSameKeyCommitInOrder)
{
    SimCluster cluster(craqConfig(3));
    cluster.start();
    int committed = 0;
    for (int i = 0; i < 10; ++i)
        cluster.write(0, 5, test::strCat("v", i),
                      [&committed] { ++committed; });
    cluster.runFor(20_ms);
    EXPECT_EQ(committed, 10);
    EXPECT_EQ(cluster.readSync(1, 5).value_or("?"), "v9");
    EXPECT_EQ(cluster.replica(1).craq()->dirtyVersions(5), 0u);
}

TEST(Craq, InterKeyWritesFlowConcurrently)
{
    SimCluster cluster(craqConfig(3));
    cluster.start();
    int committed = 0;
    for (Key k = 0; k < 20; ++k)
        cluster.write(static_cast<NodeId>(k % 3), 100 + k, "v",
                      [&committed] { ++committed; });
    cluster.runFor(20_ms);
    EXPECT_EQ(committed, 20);
}

TEST(Craq, LinearizableUnderConcurrentLoad)
{
    ClusterConfig config = craqConfig(3);
    SimCluster cluster(config);
    cluster.start();
    app::DriverConfig driver_config;
    driver_config.workload.numKeys = 8;
    driver_config.workload.writeRatio = 0.4;
    driver_config.workload.valueSize = 16;
    driver_config.sessionsPerNode = 3;
    driver_config.warmup = 0;
    driver_config.measure = 20_ms;
    driver_config.recordHistory = true;
    app::LoadDriver driver(cluster, driver_config);
    app::DriverResult result = driver.run();
    ASSERT_GT(result.opsTotal, 100u);
    cluster.runFor(50_ms);
    app::LinReport report = app::checkHistory(result.history);
    EXPECT_TRUE(report.ok()) << report.detail;
}

TEST(Craq, SkewLoadsTheTail)
{
    // §6.2: under skew + writes, dirty reads concentrate on the tail.
    ClusterConfig config = craqConfig(5);
    SimCluster cluster(config);
    cluster.start();
    app::DriverConfig driver_config;
    driver_config.workload.numKeys = 1000;
    driver_config.workload.writeRatio = 0.2;
    driver_config.workload.zipfTheta = 0.99;
    driver_config.sessionsPerNode = 20;
    driver_config.warmup = 2_ms;
    driver_config.measure = 20_ms;
    app::LoadDriver driver(cluster, driver_config);
    driver.run();
    EXPECT_GT(cluster.replica(4).craq()->stats().versionQueriesServed, 100u)
        << "skewed dirty reads must hit the tail";
}

} // namespace
} // namespace hermes
